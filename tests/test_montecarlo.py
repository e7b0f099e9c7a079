import numpy as np
import pytest

from probunitary.decomposition import build_tilde_unitaries, decompose_trajectory
from probunitary.errors import (
    NegativeRate,
    RefusesToSimulate,
    StepTooLarge,
    ValidationError,
)
from probunitary.models import ModelParams, amplitude_damping_spec, integrate, sample_model
from probunitary.montecarlo import SimConfig, convergence_sweep, run_ensemble, step

from conftest import random_density_matrix, random_lindblad_spec, random_unitary


def damping_problem(dt, horizon=0.5, gamma=1.0):
    grid = np.arange(0, horizon + dt / 2, dt)
    samples = sample_model("amplitude-damping", grid, ModelParams(gamma=gamma))
    return decompose_trajectory(samples), samples[0].rho, samples


class TestStep:
    def test_no_rates_no_hamiltonian(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        us = np.stack([np.eye(2), np.array([[0, 1], [1, 0]])]).astype(complex)
        out = step(rho, np.zeros((2, 2)), us, np.array([0.0, 0.0]), 0.1, 0.5)
        np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_branch_partition(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        us = np.stack([np.eye(2), np.array([[0, 1], [1, 0]])]).astype(complex)
        q = np.array([3.0, 3.0])
        jumped = step(rho, np.zeros((2, 2)), us, q, 0.1, 0.1)
        np.testing.assert_allclose(jumped, np.diag([0.0, 1.0]), atol=1e-14)
        stayed = step(rho, np.zeros((2, 2)), us, q, 0.1, 0.9)
        np.testing.assert_allclose(stayed, rho, atol=1e-14)

    def test_single_step_expectation(self, rng):
        # oracle: the exact two-branch expectation
        # (1 - q1 dt) U rho U^dag + q1 dt X rho X
        rho = np.diag([0.7, 0.3]).astype(complex)
        h = np.array([[0, -0.5j], [0.5j, 0]])
        us = np.stack([np.eye(2), np.array([[0, 1], [1, 0]])]).astype(complex)
        q = np.array([2.0, 2.0])
        dt = 0.05
        from probunitary.montecarlo import _hermitian_propagator

        u = _hermitian_propagator(h, dt)
        exact = (1 - q[1] * dt) * u @ rho @ u.conj().T + q[1] * dt * (
            us[1] @ rho @ us[1].conj().T
        )
        n = 100_000
        draws = rng.random(n)
        acc = np.zeros((2, 2), dtype=complex)
        for d in draws:
            acc += step(rho, h, us, q, dt, d)
        mean = acc / n
        stderr = np.abs(rho).max() * np.sqrt(q[1] * dt * (1 - q[1] * dt) / n)
        assert np.abs(mean - exact).max() <= 3 * stderr + 1e-12

    def test_negative_rate_refused(self):
        us = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        with pytest.raises(NegativeRate):
            step(np.eye(2) / 2, np.zeros((2, 2)), us, np.array([0.0, -0.5]), 0.1, 0.5)

    def test_one_unitary_per_rate(self):
        us = np.stack([np.eye(2)] * 3).astype(complex)
        with pytest.raises(ValidationError):
            step(np.eye(2) / 2, np.zeros((2, 2)), us, np.array([0.0, 0.5]), 0.1, 0.5)

    def test_step_too_large(self):
        us = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        with pytest.raises(StepTooLarge):
            step(np.eye(2) / 2, np.zeros((2, 2)), us, np.array([20.0, 20.0]), 0.1, 0.5)


class TestEnsemble:
    def test_deterministic_limit(self, rng):
        # q = 0: single trajectory equals pure Hamiltonian evolution
        dt = 1e-3
        grid = np.arange(0, 0.2 + dt / 2, dt)
        spec = random_lindblad_spec(rng, 2, n_jumps=0)
        rho0 = random_density_matrix(rng, 2, min_gap=0.2)
        samples = integrate(spec, rho0, grid)
        dec = decompose_trajectory(samples)
        config = SimConfig(dt=dt, n_traj=1, seed=7, horizon=0.2)
        result = run_ensemble(config, dec, rho0, exact=samples)
        assert result.trace_distance_to_exact.max() <= dt**2 * len(grid) * 50

    def test_damping_accuracy(self):
        dec, rho0, samples = damping_problem(1e-3)
        config = SimConfig(dt=1e-3, n_traj=4000, seed=42, horizon=0.5)
        result = run_ensemble(config, dec, rho0, exact=samples)
        assert result.trace_distance_to_exact.max() <= 0.03

    def test_trace_exactly_one(self):
        dec, rho0, samples = damping_problem(1e-3, horizon=0.3)
        config = SimConfig(dt=1e-3, n_traj=200, seed=3, horizon=0.3)
        result = run_ensemble(config, dec, rho0)
        traces = np.einsum("kii->k", result.mean_rho)
        np.testing.assert_allclose(traces.real, 1.0, atol=1e-10)
        np.testing.assert_allclose(traces.imag, 0.0, atol=1e-12)

    def test_ensemble_purity_nonincreasing(self):
        dec, rho0, samples = damping_problem(1e-3, horizon=0.5)
        config = SimConfig(dt=1e-3, n_traj=20000, seed=11, horizon=0.5)
        result = run_ensemble(config, dec, rho0)
        purity = np.einsum("kij,kji->k", result.mean_rho, result.mean_rho).real
        # statistical fluctuations allowed at the ensemble noise scale
        assert np.diff(purity).max() <= 5e-3

    def test_seed_determinism(self):
        dec, rho0, samples = damping_problem(1e-3, horizon=0.2)
        config = SimConfig(dt=1e-3, n_traj=500, seed=99, horizon=0.2)
        a = run_ensemble(config, dec, rho0)
        b = run_ensemble(config, dec, rho0)
        assert np.array_equal(a.mean_rho, b.mean_rho)
        assert np.array_equal(a.stderr, b.stderr)

    def test_z_scores_standard_normal(self):
        # deviations from the exact two-branch expectation should be
        # statistically consistent
        dec, rho0, samples = damping_problem(1e-3, horizon=0.4)
        config = SimConfig(dt=1e-3, n_traj=10000, seed=5, horizon=0.4)
        result = run_ensemble(config, dec, rho0, exact=samples)
        diff = np.abs(result.mean_rho - np.stack([s.rho for s in samples[: len(result.times)]]))
        z = diff / np.maximum(result.stderr, 1e-12)
        # bias is O(dt); on this horizon it is far below one stderr
        assert np.quantile(z[result.stderr > 1e-6], 0.99) <= 4.0

    def test_refuses_flagged_interval(self):
        grid = np.arange(0, 2.0 + 5e-4, 1e-3)
        samples = sample_model("jc", grid)
        dec = decompose_trajectory(samples)
        config = SimConfig(dt=1e-3, n_traj=10, seed=1, horizon=2.0)
        with pytest.raises(RefusesToSimulate) as exc:
            run_ensemble(config, dec, samples[0].rho)
        assert exc.value.t_start is not None

    def test_step_replay_agrees_with_labels(self, rng):
        # replaying a trajectory's Philox draws through step (dense state,
        # midpoint H and q, the jump unitaries of the step's first frame)
        # tracks the label state V_k diag(lam0[labels]) V_k^dag; a jump
        # lands one frame early in the replay, so the gap halves with dt
        spec = random_lindblad_spec(rng, 2, jump_scale=1.0, gamma=3.0)
        rho0 = random_density_matrix(rng, 2, min_gap=0.3)
        horizon, n_seeds = 0.5, 8

        def replay_gap(dt):
            grid = np.arange(0, horizon + dt / 2, dt)
            dec = decompose_trajectory(integrate(spec, rho0, grid))
            n_steps = len(grid) - 1
            worst, jumps = 0.0, 0
            for seed in range(n_seeds):
                # a one-trajectory ensemble's mean is that trajectory's state
                config = SimConfig(dt=dt, n_traj=1, seed=seed, horizon=grid[-1])
                labelled = run_ensemble(config, dec, rho0).mean_rho
                draws = np.random.Generator(
                    np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
                ).random(n_steps)
                state = rho0
                for k in range(n_steps):
                    h = 0.5 * (dec.hamiltonians[k] + dec.hamiltonians[k + 1])
                    q = 0.5 * (dec.rates[k] + dec.rates[k + 1])
                    us = build_tilde_unitaries(dec.frames.eigenvectors[k])
                    state = step(state, h, us, q, dt, draws[k])
                    jumps += draws[k] < q[1] * dt
                    worst = max(worst, np.abs(state - labelled[k + 1]).max())
            return worst, jumps

        coarse, coarse_jumps = replay_gap(1e-2)
        fine, fine_jumps = replay_gap(5e-3)
        assert coarse_jumps > 0 and fine_jumps > 0
        assert coarse <= 0.5 * 1e-2
        assert fine <= 0.6 * coarse

    def test_rho0_must_be_first_state(self):
        dec, rho0, samples = damping_problem(1e-3, horizon=0.2)
        config = SimConfig(dt=1e-3, n_traj=10, seed=1, horizon=0.2)
        for wrong in (np.diag([0.5, 0.5]), np.diag([1.0, 0.0, 0.0])):
            with pytest.raises(ValidationError, match="first state"):
                run_ensemble(config, dec, wrong.astype(complex))

    def test_short_exact_rejected(self):
        dec, rho0, samples = damping_problem(1e-3, horizon=0.2)
        config = SimConfig(dt=1e-3, n_traj=10, seed=1, horizon=0.2)
        with pytest.raises(ValidationError, match="exact has 200 samples"):
            run_ensemble(config, dec, rho0, exact=samples[:-1])

    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_qutrit_ensemble_matches_integrator(self, seed):
        dt, horizon = 1e-3, 0.3
        rng = np.random.default_rng([seed, 3])
        spec = random_lindblad_spec(rng, 3)
        u = random_unitary(rng, 3)
        rho0 = u @ np.diag([0.55, 0.3, 0.15]) @ u.conj().T
        samples = integrate(spec, rho0, np.arange(0, horizon + dt / 2, dt))
        dec = decompose_trajectory(samples)
        assert not (dec.negative_flags | dec.singular_flags).any()
        config = SimConfig(dt=dt, n_traj=5000, seed=seed, horizon=horizon)
        result = run_ensemble(config, dec, rho0, exact=samples)
        sigma = np.linalg.norm(result.stderr.reshape(len(result.times), -1), axis=1)
        assert result.trace_distance_to_exact.max() <= 4 * sigma.max()
        per_time = [
            0.5 * np.abs(np.linalg.eigvalsh(m - s.rho)).sum()
            for m, s in zip(result.mean_rho, samples)
        ]
        np.testing.assert_allclose(result.trace_distance_to_exact, per_time, rtol=0, atol=1e-15)

    def test_refusal_lists_every_flagged_interval(self):
        # JC up to t = 7 is flagged on two separate windows, (pi/2, pi) and
        # (3 pi/2, 2 pi); the refusal bounds the first and names both
        grid = np.arange(0, 7.0 + 5e-4, 1e-3)
        samples = sample_model("jc", grid)
        dec = decompose_trajectory(samples)
        config = SimConfig(dt=1e-3, n_traj=10, seed=1, horizon=7.0)
        with pytest.raises(RefusesToSimulate) as exc:
            run_ensemble(config, dec, samples[0].rho)
        assert np.pi / 2 - 1e-3 <= exc.value.t_start <= np.pi / 2 + 1e-3
        assert np.pi - 2e-3 <= exc.value.t_end <= np.pi
        assert "[1.57, 3.141], [4.712, 6.283]" in str(exc.value)

    def test_amplitude_damping_exact_oracle(self):
        # H = 0, so the propagator is exactly I, and U~_1 = X: every state
        # stays exactly |0><0| or |1><1|, so the sum over trajectories at
        # step k is exactly diag(N - m_k, m_k), with m_k the trajectories that
        # have jumped an odd number of times, replayed from the Philox draws
        # and jump edges; the mean is that sum divided by N as a complex array
        dt, horizon, n_traj, seed = 1e-3, 0.5, 5000, 5
        dec, rho0, samples = damping_problem(dt, horizon=horizon)
        n_steps = len(samples) - 1
        assert not np.any(dec.hamiltonians)
        config = SimConfig(dt=dt, n_traj=n_traj, seed=seed, horizon=horizon)
        result = run_ensemble(config, dec, rho0)

        draws = np.stack([
            np.random.Generator(
                np.random.Philox(key=np.array([seed, i], dtype=np.uint64))
            ).random(n_steps)
            for i in range(n_traj)
        ])
        edges = 0.5 * (dec.rates[:-1, 1] + dec.rates[1:, 1]) * dt
        odd = np.cumsum(draws < edges, axis=1) % 2
        m = np.concatenate(([0], odd.sum(axis=0)))
        expected = np.zeros((n_steps + 1, 2, 2), dtype=complex)
        expected[:, 0, 0] = n_traj - m
        expected[:, 1, 1] = m
        expected /= n_traj
        assert 0 < m[-1] < n_traj
        assert np.array_equal(result.mean_rho, expected)

    def test_dt_mismatch_rejected(self):
        dec, rho0, samples = damping_problem(1e-3, horizon=0.2)
        config = SimConfig(dt=2e-3, n_traj=10, seed=1, horizon=0.2)
        with pytest.raises(ValidationError):
            run_ensemble(config, dec, rho0)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SimConfig(dt=0.0, n_traj=1, seed=0, horizon=1.0)
        with pytest.raises(ValidationError):
            SimConfig(dt=0.1, n_traj=0, seed=0, horizon=1.0)


class TestConvergenceSweep:
    def test_bias_and_noise_scaling(self):
        base = SimConfig(dt=1e-2, n_traj=10, seed=21, horizon=0.4)

        def make_problem(dt):
            return damping_problem(dt, horizon=0.4)

        rows = convergence_sweep(make_problem, base, [2e-2, 1e-2], [2500, 10000])
        table = {(r["dt"], r["n_traj"]): r for r in rows}
        # quadrupling the ensemble halves the stochastic error (within 25%)
        ratio = (
            table[(1e-2, 10000)]["max_stderr"] / table[(1e-2, 2500)]["max_stderr"]
        )
        assert 0.375 <= ratio <= 0.625

    def test_zero_rate_error_flat_in_n(self, rng):
        spec = random_lindblad_spec(rng, 2, n_jumps=0)
        rho0 = random_density_matrix(rng, 2, min_gap=0.2)
        base = SimConfig(dt=1e-3, n_traj=1, seed=8, horizon=0.1)

        def make_problem(dt):
            grid = np.arange(0, 0.1 + dt / 2, dt)
            samples = integrate(spec, rho0, grid)
            return decompose_trajectory(samples), rho0, samples

        rows = convergence_sweep(make_problem, base, [1e-3], [10, 100])
        errs = [r["max_trace_distance"] for r in rows]
        assert abs(errs[0] - errs[1]) <= 1e-10
