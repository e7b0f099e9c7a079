import bisect
import tracemalloc

import numpy as np
import pytest

from probunitary.config import DEFAULT_TOLERANCES
from probunitary.decomposition import (
    TrajectorySample,
    build_tilde_unitaries,
    decompose_trajectory,
)
from probunitary.errors import (
    NegativeRate,
    RefusesToSimulate,
    StepTooLarge,
    ValidationError,
)
from probunitary.linalg import cyclic_shift_rows
from probunitary.models import ModelParams, integrate, sample_model
from probunitary.montecarlo import (
    SimConfig,
    _jump_edges,
    _waiting_time_jumps,
    convergence_sweep,
    run_ensemble,
    step,
)

from conftest import random_density_matrix, random_lindblad_spec, random_unitary


def damping_problem(dt, horizon=0.5, gamma=1.0):
    grid = np.arange(0, horizon + dt / 2, dt)
    samples = sample_model("amplitude-damping", grid, ModelParams(gamma=gamma))
    return decompose_trajectory(samples), samples


def replay_jumps(edges, seed, n_traj):
    """Every trajectory's jumps, [(step, branch draw), ...] per trajectory,
    replayed from one fresh default_rng(seed) in plain loops: round r draws
    a (2, m) block for its m live trajectories in ascending order, row 0
    the waiting times on the cumulative hazard of the per-step jump
    probabilities p = edges[:, -1], and row 1 the draws that times p_k
    pick each jump's branch in edges[k]."""
    p = edges[:, -1]
    hazard = np.concatenate(([0.0], np.cumsum(-np.log1p(-p)))).tolist()
    rng = np.random.default_rng(seed)
    jumps = [[] for _ in range(n_traj)]
    live, start = list(range(n_traj)), [0] * n_traj
    while live:
        u, v = rng.random((2, len(live)))
        alive = []
        for i, wait, draw in zip(live, (-np.log1p(-u)).tolist(), v.tolist()):
            k = bisect.bisect_right(hazard, hazard[start[i]] + wait) - 1
            if k < len(p):
                jumps[i].append((k, draw * p[k]))
                start[i] = k + 1
                alive.append(i)
        live = alive
    return jumps


UNITAL_HORIZON = 0.3
SPECTRA = {2: [0.7, 0.3], 3: [0.55, 0.3, 0.15]}


def unital_problem(d, seed):
    """A random unital d-level run on a 1e-3 grid to UNITAL_HORIZON from a
    state with spectrum SPECTRA[d], decomposed without flags:
    (decomposition, samples)."""
    dt = 1e-3
    rng = np.random.default_rng([seed, d])
    spec = random_lindblad_spec(rng, d)
    u = random_unitary(rng, d)
    rho0 = u @ np.diag(SPECTRA[d]) @ u.conj().T
    samples = integrate(spec, rho0, np.arange(0, UNITAL_HORIZON + dt / 2, dt))
    dec = decompose_trajectory(samples)
    assert not (dec.negative_flags | dec.singular_flags).any()
    return dec, samples


def scheme_mean(dec, n_steps):
    """The exact mean of the scheme's label process on the first n_steps
    steps: with w_ki = max(q_i, 0) dt_k from the midpoint rates, the mean
    eigenvalues follow x_{k+1} = (1 - sum_i w_ki) x_k + sum_i w_ki
    x_k[rows[i]] from x_0 = lam0, and the mean state is V_k diag(x_k) V_k^dag."""
    rates = dec.rates[: n_steps + 1]
    w = np.clip(0.5 * (rates[:-1, 1:] + rates[1:, 1:]), 0.0, None)
    w *= np.diff(dec.times[: n_steps + 1])[:, None]
    rows = cyclic_shift_rows(dec.dim)[1:]
    x = [dec.frames.eigenvalues[0]]
    for wk in w:
        x.append((1 - wk.sum()) * x[-1] + wk @ x[-1][rows])
    v = dec.frames.eigenvectors[: n_steps + 1]
    return np.einsum("kai,ki,kbi->kab", v, np.array(x), v.conj())


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
        # step's output depends on the draw only through its branch, so
        # each branch's draws contribute count * step(one of them)
        branch = np.searchsorted(np.cumsum(q[1:] * dt), draws, side="right")
        acc = np.zeros((2, 2), dtype=complex)
        for b in np.unique(branch):
            group = draws[branch == b]
            acc += group.size * step(rho, h, us, q, dt, group[0])
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
        config = SimConfig(n_traj=1, seed=7, horizon=0.2)
        result = run_ensemble(config, dec, exact=samples)
        assert result.trace_distance_to_exact.max() <= dt**2 * len(grid) * 50

    def test_damping_accuracy(self):
        dec, samples = damping_problem(1e-3)
        config = SimConfig(n_traj=4000, seed=42, horizon=0.5)
        result = run_ensemble(config, dec, exact=samples)
        assert result.trace_distance_to_exact.max() <= 0.03

    def test_trace_exactly_one(self):
        dec, samples = damping_problem(1e-3, horizon=0.3)
        config = SimConfig(n_traj=200, seed=3, horizon=0.3)
        result = run_ensemble(config, dec)
        traces = np.einsum("kii->k", result.mean_rho)
        np.testing.assert_allclose(traces.real, 1.0, atol=1e-10)
        np.testing.assert_allclose(traces.imag, 0.0, atol=1e-12)

    def test_ensemble_purity_nonincreasing(self):
        dec, samples = damping_problem(1e-3, horizon=0.5)
        config = SimConfig(n_traj=20000, seed=11, horizon=0.5)
        result = run_ensemble(config, dec)
        purity = np.einsum("kij,kji->k", result.mean_rho, result.mean_rho).real
        # statistical fluctuations allowed at the ensemble noise scale
        assert np.diff(purity).max() <= 5e-3

    def test_seed_determinism(self):
        dec, samples = damping_problem(1e-3, horizon=0.2)
        config = SimConfig(n_traj=500, seed=99, horizon=0.2)
        a = run_ensemble(config, dec)
        b = run_ensemble(config, dec)
        assert np.array_equal(a.mean_rho, b.mean_rho)
        assert np.array_equal(a.stderr, b.stderr)

    def test_z_scores_standard_normal(self):
        # deviations from the exact two-branch expectation should be
        # statistically consistent
        dec, samples = damping_problem(1e-3, horizon=0.4)
        config = SimConfig(n_traj=10000, seed=5, horizon=0.4)
        result = run_ensemble(config, dec, exact=samples)
        diff = np.abs(result.mean_rho - np.stack([s.rho for s in samples[: len(result.times)]]))
        z = diff / np.maximum(result.stderr, 1e-12)
        # bias is O(dt); on this horizon it is far below one stderr
        assert np.quantile(z[result.stderr > 1e-6], 0.99) <= 4.0

    def test_refuses_flagged_interval(self):
        grid = np.arange(0, 2.0 + 5e-4, 1e-3)
        samples = sample_model("jc", grid)
        dec = decompose_trajectory(samples)
        config = SimConfig(n_traj=10, seed=1, horizon=2.0)
        with pytest.raises(RefusesToSimulate) as exc:
            run_ensemble(config, dec)
        assert exc.value.t_start is not None

    def test_step_replay_agrees_with_labels(self, rng):
        # replaying a trajectory's jumps through step (dense state, midpoint
        # H and q, the jump unitaries of the step's first frame) tracks the
        # label state V_k diag(lam0[labels]) V_k^dag; a jump lands one frame
        # early in the replay, so the gap halves with dt
        spec = random_lindblad_spec(rng, 2, jump_scale=1.0, gamma=3.0)
        rho0 = random_density_matrix(rng, 2, min_gap=0.3)
        horizon, n_seeds = 0.5, 8

        def replay_gap(dt):
            grid = np.arange(0, horizon + dt / 2, dt)
            dec = decompose_trajectory(integrate(spec, rho0, grid))
            q_mid = 0.5 * (dec.rates[:-1] + dec.rates[1:])
            edges = _jump_edges(q_mid, dt, DEFAULT_TOLERANCES)
            worst, jumps = 0.0, 0
            for seed in range(n_seeds):
                # a one-trajectory ensemble's mean is that trajectory's state
                config = SimConfig(n_traj=1, seed=seed, horizon=grid[-1])
                labelled = run_ensemble(config, dec).mean_rho
                # per-step draws for step: the sampler's branch draw at a
                # jump step, and the no-jump edge p_k at every other step
                draws = edges[:, -1].copy()
                for k, branch_draw in replay_jumps(edges, seed, 1)[0]:
                    draws[k] = branch_draw
                    jumps += 1
                state = rho0
                for k in range(len(grid) - 1):
                    h = 0.5 * (dec.hamiltonians[k] + dec.hamiltonians[k + 1])
                    us = build_tilde_unitaries(dec.frames.eigenvectors[k])
                    state = step(state, h, us, q_mid[k], dt, draws[k])
                    worst = max(worst, np.abs(state - labelled[k + 1]).max())
            return worst, jumps

        coarse, coarse_jumps = replay_gap(1e-2)
        fine, fine_jumps = replay_gap(5e-3)
        assert coarse_jumps > 0 and fine_jumps > 0
        assert coarse <= 0.5 * 1e-2
        assert fine <= 0.6 * coarse

    def test_short_exact_rejected(self):
        dec, samples = damping_problem(1e-3, horizon=0.2)
        config = SimConfig(n_traj=10, seed=1, horizon=0.2)
        with pytest.raises(ValidationError, match="exact has 200 samples"):
            run_ensemble(config, dec, exact=samples[:-1])

    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_qutrit_ensemble_matches_integrator(self, seed):
        dec, samples = unital_problem(3, seed)
        config = SimConfig(n_traj=5000, seed=seed, horizon=UNITAL_HORIZON)
        result = run_ensemble(config, dec, exact=samples)
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
        config = SimConfig(n_traj=10, seed=1, horizon=7.0)
        with pytest.raises(RefusesToSimulate) as exc:
            run_ensemble(config, dec)
        assert np.pi / 2 - 1e-3 <= exc.value.t_start <= np.pi / 2 + 1e-3
        assert np.pi - 2e-3 <= exc.value.t_end <= np.pi
        assert "[1.57, 3.141], [4.712, 6.283]" in str(exc.value)

    def test_amplitude_damping_exact_oracle(self):
        # H = 0, so the propagator is exactly I, and U~_1 = X: every state
        # stays exactly |0><0| or |1><1|, so the sum over trajectories at
        # step k is exactly diag(N - m_k, m_k), with m_k the trajectories that
        # have jumped an odd number of times, replayed from the shared
        # stream's rounds; the mean is that sum divided by N as a complex
        # array
        dt, horizon, n_traj, seed = 1e-3, 0.5, 5000, 5
        dec, samples = damping_problem(dt, horizon=horizon)
        n_steps = len(samples) - 1
        assert not np.any(dec.hamiltonians)
        config = SimConfig(n_traj=n_traj, seed=seed, horizon=horizon)
        result = run_ensemble(config, dec)

        p = 0.5 * (dec.rates[:-1, 1] + dec.rates[1:, 1]) * dt
        flips = np.zeros(n_steps + 1, dtype=int)
        for jumps in replay_jumps(p[:, None], seed, n_traj):
            for r, (k, _) in enumerate(jumps):
                flips[k + 1] += 1 if r % 2 == 0 else -1
        m = np.cumsum(flips)
        expected = np.zeros((n_steps + 1, 2, 2), dtype=complex)
        expected[:, 0, 0] = n_traj - m
        expected[:, 1, 1] = m
        expected /= n_traj
        assert 0 < m[-1] < n_traj
        assert np.array_equal(result.mean_rho, expected)

    def test_peak_memory_independent_of_steps(self):
        # the sampler holds per-trajectory state only: no (n_steps, n_traj)
        # array of draws
        dt, horizon, n_traj = 1e-3, 0.5, 20000
        dec, samples = damping_problem(dt, horizon=horizon)
        n_steps = len(samples) - 1
        config = SimConfig(n_traj=n_traj, seed=3, horizon=horizon)
        tracemalloc.start()
        try:
            run_ensemble(config, dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_steps * n_traj * 8 / 4

    def test_one_level_system_never_jumps(self):
        grid = np.arange(0, 0.1 + 5e-4, 1e-3)
        samples = [TrajectorySample(time=t, rho=np.eye(1, dtype=complex)) for t in grid]
        config = SimConfig(n_traj=10, seed=1, horizon=0.1)
        result = run_ensemble(config, decompose_trajectory(samples))
        assert np.array_equal(result.mean_rho, np.ones((len(grid), 1, 1)))
        assert not result.stderr.any()

    def test_nonuniform_grid(self):
        # every step runs on its own spacing: amplitude damping sampled on
        # a grid whose steps grow from 0.5e-3 to 4e-3 stays within the
        # ensemble noise plus the O(gamma dt) midpoint bias of the exact
        # state (one mean spacing for all steps leaves that bound)
        gamma, n_traj = 1.0, 4000
        grid = np.concatenate(([0.0], np.cumsum(np.geomspace(0.5e-3, 4e-3, 250))))
        samples = sample_model("amplitude-damping", grid, ModelParams(gamma=gamma))
        dec = decompose_trajectory(samples)
        config = SimConfig(n_traj=n_traj, seed=4, horizon=grid[-1])
        result = run_ensemble(config, dec, exact=samples)
        assert len(result.times) == len(grid)
        sigma = np.linalg.norm(result.stderr.reshape(len(grid), -1), axis=1)
        bound = 4 * sigma + 2 * gamma * np.diff(grid).max()
        assert np.all(result.trace_distance_to_exact <= bound)

    def test_step_too_large_judged_per_step(self):
        # at gamma = 60 the rate grows from 60 to about 900 by t = 0.011.
        # One 4e-3 step at the low rate, then 1e-4 steps at the high one:
        # every q dt is below 0.3 (max q times max dt would be 3.4)
        def simulate(grid):
            samples = sample_model("amplitude-damping", grid, ModelParams(gamma=60.0))
            config = SimConfig(n_traj=10, seed=1, horizon=0.011)
            return run_ensemble(config, decompose_trajectory(samples))

        grid = np.concatenate(([0.0], np.arange(0.004, 0.011 - 5e-5, 1e-4), [0.011]))
        assert len(simulate(grid).times) == len(grid)
        # 1e-4 steps at the low rate, then one 9.1e-3 step whose q dt is 5.9
        with pytest.raises(StepTooLarge):
            simulate(np.concatenate((np.arange(0, 0.002, 1e-4), [0.011])))

    @pytest.mark.parametrize("d, seed", [(2, 0), (3, 0), (3, 1), (3, 9)])
    def test_ensemble_matches_exact_scheme_mean(self, d, seed):
        # the scheme's own mean has no O(dt) bias against the ensemble, so
        # the deviations are pure noise: a jump through the wrong shift or
        # at the wrong step shows at many stderr
        dec, _ = unital_problem(d, seed)
        config = SimConfig(n_traj=20000, seed=seed, horizon=UNITAL_HORIZON)
        result = run_ensemble(config, dec)
        expected = scheme_mean(dec, len(result.times) - 1)
        z = np.abs(result.mean_rho - expected) / np.maximum(result.stderr, 1e-12)
        assert np.quantile(z[result.stderr > 1e-6], 0.99) <= 4.0

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SimConfig(n_traj=0, seed=0, horizon=1.0)
        # a NaN horizon would pass no grid time to the flagged-interval scan
        for horizon in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="horizon"):
                SimConfig(n_traj=1, seed=0, horizon=horizon)


class TestSampler:
    def test_law_matches_per_step_bernoulli(self):
        # time-varying d = 3 rates: under step's per-step scheme each
        # trajectory jumps through branch i at step k with probability
        # q_i dt, independently of every other step
        dt, n_steps, n = 1e-2, 200, 20000
        t = (np.arange(n_steps) + 0.5) * dt
        q = np.stack([np.zeros_like(t), 2 + 1.5 * np.sin(2 * np.pi * t), 1 + t], axis=1)
        edges = _jump_edges(q, dt, DEFAULT_TOLERANCES)
        counts = np.zeros((n_steps, 2))
        jumped = np.zeros((n_steps, n), dtype=bool)
        for lanes, k, branch in _waiting_time_jumps(edges, 17, n):
            assert not jumped[k, lanes].any()
            np.add.at(counts, (k, branch), 1)
            jumped[k, lanes] = True

        prob = q[:, 1:] * dt
        z = (counts - n * prob) / np.sqrt(n * prob * (1 - prob))
        assert np.quantile(np.abs(z), 0.99) <= 4.0

        # memorylessness: the centred indicators of steps k and k + 1 are
        # uncorrelated; pooled over k, their product sums to 0 within 4 stderr
        p = prob.sum(axis=1)[:, None]
        centred = jumped - p
        cross = (centred[:-1] * centred[1:]).sum()
        var = n * (p[:-1] * (1 - p[:-1]) * p[1:] * (1 - p[1:])).sum()
        assert abs(cross) <= 4 * np.sqrt(var)


class TestConvergenceSweep:
    def test_bias_and_noise_scaling(self):
        def make_problem(dt):
            return damping_problem(dt, horizon=0.4)

        rows = convergence_sweep(make_problem, 21, 0.4, [2e-2, 1e-2], [2500, 10000])
        table = {(r["dt"], r["n_traj"]): r for r in rows}
        # quadrupling the ensemble halves the stochastic error (within 25%)
        ratio = (
            table[(1e-2, 10000)]["max_stderr"] / table[(1e-2, 2500)]["max_stderr"]
        )
        assert 0.375 <= ratio <= 0.625

    def test_zero_rate_error_flat_in_n(self, rng):
        spec = random_lindblad_spec(rng, 2, n_jumps=0)
        rho0 = random_density_matrix(rng, 2, min_gap=0.2)
        def make_problem(dt):
            grid = np.arange(0, 0.1 + dt / 2, dt)
            samples = integrate(spec, rho0, grid)
            return decompose_trajectory(samples), samples

        rows = convergence_sweep(make_problem, 8, 0.1, [1e-3], [10, 100])
        errs = [r["max_trace_distance"] for r in rows]
        assert abs(errs[0] - errs[1]) <= 1e-10
