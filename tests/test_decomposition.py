import math

import numpy as np
import pytest
from scipy.linalg import expm, polar
from scipy.optimize import linear_sum_assignment

from probunitary.config import DEFAULT_TOLERANCES
from probunitary.decomposition import (
    TrajectorySample,
    align_eigenframes,
    align_spectra,
    build_hamiltonian,
    build_tilde_unitaries,
    compute_rates_at,
    decompose_trajectory,
    reconstruct_rhs,
)
from probunitary.errors import TrajectoryTooCoarse, ValidationError
from probunitary.linalg import Spectrum, hermitian_eigendecomposition
from probunitary.models import (
    amplitude_damping_exact,
    amplitude_damping_spec,
    integrate,
    jc_reduced_state,
)

from conftest import (
    random_density_matrix,
    random_hermitian,
    random_lindblad_spec,
    random_unitary,
)

SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def rotating_qubit_samples(omega, times, p=(0.8, 0.2)):
    """Eigenframe rotating about y at angular rate omega (closed form)."""
    samples = []
    for t in times:
        r = expm(-1j * omega * t * SIGMA_Y / 2)
        samples.append(
            TrajectorySample(time=t, rho=r @ np.diag(p).astype(complex) @ r.conj().T)
        )
    return samples


class TestAlignment:
    def test_constant_trajectory(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        samples = [TrajectorySample(time=t, rho=rho) for t in (0.0, 0.1, 0.2)]
        frames = align_eigenframes(samples)
        for k in range(3):
            np.testing.assert_allclose(frames.eigenvectors[k], np.eye(2), atol=1e-12)

    def test_sign_flip_is_absorbed(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        spec = hermitian_eigendecomposition(rho)
        flipped = Spectrum(
            eigenvalues=spec.eigenvalues, eigenvectors=-spec.eigenvectors
        )
        frames = align_spectra([0.0, 0.1], [spec, flipped])
        overlap = np.vdot(frames.eigenvectors[0][:, 0], frames.eigenvectors[1][:, 0])
        assert overlap.real > 0.999 and abs(overlap.imag) < 1e-12

    def test_rotating_frame_branches_never_swap(self):
        dt, omega = 1e-3, 1.0
        times = np.arange(0, 1.0, dt)
        frames = align_eigenframes(rotating_qubit_samples(omega, times))
        np.testing.assert_allclose(frames.eigenvalues[:, 0], 0.8, atol=1e-12)
        # parallel-transport oracle: the rotating basis is real, so
        # <psi | d/dt psi> = 0 and transport from the real frame 0 adds no
        # phase
        assert np.abs(frames.eigenvectors.imag).max() < 1e-12

    def test_adjacent_overlap_invariant(self):
        dt = 1e-3
        times = np.arange(0, 0.5, dt)
        frames = align_eigenframes(rotating_qubit_samples(2.0, times))
        for k in range(1, len(times)):
            ov = np.abs(
                np.sum(
                    frames.eigenvectors[k - 1].conj() * frames.eigenvectors[k], axis=0
                )
            )
            assert ov.min() >= 1 - 10 * dt

    def test_too_coarse_raises(self):
        samples = rotating_qubit_samples(1.0, [0.0, 1.5])
        with pytest.raises(TrajectoryTooCoarse):
            align_eigenframes(samples)

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            align_eigenframes([TrajectorySample(0.0, np.eye(2) / 2)])

    @pytest.mark.parametrize("seed", range(10))
    def test_stationary_degenerate_cluster_is_aligned(self, seed):
        # I/3 is a fixed point of every unital generator, but the solver's
        # basis of the degenerate cluster jumps from frame to frame; the
        # overlap floor applies to the subspace-aligned vectors
        rng = np.random.default_rng(seed)
        spec = random_lindblad_spec(rng, 3)
        samples = integrate(spec, np.eye(3) / 3, np.arange(0, 0.0205, 1e-3))
        v = align_eigenframes(samples).eigenvectors
        overlaps = np.abs(np.einsum("kij,kij->kj", v[:-1].conj(), v[1:]))
        assert overlaps.min() > 1 - 1e-12

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_degenerate_pair_split_at_start(self, seed):
        # rho0 has a degenerate pair that the dynamics splits at once;
        # frame 0's basis of the pair is rotated onto frame 1's
        rng = np.random.default_rng([seed, 6])
        spec = random_lindblad_spec(rng, 6)
        u = random_unitary(rng, 6)
        p = np.array([2, 1.5, 1.5, 1, 0.5, 0.2])
        rho0 = u @ np.diag(p / p.sum()) @ u.conj().T
        dec = decompose_trajectory(integrate(spec, rho0, np.arange(0, 2.5 + 5e-4, 1e-3)))
        v, lam = dec.frames.eigenvectors, dec.frames.eigenvalues
        np.testing.assert_allclose((v[0] * lam[0]) @ v[0].conj().T, rho0, atol=1e-12)
        assert np.abs(np.einsum("ai,ai->i", v[0].conj(), v[1])).min() > 1 - 1e-4

    def test_nan_sample_rejected(self):
        samples = rotating_qubit_samples(1.0, [0.0, 0.1, 0.2])
        samples[1].rho[0, 0] = np.nan
        with pytest.raises(ValidationError, match="entry 1: .*NaN"):
            align_eigenframes(samples)


def sequential_alignment(samples, tol=DEFAULT_TOLERANCES):
    """Frame-by-frame reference for align_eigenframes: assignment when a
    diagonal overlap is below the floor, per-branch phase transport or the
    polar part of each degenerate cluster's overlap block.  Also returns
    the first frame that needed the assignment solver or polar."""
    first = hermitian_eigendecomposition(samples[0].rho)
    vals, vecs = [first.eigenvalues], [first.eigenvectors]
    d, serial = first.dim, None
    for k in range(1, len(samples)):
        w, v = np.linalg.eigh(samples[k].rho)
        w, v = w[::-1], v[:, ::-1].copy()
        prev = vecs[-1]
        overlap = prev.conj().T @ v
        if np.abs(np.diagonal(overlap)).min() < tol.overlap_floor:
            _, cols = linear_sum_assignment(-np.abs(overlap) ** 2)
            w, v = w[cols], v[:, cols]
            serial = serial or k
        order = np.argsort(w)[::-1]
        start = 0
        while start < d:
            stop = start + 1
            while stop < d and w[order[stop - 1]] - w[order[stop]] < tol.degeneracy_gap:
                stop += 1
            cluster = order[start:stop]
            if cluster.size == 1:
                b = np.vdot(prev[:, cluster[0]], v[:, cluster[0]])
                v[:, cluster[0]] *= b.conj() / abs(b)
            else:
                u, _ = polar(prev[:, cluster].conj().T @ v[:, cluster])
                v[:, cluster] = v[:, cluster] @ u.conj().T
                serial = serial or k
            start = stop
        vals.append(w)
        vecs.append(v)
    return np.array(vals), np.array(vecs), serial


def rotating_samples(populations, times, seed=4):
    """U(t) diag(p(t)) U(t)^dag with U(t) = exp(-i t G), G random Hermitian."""
    rng = np.random.default_rng(seed)
    g = random_hermitian(rng, 3)
    return [
        TrajectorySample(time=t, rho=expm(-1j * t * g) @ np.diag(populations(t)) @ expm(1j * t * g))
        for t in times
    ]


class TestAlignmentSplice:
    """Frames from the first one that needs the assignment solver or polar
    on are aligned one at a time; all frames agree with the sequential
    reference."""

    times = np.linspace(0.0, 1.0, 101)

    def check(self, samples, first_serial):
        vals, vecs, serial = sequential_alignment(samples)
        assert serial == first_serial
        frames = align_eigenframes(samples)
        assert np.abs(frames.eigenvalues - vals).max() <= 1e-13
        assert np.abs(frames.eigenvectors - vecs).max() <= 1e-13

    def test_branch_crossing_mid_grid(self):
        # two populations cross between t = 0.50 and t = 0.51
        a = 0.1 / 1.01
        self.check(rotating_samples(lambda t: [0.45 - a * t, 0.35 + a * t, 0.2], self.times), 51)

    def test_degenerate_cluster_from_mid_grid(self):
        # the two lower populations meet at t = 0.505 and stay equal
        s = lambda t: 0.05 * min(t / 0.505, 1.0)  # noqa: E731
        self.check(rotating_samples(lambda t: [0.5, 0.3 - s(t), 0.2 + s(t)], self.times), 51)


class TestHamiltonian:
    def test_stationary_gives_zero(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        samples = [TrajectorySample(time=t, rho=rho) for t in (0.0, 0.1, 0.2)]
        frames = align_eigenframes(samples)
        h = build_hamiltonian(frames, 0.1)
        np.testing.assert_allclose(h, 0.0, atol=1e-12)

    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    def test_rotating_frame_recovers_generator(self, dt):
        # analytic differentiation of the rotating eigenbasis gives
        # H = (omega/2) sigma_y; discretization error is O(dt^2)
        omega = 1.3
        times = np.arange(0, 20 * dt, dt)
        frames = align_eigenframes(rotating_qubit_samples(omega, times))
        h = build_hamiltonian(frames, times[10])
        np.testing.assert_allclose(h, omega / 2 * SIGMA_Y, atol=20 * dt**2)

    def test_hermitian_and_traceless_projection(self, rng):
        times = np.arange(0, 0.02, 1e-3)
        frames = align_eigenframes(rotating_qubit_samples(0.7, times))
        h = build_hamiltonian(frames, times[5])
        assert np.abs(h - h.conj().T).max() <= 1e-9
        for i in range(2):
            v = frames.eigenvectors[5][:, i]
            assert abs(np.vdot(v, h @ v)) <= 1e-2  # O(dt)


class TestRates:
    def test_jc_rate_value(self):
        dt = 1e-4
        t_star = math.acos(2 * 0.7 - 1)  # cos^2(t/2) = 0.7
        times = np.array([t_star - dt, t_star, t_star + dt])
        samples = [
            TrajectorySample(time=t, rho=jc_reduced_state(1.0, t)) for t in times
        ]
        frames = align_eigenframes(samples)
        res = compute_rates_at(frames, t_star)
        assert res.q[1] == pytest.approx(0.5 * math.tan(t_star), abs=1e-6)
        assert res.q[1] == pytest.approx(1.1456, abs=1e-3)

    def test_stationary_rates_vanish(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        samples = [TrajectorySample(time=t, rho=rho) for t in (0.0, 0.1)]
        frames = align_eigenframes(samples)
        np.testing.assert_allclose(compute_rates_at(frames, 0.0).q, 0.0, atol=1e-12)

    def test_amplitude_damping_rate(self):
        dt = 1e-5
        t_star = math.log(4 / 3)  # rho_11 = 0.75
        times = np.array([t_star - dt, t_star, t_star + dt])
        samples = [
            TrajectorySample(time=t, rho=amplitude_damping_exact(1.0, t))
            for t in times
        ]
        frames = align_eigenframes(samples)
        res = compute_rates_at(frames, t_star)
        assert res.q[1] == pytest.approx(1.5, abs=1e-6)


class TestTildeUnitaries:
    def test_identity_frame(self):
        us = build_tilde_unitaries(np.eye(3, dtype=complex))
        for i in range(3):
            np.testing.assert_allclose(
                us[i], np.eye(3) if i == 0 else us[i], atol=1e-14
            )
        np.testing.assert_array_equal(us[0], np.eye(3))

    def test_hadamard_frame_conjugates_to_sigma_z(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        us = build_tilde_unitaries(h)
        np.testing.assert_allclose(us[1], np.diag([1, -1]), atol=1e-12)

    def test_unitarity_and_orthogonality(self, rng):
        from conftest import random_unitary

        for d in (2, 3, 4):
            v = random_unitary(rng, d)
            us = build_tilde_unitaries(v)
            np.testing.assert_array_equal(us[0], np.eye(d))
            for i in range(d):
                resid = np.abs(us[i].conj().T @ us[i] - np.eye(d)).max()
                assert resid <= 1e-10
                for j in range(d):
                    tr = np.trace(us[i].conj().T @ us[j])
                    assert abs(tr - (d if i == j else 0)) <= 1e-8


class TestReconstruction:
    def test_commuting_zero(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        h = np.diag([1.0, -1.0]).astype(complex)
        us = build_tilde_unitaries(np.eye(2, dtype=complex))
        out = reconstruct_rhs(rho, h, us, np.zeros(2))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_jc_matches_analytic_derivative(self):
        # oracle: d/dt diag(cos^2(t/2), sin^2(t/2)) at t = 0.5
        dt, t0 = 1e-5, 0.5
        times = np.array([t0 - dt, t0, t0 + dt])
        samples = [
            TrajectorySample(time=t, rho=jc_reduced_state(1.0, t)) for t in times
        ]
        dec = decompose_trajectory(samples)
        rhs = reconstruct_rhs(
            samples[1].rho,
            dec.hamiltonians[1],
            build_tilde_unitaries(dec.frames.eigenvectors[1]),
            dec.rates[1],
        )
        expected = np.diag([-0.5 * math.sin(t0), 0.5 * math.sin(t0)])
        np.testing.assert_allclose(rhs, expected, atol=1e-4)

    def test_diagonal_frame_identity(self, rng):
        spec = amplitude_damping_spec(0.8)
        times = np.arange(0, 0.3, 1e-3)
        rho0 = random_density_matrix(rng, 2, min_gap=0.1)
        samples = integrate(spec, rho0, times)
        dec = decompose_trajectory(samples)
        k = len(times) // 2
        rho = samples[k].rho
        us = build_tilde_unitaries(dec.frames.eigenvectors[k])
        rhs = reconstruct_rhs(rho, dec.hamiltonians[k], us, dec.rates[k])
        assert abs(np.trace(rhs)) <= 1e-9
        v = dec.frames.eigenvectors[k]
        h = dec.hamiltonians[k]
        inner = v.conj().T @ (rhs + 1j * (h @ rho - rho @ h)) @ v
        off = inner - np.diag(np.diagonal(inner))
        assert np.abs(off).max() <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            reconstruct_rhs(
                np.eye(2) / 2, np.eye(3), np.zeros((2, 2, 2)), np.zeros(2)
            )
        # leading axes that do not broadcast
        with pytest.raises(ValidationError):
            reconstruct_rhs(
                np.zeros((4, 2, 2)), np.zeros((3, 2, 2)), np.zeros((2, 2, 2)), np.zeros(2)
            )

    def test_stack_is_the_per_time_rows(self, rng):
        spec = random_lindblad_spec(rng, 3, jump_scale=0.5)
        times = np.arange(0, 0.02, 1e-3)
        samples = integrate(spec, random_density_matrix(rng, 3, min_gap=0.1), times)
        dec = decompose_trajectory(samples)
        rhos = np.stack([s.rho for s in samples])
        unitaries = np.stack([build_tilde_unitaries(v) for v in dec.frames.eigenvectors])
        stacked = reconstruct_rhs(rhos, dec.hamiltonians, unitaries, dec.rates)
        for k in range(len(times)):
            row = reconstruct_rhs(rhos[k], dec.hamiltonians[k], unitaries[k], dec.rates[k])
            np.testing.assert_allclose(stacked[k], row, rtol=0, atol=1e-12)
        # one set of unitaries broadcasts against a stack of states
        shared = reconstruct_rhs(rhos, dec.hamiltonians, unitaries[0], dec.rates)
        np.testing.assert_allclose(
            shared[3], reconstruct_rhs(rhos[3], dec.hamiltonians[3], unitaries[0], dec.rates[3]),
            rtol=0, atol=1e-12,
        )


class TestPipeline:
    def test_constant_trajectory_all_quiet(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        samples = [TrajectorySample(time=t, rho=rho) for t in np.arange(0, 0.1, 0.01)]
        dec = decompose_trajectory(samples)
        np.testing.assert_allclose(dec.rates, 0.0, atol=1e-12)
        assert not dec.negative_flags.any()
        assert not dec.singular_flags.any()
        for k in range(len(samples)):
            comm = dec.hamiltonians[k] @ rho - rho @ dec.hamiltonians[k]
            assert np.abs(comm).max() <= 1e-12

    def test_jc_negative_flag_region(self):
        dt = 1e-3
        times = np.arange(0, 3.0 + dt / 2, dt)
        samples = [
            TrajectorySample(time=t, rho=jc_reduced_state(1.0, t)) for t in times
        ]
        dec = decompose_trajectory(samples)
        half = math.pi / 2
        inside = (times > half + 0.05) & (times < 3.0)
        assert dec.negative_flags[inside].all()
        before = times < half - 0.05
        assert not dec.negative_flags[before].any()

    def test_amplitude_damping_singular_near_ln2(self):
        dt = 1e-3
        times = np.arange(0, 1.0 + dt / 2, dt)
        samples = [
            TrajectorySample(time=t, rho=amplitude_damping_exact(1.0, t))
            for t in times
        ]
        dec = decompose_trajectory(samples)
        k = int(np.argmin(np.abs(times - math.log(2))))
        assert dec.singular_flags[k]
        assert not dec.singular_flags[: k - 5].any()

    def test_gauge_robustness(self, rng):
        # multiplying raw eigenvectors by random phases must not change
        # H(t), q(t) or the conjugated channels
        times = np.arange(0, 0.05, 1e-3)
        samples = rotating_qubit_samples(0.9, times)
        frames_ref = align_eigenframes(samples)
        spectra = []
        for s in samples:
            spec = hermitian_eigendecomposition(s.rho)
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
            spectra.append(
                Spectrum(
                    eigenvalues=spec.eigenvalues,
                    eigenvectors=spec.eigenvectors * phases,
                )
            )
        frames_alt = align_spectra(times, spectra)
        k = 5
        h_ref = build_hamiltonian(frames_ref, times[k])
        h_alt = build_hamiltonian(frames_alt, times[k])
        assert np.abs(h_ref - h_alt).max() <= 1e-8
        np.testing.assert_allclose(
            compute_rates_at(frames_ref, times[k]).q,
            compute_rates_at(frames_alt, times[k]).q,
            atol=1e-8,
        )
        rho = samples[k].rho
        for u_ref, u_alt in zip(
            build_tilde_unitaries(frames_ref.eigenvectors[k]),
            build_tilde_unitaries(frames_alt.eigenvectors[k]),
        ):
            assert np.abs(
                u_ref @ rho @ u_ref.conj().T - u_alt @ rho @ u_alt.conj().T
            ).max() <= 1e-8

    @pytest.mark.parametrize("k", [7, 0])
    def test_per_time_helpers_return_pipeline_rows(self, rng, k):
        # a genuinely non-uniform grid, where a three-point central
        # difference and np.gradient's stencil differ
        spec = random_lindblad_spec(rng, 3, jump_scale=0.5)
        times = np.cumsum(np.concatenate([[0.0], rng.uniform(5e-4, 2e-3, 15)]))
        rho0 = random_density_matrix(rng, 3, min_gap=0.1)
        dec = decompose_trajectory(integrate(spec, rho0, times))
        t = times[k]
        # H is rebuilt from the frames: no stack of matrices is stored
        assert not any(isinstance(v, np.ndarray) and v.ndim == 3 for v in vars(dec).values())
        assert np.array_equal(build_hamiltonian(dec.frames, t), dec.hamiltonians[k])
        assert np.array_equal(compute_rates_at(dec.frames, t).q, dec.rates[k])

    def test_first_order_convergence(self, rng):
        spec = amplitude_damping_spec(0.9)
        rho0 = random_density_matrix(rng, 2, min_gap=0.2)

        def max_residual(dt):
            times = np.arange(0, 0.1 + dt / 2, dt)
            samples = integrate(spec, rho0, times)
            dec = decompose_trajectory(samples)
            rhos = np.stack([s.rho for s in samples])
            rho_dot = np.gradient(rhos, times, axis=0)
            inner = slice(1, len(times) - 1)
            unitaries = np.stack([build_tilde_unitaries(v) for v in dec.frames.eigenvectors[inner]])
            rhs = reconstruct_rhs(rhos[inner], dec.hamiltonians[inner], unitaries, dec.rates[inner])
            return np.abs(rhs - rho_dot[inner]).max()

        r1, r2 = max_residual(2e-3), max_residual(1e-3)
        assert r2 <= 0.6 * r1 + 1e-12
