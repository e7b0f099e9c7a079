import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm, polar
from scipy.optimize import linear_sum_assignment

from probunitary import decomposition, io
from probunitary.config import DEGENERACY_GAP, OVERLAP_FLOOR, RATE_NEGATIVITY
from probunitary.decomposition import (
    DecompositionSeries,
    EigenframeSeries,
    Trajectory,
    _align,
    align_eigenframes,
    build_hamiltonian,
    build_tilde_unitaries,
    compute_rates_at,
    decompose_trajectory,
    reconstruct_rhs,
)
from probunitary.errors import TrajectoryTooCoarse, ValidationError
from probunitary.linalg import _phase_fix, _validated_eigh
from probunitary.models import (
    amplitude_damping_spec,
    integrate,
    sample_model,
)

from conftest import (
    random_density_matrix,
    random_hermitian,
    random_lindblad_spec,
    random_unitary,
)

SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def one_time(frames) -> DecompositionSeries:
    """A record built by hand on the one time of ``frames``."""
    return DecompositionSeries(np.zeros((1, 2)), np.ones(1), frames)


def assert_rates_row(dec, k):
    """compute_rates_at returns row k of the stored rates."""
    assert np.array_equal(compute_rates_at(dec.frames, dec.times[k]), dec.rates[k])


def rotating_qubit_samples(omega, times, p=(0.8, 0.2)):
    """Eigenframe rotating about y at angular rate omega (closed form)."""
    r = np.stack([expm(-1j * omega * t * SIGMA_Y / 2) for t in times])
    return Trajectory(np.asarray(times, dtype=float), r @ np.diag(p) @ r.conj().swapaxes(1, 2))


class TestAlignment:
    def test_constant_trajectory(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        frames = align_eigenframes(Trajectory(np.array([0.0, 0.1, 0.2]), np.array([rho] * 3)))
        for k in range(3):
            np.testing.assert_allclose(frames.eigenvectors[k], np.eye(2), atol=1e-12)

    def test_sign_flip_is_absorbed(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        _, vals, vecs = _validated_eigh(np.stack([rho, rho]))
        flipped = vecs * np.array([1, -1])[:, None, None]
        frames = _align(np.array([0.0, 0.1]), vals, flipped)
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
        with pytest.raises(TrajectoryTooCoarse, match=r"overlap 0\.732 below 0\.9 between "
                           r"t=0\.0 and t=1\.5, smallest eigenvalue gap 0\.6$"):
            align_eigenframes(samples)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.15])
    def test_time_off_the_grid_rejected(self, t):
        frames = align_eigenframes(rotating_qubit_samples(1.0, [0.0, 0.1, 0.2]))
        assert frames.index_of(0.1 + 1e-12) == 1
        with pytest.raises(ValidationError, match="not on the frame grid"):
            frames.index_of(t)
        with pytest.raises(ValidationError, match="not on the frame grid"):
            compute_rates_at(frames, t)

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            align_eigenframes(Trajectory(np.array([0.0]), np.array([np.eye(2) / 2])))

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
        # frame 1, which splits it, picks frame 0's basis of the pair
        rng = np.random.default_rng([seed, 6])
        spec = random_lindblad_spec(rng, 6)
        u = random_unitary(rng, 6)
        p = np.array([2, 1.5, 1.5, 1, 0.5, 0.2])
        rho0 = u @ np.diag(p / p.sum()) @ u.conj().T
        dec = decompose_trajectory(integrate(spec, rho0, np.arange(0, 2.5 + 5e-4, 1e-3)))
        v, lam = dec.frames.eigenvectors, dec.frames.eigenvalues
        np.testing.assert_allclose((v[0] * lam[0]) @ v[0].conj().T, rho0, atol=1e-12)
        assert np.abs(np.einsum("ai,ai->i", v[0].conj(), v[1])).min() > 1 - 1e-4

    def test_times_must_match_the_states(self):
        samples = rotating_qubit_samples(1.0, [0.0, 0.1, 0.2])
        with pytest.raises(ValidationError, match=r"^3 times but states of shape \(2, 2, 2\)"):
            align_eigenframes(Trajectory(samples.times, samples.rhos[:2]))

    @pytest.mark.parametrize("per_time", [
        build_hamiltonian,
        compute_rates_at,
        # a one-time record has no spacing for the singular rule either
        pytest.param(lambda frames, t: one_time(frames).singular_flags, id="singular_flags"),
        pytest.param(lambda frames, t: one_time(frames).flagged_intervals, id="flagged_intervals"),
        pytest.param(lambda frames, t: io.write_rate_report("rates.csv", one_time(frames)),
                     id="write_rate_report"),
    ])
    def test_derivative_needs_two_grid_points(self, per_time, tmp_path, monkeypatch):
        # the grid check sits in align_eigenframes; frames built by hand skip it
        monkeypatch.chdir(tmp_path)
        frames = EigenframeSeries(np.array([0.0]), np.array([[1.0, 0.0]]), np.eye(2)[None])
        with pytest.raises(ValidationError, match="need at least two grid points") as info:
            per_time(frames, 0.0)
        assert type(info.value) is ValidationError
        assert not list(tmp_path.iterdir())

    def test_nan_sample_rejected(self):
        samples = rotating_qubit_samples(1.0, [0.0, 0.1, 0.2])
        samples.rhos[1, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="entry 1: .*NaN"):
            align_eigenframes(samples)


BAD_GRIDS = {"nan": [0.0, math.nan, 0.2], "inf": [0.0, 0.1, math.inf], "repeated": [0.0, 0.1, 0.1]}
GRID_ENTRY_POINTS = {
    "integrate": lambda grid: integrate(amplitude_damping_spec(1.0), np.diag([1.0, 0.0]), grid),
    "sample_model": lambda grid: sample_model("jc", grid),
    "decompose_trajectory": lambda grid: decompose_trajectory(
        Trajectory(np.array(grid), sample_model("jc", [0.0, 0.1, 0.2]).rhos)),
}


@pytest.mark.parametrize("grid", BAD_GRIDS.values(), ids=BAD_GRIDS)
@pytest.mark.parametrize("entry", GRID_ENTRY_POINTS.values(), ids=GRID_ENTRY_POINTS)
def test_non_finite_or_repeated_time_rejected(entry, grid):
    with pytest.raises(ValidationError, match="finite, strictly increasing times"):
        entry(grid)


def sequential_alignment(samples):
    """Frame-by-frame reference for align_eigenframes: assignment when a
    diagonal overlap is below the floor, per-branch phase transport or the
    polar part of each degenerate cluster's overlap block."""
    _, first, v = _validated_eigh(samples.rhos[0])
    vals, vecs = [first], [_phase_fix(v)]
    d = len(first)
    for k in range(1, len(samples)):
        w, v = np.linalg.eigh(samples.rhos[k])
        w, v = w[::-1], v[:, ::-1].copy()
        prev = vecs[-1]
        overlap = prev.conj().T @ v
        if np.abs(np.diagonal(overlap)).min() < OVERLAP_FLOOR:
            _, cols = linear_sum_assignment(-np.abs(overlap) ** 2)
            w, v = w[cols], v[:, cols]
        order = np.argsort(w)[::-1]
        start = 0
        while start < d:
            stop = start + 1
            while stop < d and w[order[stop - 1]] - w[order[stop]] < DEGENERACY_GAP:
                stop += 1
            cluster = order[start:stop]
            if cluster.size == 1:
                b = np.vdot(prev[:, cluster[0]], v[:, cluster[0]])
                v[:, cluster[0]] *= b.conj() / abs(b)
            else:
                u, _ = polar(prev[:, cluster].conj().T @ v[:, cluster])
                v[:, cluster] = v[:, cluster] @ u.conj().T
            start = stop
        vals.append(w)
        vecs.append(v)
    return np.array(vals), np.array(vecs)


def rotating_samples(populations, times, seed=4):
    """U(t) diag(p(t)) U(t)^dag with U(t) = exp(-i t G), G random Hermitian."""
    rng = np.random.default_rng(seed)
    g = random_hermitian(rng, 3)
    return Trajectory(times, np.stack([
        expm(-1j * t * g) @ np.diag(populations(t)) @ expm(1j * t * g) for t in times
    ]))


def rebuilt_states(frames):
    """V_k diag(lam_k) V_k^dag on every grid time."""
    v = frames.eigenvectors
    return np.einsum("kai,ki,kbi->kab", v, frames.eigenvalues, v.conj())


class TestAlignmentSplice:
    """A frame is aligned on its own only where a raw diagonal overlap with
    the frame before is below the floor, or where it or the frame before
    holds a degenerate cluster; every other frame keeps the branch order
    carried through the crossings before it.  All frames agree with the
    sequential reference, each crossing costs one assignment, and a
    degenerate cluster costs none, nor does its split
    (TestClusterSplitRefinement)."""

    times = np.linspace(0.0, 1.0, 101)

    def check(self, monkeypatch, samples, assignments=None):
        calls = []
        solve = decomposition.linear_sum_assignment
        monkeypatch.setattr(decomposition, "linear_sum_assignment",
                            lambda cost: calls.append(cost) or solve(cost))
        frames = align_eigenframes(samples)
        vals, vecs = sequential_alignment(samples)
        assert np.abs(frames.eigenvalues - vals).max() <= 1e-13
        assert np.abs(frames.eigenvectors - vecs).max() <= 1e-13
        assert np.abs(rebuilt_states(frames) - samples.rhos).max() <= 1e-13
        if assignments is not None:
            assert len(calls) == assignments
        return frames

    def test_branch_crossing_mid_grid(self, monkeypatch):
        # two populations cross between t = 0.50 and t = 0.51
        a = 0.1 / 1.01
        self.check(monkeypatch, rotating_samples(
            lambda t: [0.45 - a * t, 0.35 + a * t, 0.2], self.times), assignments=1)

    def test_degenerate_cluster_from_mid_grid(self, monkeypatch):
        # the two lower populations meet at t = 0.505 and stay equal
        s = lambda t: 0.05 * min(t / 0.505, 1.0)  # noqa: E731
        self.check(monkeypatch, rotating_samples(
            lambda t: [0.5, 0.3 - s(t), 0.2 + s(t)], self.times), assignments=0)

    def test_crossing_and_crossing_back(self, monkeypatch):
        # the first two populations cross near t = 0.253 and back near 0.753
        c = lambda t: 0.05 * math.cos(2 * math.pi * (t - 0.003))  # noqa: E731
        frames = self.check(monkeypatch, rotating_samples(
            lambda t: [0.4 + c(t), 0.4 - c(t), 0.2], self.times), assignments=2)
        assert frames.eigenvalues[50, 0] < frames.eigenvalues[50, 1]
        assert frames.eigenvalues[-1, 0] > frames.eigenvalues[-1, 1]

    def test_two_crossings(self, monkeypatch):
        # the lowest population crosses the middle one near t = 0.253 and
        # the highest near t = 0.753
        s = lambda t: 0.2 * t - 0.0506  # noqa: E731
        frames = self.check(monkeypatch, rotating_samples(
            lambda t: [0.4, 0.3 - s(t), 0.3 + s(t)], self.times), assignments=2)
        np.testing.assert_allclose(frames.eigenvalues[-1], [0.4, 0.1506, 0.4494], atol=1e-12)

    def test_crossing_then_degenerate_cluster(self, monkeypatch):
        # the first two populations cross near t = 0.161; from t = 0.805 on
        # the falling one equals the lowest
        x = lambda t: 0.25 * min(t / 0.805, 1.0)  # noqa: E731
        frames = self.check(monkeypatch, rotating_samples(
            lambda t: [0.45 - x(t), 0.35 + x(t), 0.2], self.times), assignments=1)
        np.testing.assert_allclose(frames.eigenvalues[-1], [0.2, 0.6, 0.2], atol=1e-12)


class TestClusterSplitRefinement:
    """A degenerate cluster held since frame 0 gets its basis from the
    frame that splits it, so no grid refuses the split, max ||H|| agrees
    within 10 % across grids and the split costs no assignment."""

    def decompose(self, monkeypatch, populations, n):
        calls = []
        solve = decomposition.linear_sum_assignment
        monkeypatch.setattr(decomposition, "linear_sum_assignment",
                            lambda cost: calls.append(cost) or solve(cost))
        samples = rotating_samples(populations, np.linspace(0.0, 1.0, n))
        return samples, decompose_trajectory(samples), len(calls)

    def max_h_norms(self, monkeypatch, populations, grids):
        norms = [np.linalg.norm(self.decompose(monkeypatch, populations, n)[1].hamiltonians,
                                2, axis=(1, 2)).max() for n in grids]
        assert max(norms) <= 1.1 * min(norms), norms
        return norms

    def test_c1_split_of_a_pair(self, monkeypatch):
        # the two lower populations are equal up to t = 0.5 and then part
        # as a C^1, majorized flow
        def populations(t):
            s = 0.2 * max(t - 0.5, 0.0) ** 2
            return [0.5 - 3 * s, 0.25 + 2 * s, 0.25 + s]
        norms = []
        for n in [1001, 2001, 4001, 8001]:
            samples, dec, assignments = self.decompose(monkeypatch, populations, n)
            assert assignments == 0
            inner = ~(dec.negative_flags | dec.singular_flags)
            inner[[0, -1]] = False
            h = dec.hamiltonians
            unitaries = np.stack([build_tilde_unitaries(v) for v in dec.frames.eigenvectors[inner]])
            rhs = reconstruct_rhs(samples.rhos[inner], h[inner], unitaries, dec.rates[inner])
            rho_dot = np.gradient(samples.rhos, samples.times, axis=0)[inner]
            assert np.abs(rhs - rho_dot).max() <= 1e-4
            norms.append(np.linalg.norm(h, 2, axis=(1, 2)).max())
        assert max(norms) <= 1.1 * min(norms), norms

    def test_three_fold_cluster_splits_in_two_stages(self, monkeypatch):
        # one population leaves the triple at t = 0.3, and the remaining
        # pair parts at t = 0.6
        def populations(t):
            s, r = 0.2 * max(t - 0.3, 0.0) ** 2, 0.2 * max(t - 0.6, 0.0) ** 2
            return [1 / 3 + 2 * s, 1 / 3 - s + r, 1 / 3 - s - r]
        self.max_h_norms(monkeypatch, populations, [201, 1001, 4001])

    def test_crossing_on_a_grid_point_keeps_forward_transport(self, monkeypatch):
        # the first two populations cross exactly at the grid point t = 0.5;
        # a cluster that forms after frame 0 is not rotated by its split
        c = lambda t: 0.05 * (t - 0.5)  # noqa: E731
        norms = self.max_h_norms(monkeypatch, lambda t: [0.4 + c(t), 0.4 - c(t), 0.2],
                                 [201, 1001, 4001])
        assert max(norms) < 1.0


class TestFramesRebuildStates:
    """The aligned frames rebuild the states they decompose, so the
    ensemble's mean and the decomposed state share the frame V_k."""

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_random_lindblad(self, rng, d):
        spec = random_lindblad_spec(rng, d)
        rho0 = random_density_matrix(rng, d)
        samples = integrate(spec, rho0, np.arange(0, 0.5 + 5e-4, 1e-3))
        frames = align_eigenframes(samples)
        assert np.abs(rebuilt_states(frames) - samples.rhos).max() <= 1e-13

    def test_jc_through_its_degenerate_crossing(self):
        samples = sample_model("jc", np.arange(0, 3.0 + 5e-4, 1e-3))
        frames = align_eigenframes(samples)
        assert np.abs(rebuilt_states(frames) - samples.rhos).max() <= 1e-13


class TestHamiltonian:
    def test_stationary_gives_zero(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        frames = align_eigenframes(Trajectory(np.array([0.0, 0.1, 0.2]), np.array([rho] * 3)))
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
        frames = align_eigenframes(sample_model("jc", times))
        q = compute_rates_at(frames, t_star)
        assert q[1] == pytest.approx(0.5 * math.tan(t_star), abs=1e-6)
        assert q[1] == pytest.approx(1.1456, abs=1e-3)

    def test_stationary_rates_vanish(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        frames = align_eigenframes(Trajectory(np.array([0.0, 0.1]), np.array([rho] * 2)))
        np.testing.assert_allclose(compute_rates_at(frames, 0.0), 0.0, atol=1e-12)

    def test_amplitude_damping_rate(self):
        dt = 1e-5
        t_star = math.log(4 / 3)  # rho_11 = 0.75
        times = np.array([t_star - dt, t_star, t_star + dt])
        frames = align_eigenframes(sample_model("amplitude-damping", times))
        q = compute_rates_at(frames, t_star)
        assert q[1] == pytest.approx(1.5, abs=1e-6)


class TestTildeUnitaries:
    @pytest.mark.parametrize("shape", [(2, 3), (3,), (), (2, 2, 2), (0, 0)])
    def test_rejects_non_square_frame(self, shape):
        with pytest.raises(ValidationError, match="a frame must be a square matrix"):
            build_tilde_unitaries(np.ones(shape))

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
        samples = sample_model("jc", times)
        dec = decompose_trajectory(samples)
        rhs = reconstruct_rhs(
            samples.rhos[1],
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
        rho = samples.rhos[k]
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
        trajectory = integrate(spec, random_density_matrix(rng, 3, min_gap=0.1), times)
        dec, rhos = decompose_trajectory(trajectory), trajectory.rhos
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
        times = np.arange(0, 0.1, 0.01)
        dec = decompose_trajectory(Trajectory(times, np.array([rho] * len(times))))
        np.testing.assert_allclose(dec.rates, 0.0, atol=1e-12)
        assert not dec.negative_flags.any()
        assert not dec.singular_flags.any()
        for k in range(len(times)):
            comm = dec.hamiltonians[k] @ rho - rho @ dec.hamiltonians[k]
            assert np.abs(comm).max() <= 1e-12

    def test_jc_negative_flag_region(self):
        dt = 1e-3
        times = np.arange(0, 3.0 + dt / 2, dt)
        dec = decompose_trajectory(sample_model("jc", times))
        half = math.pi / 2
        inside = (times > half + 0.05) & (times < 3.0)
        assert dec.negative_flags[inside].all()
        before = times < half - 0.05
        assert not dec.negative_flags[before].any()

    def test_amplitude_damping_singular_near_ln2(self):
        dt = 1e-3
        times = np.arange(0, 1.0 + dt / 2, dt)
        dec = decompose_trajectory(sample_model("amplitude-damping", times))
        k = int(np.argmin(np.abs(times - math.log(2))))
        assert dec.singular_flags[k]
        assert not dec.singular_flags[: k - 5].any()

    def test_gauge_robustness(self, rng):
        # multiplying raw eigenvectors by random phases must not change
        # H(t), q(t) or the conjugated channels
        times = np.arange(0, 0.05, 1e-3)
        samples = rotating_qubit_samples(0.9, times)
        frames_ref = align_eigenframes(samples)
        _, vals, vecs = _validated_eigh(samples.rhos)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(len(samples), 1, 2)))
        frames_alt = _align(times, vals, vecs * phases)
        k = 5
        h_ref = build_hamiltonian(frames_ref, times[k])
        h_alt = build_hamiltonian(frames_alt, times[k])
        assert np.abs(h_ref - h_alt).max() <= 1e-8
        np.testing.assert_allclose(
            compute_rates_at(frames_ref, times[k]),
            compute_rates_at(frames_alt, times[k]),
            atol=1e-8,
        )
        rho = samples.rhos[k]
        for u_ref, u_alt in zip(
            build_tilde_unitaries(frames_ref.eigenvectors[k]),
            build_tilde_unitaries(frames_alt.eigenvectors[k]),
        ):
            assert np.abs(
                u_ref @ rho @ u_ref.conj().T - u_alt @ rho @ u_alt.conj().T
            ).max() <= 1e-8

    def test_flags_and_intervals_follow_their_rules(self, rng):
        # a strongly damped run on a grid of spacings up to 0.3: both flags
        # take both values, the last row is singular on the last spacing and
        # the flagged rows form three runs, one of a single row
        spec = random_lindblad_spec(rng, 3, jump_scale=0.7)
        times = np.cumsum(np.concatenate([[0.0], rng.uniform(5e-4, 0.3, 15)]))
        rho0 = random_density_matrix(rng, 3, min_gap=0.1)
        dec = decompose_trajectory(integrate(spec, rho0, times))
        assert [f.name for f in dataclasses.fields(dec)] == ["rates", "condition_estimates", "frames"]
        spacings = np.diff(times)
        singular = dec.condition_estimates * np.append(spacings, spacings[-1]) >= 1
        negative = (dec.rates[:, 1:] < -RATE_NEGATIVITY).any(axis=1)
        assert np.array_equal(dec.singular_flags, singular) and singular[-1]
        assert np.array_equal(dec.negative_flags, negative)
        assert singular.any() and not singular.all() and negative.any() and not negative.all()
        mask = negative | singular
        runs = [list(rows) for flagged, rows in
                itertools.groupby(range(len(times)), key=mask.__getitem__) if flagged]
        assert dec.flagged_intervals == [(times[r[0]], times[r[-1]]) for r in runs]
        assert len(runs) == 3 and min(map(len, runs)) == 1

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
        assert_rates_row(dec, k)

    @pytest.mark.parametrize("dt", [0.05, 0.01])
    def test_rates_at_match_pipeline_rows_across_jc_singularity(self, dt):
        # the JC rate (omega/2) tan(omega t) crosses its pole at omega t = pi/2;
        # next to it the rows are flagged by the grid-aware condition * dt >= 1
        times = np.round(np.arange(0.0, 3.0 + dt / 2, dt), 10)
        dec = decompose_trajectory(sample_model("jc", times))
        near = np.flatnonzero(np.abs(times - math.pi / 2) < 2 * dt)
        assert dec.singular_flags[near].any()
        for k in near:
            assert_rates_row(dec, k)

    def test_rates_at_reports_block_structure_of_singular_row(self):
        # a maximally mixed qubit: circ(1/2, 1/2) is singular on every row
        times = np.linspace(0.0, 1.0, 11)
        dec = decompose_trajectory(rotating_qubit_samples(1.0, times, p=(0.5, 0.5)))
        assert dec.singular_flags.all()
        assert_rates_row(dec, 3)

    def test_first_order_convergence(self, rng):
        spec = amplitude_damping_spec(0.9)
        rho0 = random_density_matrix(rng, 2, min_gap=0.2)

        def max_residual(dt):
            times = np.arange(0, 0.1 + dt / 2, dt)
            samples = integrate(spec, rho0, times)
            dec = decompose_trajectory(samples)
            rhos = samples.rhos
            rho_dot = np.gradient(rhos, times, axis=0)
            inner = slice(1, len(times) - 1)
            unitaries = np.stack([build_tilde_unitaries(v) for v in dec.frames.eigenvectors[inner]])
            rhs = reconstruct_rhs(rhos[inner], dec.hamiltonians[inner], unitaries, dec.rates[inner])
            return np.abs(rhs - rho_dot[inner]).max()

        r1, r2 = max_residual(2e-3), max_residual(1e-3)
        assert r2 <= 0.6 * r1 + 1e-12
