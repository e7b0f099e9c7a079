"""Probabilistic-unitary decomposition of a density-matrix trajectory.

Given rho(t) on a time grid, this module tracks a continuous eigenframe
across the grid and solves for the jump rates at every grid time, each
in one batched computation over the grid.  The driving Hamiltonian and
the cyclic shifts conjugated into the instantaneous frame follow from
the transported eigenvectors and are rebuilt from the frames when needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEGENERACY_GAP, OVERLAP_FLOOR, RATE_NEGATIVITY
from .errors import TrajectoryTooCoarse, ValidationError
from .linalg import (
    _degenerate_clusters,
    _numeric_array,
    _phase_fix,
    _unitary_mixture,
    _validated_eigh,
    conjugated_permutations,
    cyclic_shift_rows,
    min_cost_assignment,
    solve_circulant_rates,
)

__all__ = [
    "Trajectory",
    "EigenframeSeries",
    "DecompositionSeries",
    "align_eigenframes",
    "build_hamiltonian",
    "compute_rates_at",
    "build_tilde_unitaries",
    "reconstruct_rhs",
    "decompose_trajectory",
]


@dataclass(frozen=True)
class Trajectory:
    """``rhos[k]`` (n, d, d) is the state at ``times[k]`` (n,), checked once,
    when built: times is kept as a float 1-D array of n >= 1 entries and rhos
    as a complex (n, d, d) array with d >= 1, else ValidationError.  Time
    order, finiteness and positivity are checked where they are used
    (align_eigenframes); a trajectory file holds any order and any states."""

    times: np.ndarray
    rhos: np.ndarray

    def __post_init__(self):
        times = _numeric_array(self.times, float, "trajectory times are not numbers")
        if times.ndim != 1 or not times.size:
            raise ValidationError(f"trajectory times must be 1-D and nonempty, got shape {times.shape}")
        rhos = _numeric_array(self.rhos, complex, "trajectory states are not a numeric array")
        if rhos.ndim != 3 or rhos.shape[0] != times.size or not 0 < rhos.shape[1] == rhos.shape[2]:
            raise ValidationError(f"{times.size} times but states of shape {rhos.shape}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rhos", rhos)

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class EigenframeSeries:
    """Eigenframes matched and phase-transported along a time grid.

    ``eigenvalues[k, i]`` follows branch i continuously (it is *not*
    re-sorted per time, so branches may cross).  ``eigenvectors[k]`` has
    branch i in column i.
    """

    times: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def index_of(self, t: float) -> int:
        t = _numeric_array(t, float, "a grid time must be a real number")
        if t.ndim:
            raise ValidationError(f"a grid time must be a real number, got shape {t.shape}")
        k = int(np.argmin(np.abs(self.times - t)))
        if not (np.isfinite(t) and abs(self.times[k] - t) <= 1e-9 * max(1.0, abs(t))):
            raise ValidationError(f"time {t} is not on the frame grid")
        return k


@dataclass
class DecompositionSeries:
    """Per-time rates of a trajectory and the aligned frames they come from.

    Stored: the rate solve's ``rates`` (n, d), rates[:, 0] the total rate,
    its ``condition_estimates`` (n,), and ``frames``.  Derived on each
    access: ``times``, ``dim``, the flags (n,), ``flagged_intervals`` and
    the driving ``hamiltonians``; the conjugated shift unitaries
    U~_i(t_k) = V_k W_i V_k^dag are build_tilde_unitaries(frames.eigenvectors[k]).
    """

    rates: np.ndarray
    condition_estimates: np.ndarray
    frames: EigenframeSeries = field(repr=False)

    @property
    def times(self) -> np.ndarray:
        return self.frames.times

    @property
    def dim(self) -> int:
        return self.rates.shape[1]

    @property
    def negative_flags(self) -> np.ndarray:
        """Rows with a jump rate below -RATE_NEGATIVITY."""
        return np.any(self.rates[:, 1:] < -RATE_NEGATIVITY, axis=1)

    @property
    def singular_flags(self) -> np.ndarray:
        """Rows whose condition times their own spacing (the last row: the
        last spacing) reaches 1: rates of order 1/dt are indistinguishable
        from a singular crossing at this resolution and break the scheme."""
        spacings = np.diff(_two_point_grid(self.frames))
        return self.condition_estimates * np.append(spacings, spacings[-1]) >= 1.0

    @property
    def flagged_intervals(self) -> list[tuple[float, float]]:
        """(first, last) grid time of every contiguous run of flagged
        (negative or singular) grid points."""
        mask = self.negative_flags | self.singular_flags
        edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
        return [(float(self.times[a]), float(self.times[b - 1])) for a, b in edges.reshape(-1, 2)]

    @property
    def hamiltonians(self) -> np.ndarray:
        """Driving Hamiltonians (n, d, d) on every grid time."""
        return _hamiltonians(self.frames)


def _checked_grid(times) -> np.ndarray:
    """``times`` as floats; ValidationError unless >= 2 finite, increasing times in 1-D."""
    rule = "a time grid needs >= 2 finite, strictly increasing times in 1-D"
    times = _numeric_array(times, float, rule)
    ok = times.ndim == 1 and times.size >= 2 and np.isfinite(times).all()
    if not (ok and np.all(np.diff(times) > 0)):
        raise ValidationError(rule)
    return times


def linear_sum_assignment(cost):
    """linalg.min_cost_assignment, defined here so that each caller's
    assignments are counted under its own name."""
    return min_cost_assignment(cost)


def _polar(block) -> np.ndarray:
    """Unitary polar factor u @ vh of the SVD block = u diag(s) vh, the
    factor scipy.linalg.polar returns."""
    u, _, vh = np.linalg.svd(block)
    return u @ vh


def _align(times, vals, vecs) -> EigenframeSeries:
    """Match eigenvector branches across frames and fix their gauge.

    Takes _validated_eigh's output: eigenvalues (n, d) and eigenvectors
    (n, d, d), every frame in descending eigenvalue order.  Frame 0 keeps
    that order with _phase_fix's gauge; _polar gives a block's polar part.

    Frame k (k >= 1) is aligned on its own when one of its raw diagonal
    overlaps with frame k - 1 is below OVERLAP_FLOOR (branches may have
    crossed), or when it or frame k - 1 holds a degenerate cluster.  It
    keeps the branch order carried from before when, in every cluster of
    the reordered frame or held since frame 0, each column of the
    cluster's overlap block with the aligned frame k - 1 has a norm that
    reaches the floor (on a singleton, its diagonal overlap; inside a
    cluster the basis is arbitrary, so only the block's span is judged);
    otherwise an optimal assignment on squared overlaps matches them.
    No frame before fixes the basis of a cluster held since frame 0, so
    the frame k that splits it (fully, or into sub-clusters that stay
    held) picks it: its columns on frames 0..k-1 are right-multiplied by
    the polar part of its overlap block of frames k - 1 and k.  Each
    cluster of frame k, a singleton included, is then rotated by the
    polar part of its overlap block with the aligned frame k - 1; on a
    singleton that is the parallel-transport phase.

    Every other frame keeps the carried order, and its phases are a
    running product restarted from the aligned frame before its run: a
    branch of frame k is its raw column times prod_j conj(o_j) / |o_j|
    over the run up to k, with o_j the branch's overlap of frame j - 1
    with raw frame j, the aligned frame j - 1 in the first factor and the
    raw one in the others.  On a grid with no crossing and no cluster
    this is one product over all frames.
    Adjacent frames whose aligned vectors overlap less than
    OVERLAP_FLOOR raise TrajectoryTooCoarse.
    """
    n, d = np.shape(vals)
    evals = np.array(vals)
    evecs = np.array(vecs)
    evecs[0] = _phase_fix(vecs[0])
    # clusters held since frame 0, whose basis no earlier frame fixes
    held = [c for c in _degenerate_clusters(evals[0]) if len(c) > 1]

    # overlaps[k - 1] is the raw diagonal overlap of frames k - 1 and k in
    # descending order; a frame aligned alone rewrites its own row from its
    # aligned vectors, where the running product of the next run starts
    overlaps = np.einsum("kai,kai->ki", evecs[:-1].conj(), evecs[1:])
    gaps = np.diff(np.sort(evals, axis=1), axis=1).min(axis=1, initial=np.inf)
    clustered = gaps < DEGENERACY_GAP
    alone = (np.abs(overlaps).min(axis=1) < OVERLAP_FLOOR) | clustered[1:] | clustered[:-1]
    order = np.arange(d)
    start = 1
    for k in [*(np.flatnonzero(alone) + 1).tolist(), n]:
        # frames start..k-1 keep the carried order; one running product
        transport = overlaps[start - 1:k - 1].conj()
        if (order != np.arange(d)).any():
            transport = transport[:, order]
            evals[start:k] = evals[start:k, order]
            evecs[start:k] = evecs[start:k][:, :, order]
        transport /= np.abs(transport)
        evecs[start:k] *= np.cumprod(transport, axis=0)[:, None, :]
        if k == n:
            break
        prev = evecs[k - 1]
        carried = vecs[k][:, order]
        clusters = _degenerate_clusters(vals[k][order])
        norms = np.abs(np.einsum("ai,ai->i", prev.conj(), carried))
        for cluster in [c for c in clusters if len(c) > 1] + held:
            norms[cluster] = np.linalg.norm(prev[:, cluster].conj().T @ carried[:, cluster], axis=0)
        if norms.min() < OVERLAP_FLOOR:
            _, order = linear_sum_assignment(-np.abs(prev.conj().T @ vecs[k]) ** 2)
            clusters = _degenerate_clusters(vals[k][order])
        evals[k], evecs[k] = vals[k][order], vecs[k][:, order]
        # the frame that splits a held cluster picks its basis on frames 0..k-1
        for c in [c for c in held if not any(set(c) <= set(s) for s in clusters)]:
            evecs[:k, :, c] = evecs[:k, :, c] @ _polar(prev[:, c].conj().T @ evecs[k][:, c])
        held = [s for s in clusters if len(s) > 1 and any(set(s) <= set(c) for c in held)]
        for cluster in clusters:
            block = prev[:, cluster].conj().T @ evecs[k][:, cluster]
            evecs[k][:, cluster] = evecs[k][:, cluster] @ _polar(block).conj().T
        if k + 1 < n:
            overlaps[k, order] = np.einsum("ai,ai->i", evecs[k].conj(), vecs[k + 1][:, order])
        start = k + 1

    aligned = np.abs(np.einsum("kai,kai->ki", evecs[:-1].conj(), evecs[1:])).min(axis=1)
    if (aligned < OVERLAP_FLOOR).any():
        k = 1 + int(np.argmax(aligned < OVERLAP_FLOOR))
        raise TrajectoryTooCoarse(
            f"eigenvector overlap {aligned[k - 1]:.3f} below "
            f"{OVERLAP_FLOOR} between t={times[k - 1]} and t={times[k]}, "
            f"smallest eigenvalue gap {min(gaps[k - 1], gaps[k]):.3g}"
        )
    return EigenframeSeries(times=times, eigenvalues=evals, eigenvectors=evecs)


def align_eigenframes(trajectory: Trajectory) -> EigenframeSeries:
    """Judge and diagonalize every state, then judge the grid and align on it."""
    _, evals, evecs = _validated_eigh(trajectory.rhos)
    return _align(_checked_grid(trajectory.times), evals, evecs)


def _two_point_grid(frames: EigenframeSeries) -> np.ndarray:
    """The frames' grid; ValidationError on fewer than the two points a derivative needs."""
    if len(frames.times) < 2:
        raise ValidationError("need at least two grid points to differentiate")
    return frames.times


def _d_dt(values: np.ndarray, frames: EigenframeSeries) -> np.ndarray:
    """Time derivative along the grid by np.gradient's stencils: second
    order in the interior, one-sided at the endpoints."""
    return np.gradient(values, _two_point_grid(frames), axis=0)


def _hamiltonians(frames: EigenframeSeries) -> np.ndarray:
    """Driving Hamiltonians i sum_i |d/dt psi_i><psi_i| on every grid time."""
    v = frames.eigenvectors
    dv = _d_dt(v, frames)
    h = 1j * np.einsum("kab,kcb->kac", dv, v.conj())
    return (h + h.conj().transpose(0, 2, 1)) / 2


def _populations(eigenvalues) -> np.ndarray:
    """Eigenvalues clipped at 0 and normalized along the last axis: the p
    of the rate system."""
    p = np.clip(eigenvalues, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def _rate_rows(frames: EigenframeSeries):
    """decompose_trajectory's rates (n, d) and condition estimates (n,): the
    rate system on the populations p and the eigenvalue derivatives f."""
    return solve_circulant_rates(_populations(frames.eigenvalues), _d_dt(frames.eigenvalues, frames))


def build_hamiltonian(frames: EigenframeSeries, t: float) -> np.ndarray:
    """Minimal-norm driving Hamiltonian at grid time t: the row of the
    batched computation that DecompositionSeries.hamiltonians returns."""
    k = frames.index_of(t)
    return _hamiltonians(frames)[k]


def compute_rates_at(frames: EigenframeSeries, t: float) -> np.ndarray:
    """Jump rates q (d,) at grid time t from the tracked eigenvalue
    branches: the row that decompose_trajectory stores."""
    k = frames.index_of(t)
    return _rate_rows(frames)[0][k]


def build_tilde_unitaries(frame) -> np.ndarray:
    """Conjugate the cyclic shifts into the frame: U~_i = V W_i V^dag.

    ``frame`` is a unitary eigenvector matrix.  Returns an array of shape
    (d, d, d); index 0 is the identity.
    """
    v = _numeric_array(frame, None, "a frame is not a numeric matrix")
    if v.ndim != 2 or not 0 < v.shape[0] == v.shape[1]:
        raise ValidationError(f"a frame must be a square matrix of size >= 1, got shape {v.shape}")
    out = conjugated_permutations(v, v, cyclic_shift_rows(len(v)))
    out[0] = np.eye(len(v))
    return out


def reconstruct_rhs(rho, h, unitaries, q) -> np.ndarray:
    """Evaluate -i[H, rho] + sum_{i>=1} q_i (U~_i rho U~_i^dag - rho).

    Broadcasts over leading axes: rho and h (..., d, d), unitaries
    (..., d, d, d), q (..., d).
    """
    rho = _numeric_array(rho, complex, "rho is not a numeric array")
    h = _numeric_array(h, complex, "h is not a numeric array")
    unitaries = _numeric_array(unitaries, complex, "unitaries are not a numeric array")
    q = _numeric_array(q, float, "q is not a numeric array")
    d = rho.shape[-1] if rho.ndim else 0
    cores = (rho.shape[-2:], h.shape[-2:], unitaries.shape[-3:], q.shape[-1:])
    try:
        if cores != ((d, d), (d, d), (d, d, d), (d,)):
            raise ValueError
        np.broadcast_shapes(rho.shape[:-2], h.shape[:-2], unitaries.shape[:-3], q.shape[:-1])
    except ValueError:
        raise ValidationError("dimension mismatch in reconstruction inputs") from None
    out = -1j * (h @ rho - rho @ h) - q[..., 1:].sum(axis=-1)[..., None, None] * rho
    return out + _unitary_mixture(q[..., 1:], unitaries[..., 1:, :, :], rho)


def decompose_trajectory(trajectory: Trajectory) -> DecompositionSeries:
    """Full pipeline: align frames, then solve q on every grid time; the
    flags and H follow from the stored solve and frames."""
    frames = align_eigenframes(trajectory)
    return DecompositionSeries(*_rate_rows(frames), frames=frames)
