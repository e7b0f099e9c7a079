"""Probabilistic-unitary decomposition of a density-matrix trajectory.

Given samples of rho(t), this module tracks a continuous eigenframe
across the grid and solves for the jump rates at every grid time, each
in one batched computation over the grid.  The driving Hamiltonian and
the cyclic shifts conjugated into the instantaneous frame follow from
the transported eigenvectors and are rebuilt from the frames when needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import polar
from scipy.optimize import linear_sum_assignment

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import TrajectoryTooCoarse, ValidationError
from .linalg import (
    RateSolveResult,
    _canonical_spectrum,
    _degenerate_clusters,
    _solve_circulant_batch,
    _validated_eigh,
    conjugated_permutations,
    cyclic_shift_rows,
    solve_circulant_rates,
)

__all__ = [
    "TrajectorySample",
    "EigenframeSeries",
    "DecompositionSeries",
    "align_eigenframes",
    "align_spectra",
    "build_hamiltonian",
    "compute_rates_at",
    "build_tilde_unitaries",
    "reconstruct_rhs",
    "decompose_trajectory",
]


@dataclass(frozen=True)
class TrajectorySample:
    time: float
    rho: np.ndarray


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

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[1]

    def index_of(self, t: float) -> int:
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValidationError(f"time {t} is not on the frame grid")
        return k


@dataclass
class DecompositionSeries:
    """Per-time rates and flags, plus the aligned frames they come from.

    Only the rate solve's outputs and the frames are stored.  Everything
    else follows from ``frames`` and is rebuilt when asked for: the
    driving Hamiltonians by the ``hamiltonians`` property, and the
    conjugated shift unitaries U~_i(t_k) = V_k W_i V_k^dag by
    build_tilde_unitaries(frames.eigenvectors[k]).
    """

    times: np.ndarray
    rates: np.ndarray                  # (n, d); rates[:, 0] is the total rate
    negative_flags: np.ndarray         # (n,) bool
    singular_flags: np.ndarray         # (n,) bool
    condition_estimates: np.ndarray    # (n,)
    frames: EigenframeSeries = field(repr=False)

    @property
    def dim(self) -> int:
        return self.rates.shape[1]

    @property
    def hamiltonians(self) -> np.ndarray:
        """Driving Hamiltonians (n, d, d) on every grid time, rebuilt from
        ``frames`` on each access."""
        return _hamiltonians(self.frames)


def _spectra_of(samples, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, eigenvalues (n, d) and eigenvectors (n, d, d) of the samples,
    each frame in descending eigenvalue order."""
    if len(samples) < 2:
        raise ValidationError("need at least two trajectory samples")
    times = np.array([s.time for s in samples], dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValidationError("sample times must be strictly increasing")
    dims = {s.rho.shape[0] for s in samples}
    if len(dims) != 1:
        raise ValidationError("trajectory samples have mismatched dimensions")
    _, evals, evecs = _validated_eigh(np.stack([s.rho for s in samples]), tol)
    return times, evals, evecs


def align_spectra(
    times, spectra, tol: Tolerances = DEFAULT_TOLERANCES
) -> EigenframeSeries:
    """Match eigenvector branches across frames and fix their gauge.

    Frame 0 takes hermitian_eigendecomposition's convention, except that
    the basis of each numerically degenerate cluster is rotated onto
    frame 1's by the polar part of their overlap block.  Each later
    frame is matched to the one before: when every diagonal overlap with
    it reaches ``tol.overlap_floor`` the branches keep their order,
    otherwise an optimal assignment on squared overlaps matches them.
    Each branch's phase is then set by discrete parallel transport, and a
    numerically degenerate cluster is aligned as a subspace via the polar
    part of its overlap block.

    Up to the first frame that needs the assignment solver or polar, the
    transport is a running product: branch i of frame k is
    raw_k[:, i] * prod_{j<=k} conj(o_j,i) / |o_j,i| with
    o_j,i = <raw_{j-1}[:, i], raw_j[:, i]>, computed for all those frames
    at once.  From that frame on, frames are aligned one at a time.
    Adjacent frames whose aligned vectors overlap less than
    ``tol.overlap_floor`` raise TrajectoryTooCoarse.
    """
    if len(spectra) < 2:
        raise ValidationError("need at least two frames")
    d = spectra[0].dim
    if any(np.shape(s.eigenvectors) != (d, d) or np.shape(s.eigenvalues) != (d,)
           for s in spectra):
        raise ValidationError("frame dimension mismatch")
    vals = np.array([s.eigenvalues for s in spectra], dtype=float)
    vecs = np.array([s.eigenvectors for s in spectra], dtype=complex)
    return _align(np.asarray(times, dtype=float), vals, vecs, tol)


def _align(times, vals, vecs, tol: Tolerances) -> EigenframeSeries:
    """align_spectra on stacked eigenvalues (n, d) and eigenvectors (n, d, d)."""
    n = len(vals)
    order = np.argsort(-vals[0], kind="stable")
    first = _canonical_spectrum(vals[0][order], vecs[0][:, order], tol)
    evals = np.array(vals)
    evecs = np.array(vecs)
    evals[0], evecs[0] = first.eigenvalues, first.eigenvectors
    # frame 0's basis of a degenerate cluster is arbitrary; rotate it onto
    # frame 1's, so that a cluster the dynamics splits stays aligned
    nxt = vecs[1][:, np.argsort(-vals[1], kind="stable")]
    for cluster in _degenerate_clusters(evals[0], tol):
        if len(cluster) > 1:
            w, _ = polar(evecs[0][:, cluster].conj().T @ nxt[:, cluster])
            evecs[0][:, cluster] = evecs[0][:, cluster] @ w

    # frames up to the first one that needs the assignment solver (a
    # diagonal overlap below the floor) or polar (a degenerate cluster)
    # are phase-transported by one running product
    overlaps = np.einsum("kai,kai->ki", evecs[:-1].conj(), evecs[1:])
    gaps = np.diff(np.sort(evals[1:], axis=1), axis=1)
    serial = (np.abs(overlaps).min(axis=1) < tol.overlap_floor) | (
        gaps.min(axis=1, initial=np.inf) < tol.degeneracy_gap
    )
    first_serial = 1 + int(np.argmax(serial)) if serial.any() else n
    transport = overlaps[: first_serial - 1].conj()
    transport /= np.abs(transport)
    evecs[1:first_serial] *= np.cumprod(transport, axis=0)[:, None, :]

    for k in range(first_serial, n):
        vals_k, vecs_k = evals[k], evecs[k]
        overlap = evecs[k - 1].conj().T @ vecs_k
        if np.abs(np.diagonal(overlap)).min() < tol.overlap_floor:
            # identity matching is only optimal when every diagonal
            # overlap dominates; otherwise solve the assignment problem
            _, cols = linear_sum_assignment(-np.abs(overlap) ** 2)
            vals_k[:], vecs_k[:] = vals_k[cols], vecs_k[:, cols]
        for cluster in _degenerate_clusters(vals_k, tol):
            if len(cluster) == 1:
                i = cluster[0]
                b = np.vdot(evecs[k - 1][:, i], vecs_k[:, i])
                if b != 0:  # a zero overlap fails the floor below
                    vecs_k[:, i] *= b.conj() / abs(b)
            else:
                block = evecs[k - 1][:, cluster].conj().T @ vecs_k[:, cluster]
                w, _ = polar(block)
                vecs_k[:, cluster] = vecs_k[:, cluster] @ w.conj().T

    aligned = np.abs(np.einsum("kai,kai->ki", evecs[:-1].conj(), evecs[1:])).min(axis=1)
    if (aligned < tol.overlap_floor).any():
        k = 1 + int(np.argmax(aligned < tol.overlap_floor))
        raise TrajectoryTooCoarse(
            f"eigenvector overlap {aligned[k - 1]:.3f} below "
            f"{tol.overlap_floor} between t={times[k - 1]} and t={times[k]}"
        )
    return EigenframeSeries(times=times, eigenvalues=evals, eigenvectors=evecs)


def align_eigenframes(
    samples, tol: Tolerances = DEFAULT_TOLERANCES
) -> EigenframeSeries:
    """Diagonalize every sample and align the frames along the grid."""
    return _align(*_spectra_of(samples, tol), tol)


def _d_dt(values: np.ndarray, frames: EigenframeSeries) -> np.ndarray:
    """Time derivative along the grid by np.gradient's stencils: second
    order in the interior, one-sided at the endpoints."""
    if len(frames.times) < 2:
        raise ValidationError("need at least two grid points to differentiate")
    return np.gradient(values, frames.times, axis=0)


def _hamiltonians(frames: EigenframeSeries) -> np.ndarray:
    """Driving Hamiltonians i sum_i |d/dt psi_i><psi_i| on every grid time."""
    v = frames.eigenvectors
    dv = _d_dt(v, frames)
    h = 1j * np.einsum("kab,kcb->kac", dv, v.conj())
    return (h + h.conj().transpose(0, 2, 1)) / 2


def _rate_system(frames: EigenframeSeries) -> tuple[np.ndarray, np.ndarray]:
    """Populations p (clipped, normalized) and eigenvalue derivatives f
    of the rate system on every grid time, each of shape (n, d)."""
    p = np.clip(frames.eigenvalues, 0.0, None)
    f = _d_dt(frames.eigenvalues, frames)
    return p / p.sum(axis=1, keepdims=True), f


def build_hamiltonian(frames: EigenframeSeries, t: float) -> np.ndarray:
    """Minimal-norm driving Hamiltonian at grid time t: the row of the
    batched computation that DecompositionSeries.hamiltonians returns."""
    k = frames.index_of(t)
    return _hamiltonians(frames)[k]


def compute_rates_at(
    frames: EigenframeSeries, t: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> RateSolveResult:
    """Jump rates at grid time t from the tracked eigenvalue branches: the
    row that decompose_trajectory stores, with the singularity report."""
    k = frames.index_of(t)
    p, f = _rate_system(frames)
    return solve_circulant_rates(p[k], f[k], mode="continuous", tol=tol)


def build_tilde_unitaries(frame) -> np.ndarray:
    """Conjugate the cyclic shifts into the frame: U~_i = V W_i V^dag.

    ``frame`` is a unitary eigenvector matrix.  Returns an array of shape
    (d, d, d); index 0 is the identity.
    """
    v = np.asarray(frame)
    out = conjugated_permutations(v, v, cyclic_shift_rows(len(v)))
    out[0] = np.eye(len(v))
    return out


def reconstruct_rhs(rho, h, unitaries, q) -> np.ndarray:
    """Evaluate -i[H, rho] + sum_{i>=1} q_i (U~_i rho U~_i^dag - rho).

    Broadcasts over leading axes: rho and h (..., d, d), unitaries
    (..., d, d, d), q (..., d).
    """
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    unitaries = np.asarray(unitaries, dtype=complex)
    q = np.asarray(q, dtype=float)
    d = rho.shape[-1] if rho.ndim else 0
    cores = (rho.shape[-2:], h.shape[-2:], unitaries.shape[-3:], q.shape[-1:])
    try:
        if cores != ((d, d), (d, d), (d, d, d), (d,)):
            raise ValueError
        np.broadcast_shapes(rho.shape[:-2], h.shape[:-2], unitaries.shape[:-3], q.shape[:-1])
    except ValueError:
        raise ValidationError("dimension mismatch in reconstruction inputs") from None
    jumps = unitaries[..., 1:, :, :]
    out = -1j * (h @ rho - rho @ h) - q[..., 1:].sum(axis=-1)[..., None, None] * rho
    return out + np.einsum("...i,...iab,...bc,...idc->...ad", q[..., 1:], jumps, rho, jumps.conj())


def decompose_trajectory(
    samples, tol: Tolerances = DEFAULT_TOLERANCES
) -> DecompositionSeries:
    """Full pipeline: align frames, then solve q on every grid time; H
    is rebuilt from the frames by DecompositionSeries.hamiltonians."""
    frames = align_eigenframes(samples, tol=tol)
    p, f = _rate_system(frames)
    rates, singular, condition, _ = _solve_circulant_batch(p, f, "continuous", tol)
    # grid-aware flag: rates of order 1/dt are indistinguishable from
    # a singular crossing at this resolution and break the scheme
    spacings = np.diff(frames.times)
    singular |= condition * np.append(spacings, spacings[-1]) >= 1.0
    return DecompositionSeries(
        times=frames.times,
        rates=rates,
        negative_flags=np.any(rates[:, 1:] < -tol.rate_negativity, axis=1),
        singular_flags=singular,
        condition_estimates=condition,
        frames=frames,
    )
