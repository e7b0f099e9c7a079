"""Finite-time channel decomposition into probabilistically applied
unitaries and the associated Kraus-like operator pairs.

Given an input/output pair of density matrices, finds probabilities q_i
and unitaries U~_i such that
rho_out = sum_i q_i U~_i rho_in U~_i^dag with sum_i q_i = 1.

A split with every q_i in [0, 1] (a mixed-unitary split) exists exactly
when spec(rho_out) is majorized by spec(rho_in) (Uhlmann's theorem,
Nielsen & Chuang section 12.5.1).  The cyclic construction pairs output
eigenbranches with input ones by overlap and solves q against the d
conjugated cyclic shifts; when that q leaves [0, 1] but the spectra are
majorized, a Hardy-Littlewood-Polya chain of T-transforms gives the
mixed-unitary split over conjugated permutations instead.  Only pairs
whose spectra are not majorized keep the signed (quasi-probability) q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import SingularChannel, ValidationError
from .linalg import (
    _canonical_spectrum,
    _validated_eigh,
    conjugated_permutations,
    cyclic_shift_rows,
    solve_circulant_rates,
)

__all__ = [
    "ChannelDecomposition",
    "KrausLikeForm",
    "decompose_channel",
    "to_kraus_like",
    "apply_decomposition",
]

MIXED_UNITARY = "mixed_unitary"
QUASI_PROBABILITY = "quasi_probability"
SINGULAR = "singular"


@dataclass
class ChannelDecomposition:
    """Probabilities, unitaries and classification of one channel pair.

    ``classification`` describes the pair itself: ``mixed_unitary`` when
    spec(rho_out) is majorized by spec(rho_in), so that every probability
    lies in [0, 1]; otherwise ``quasi_probability`` (some q_i < 0) or
    ``singular`` (the cyclic system is singular with an eigenvalue change
    in its range; q is its minimum-norm solution).  A singular system
    whose eigenvalue change leaves its range has no decomposition;
    decompose_channel raises SingularChannel for it.

    ``unitaries`` are the d conjugated cyclic shifts V_out W_i V_in^dag
    on the cyclic construction, with V_out's columns ordered by
    ``pairing``.  On the majorization construction they are conjugated
    permutations V_out P_i V_in^dag, eigenvectors in descending order;
    slots the split does not need carry weight 0 and the identity
    permutation.  ``pairing[i]`` is the output eigenbranch matched to
    input branch i: the overlap assignment on the cyclic construction
    (the convention is ours, not canonical), the descending-order pairing
    (equal rank) that the permutations act on in the majorization
    construction.
    """

    probabilities: np.ndarray       # (d,), q[0] = 1 - sum(q[1:])
    unitaries: np.ndarray           # (d, d, d)
    classification: str
    reconstruction_residual: float
    pairing: np.ndarray             # (d,) output index matched to input i


@dataclass
class KrausLikeForm:
    """Pairs (K_i, Kbar_i) with sum_i K_i Kbar_i = identity and
    Kbar_i = sign_i K_i^dag."""

    operators: np.ndarray           # (d, 2, d, d): [i, 0] = K_i, [i, 1] = Kbar_i
    signs: np.ndarray               # (d,) of +1.0 / -1.0


def _permutation_mixture(y, x) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and index rows S, d of each, with sum_n w[n] y[S[n]] = x.

    Requires x majorized by y, both descending.  Follows the
    Hardy-Littlewood-Polya chain (Marshall, Olkin & Arnold, Inequalities:
    Theory of Majorization, 2.B.1): each T-transform moves mass from the
    last coordinate j above x to the first later coordinate k below x
    until one of them equals x, so at most d - 1 transforms reach x.  A
    transform acts on the mixture by swapping j and k in whole rows and
    splitting at most one row, so each adds at most one row and d rows
    suffice (Caratheodory's bound on the (d-1)-dimensional permutohedron).
    Unused rows are the identity with weight 0.
    """
    d = y.shape[0]
    z = y.copy()
    rows = [np.arange(d)]
    weights = [1.0]
    for _ in range(d - 1):
        gap = z - x
        # in exact arithmetic the last coordinate above x has one below x
        # after it; rounding can leave a trailing coordinate an ulp above
        below = np.flatnonzero(gap < 0)
        above = np.flatnonzero(gap[: below[-1]] > 0) if below.size else below
        if not above.size:
            break
        j = above[-1]
        k = j + 1 + np.flatnonzero(gap[j + 1:] < 0)[0]
        # settle one coordinate exactly so it is never picked again
        if gap[j] <= -gap[k]:
            shift, z[j] = gap[j], x[j]
            z[k] += shift
        else:
            shift, z[k] = -gap[k], x[k]
            z[j] -= shift
        # rows with y[row[j]] > y[row[k]] hold at least z[j] - z[k] >= shift
        # between j and k; swap them whole until the last one, which splits
        for n in range(len(rows)):
            if shift <= 0:
                break
            row = rows[n]
            step = y[row[j]] - y[row[k]]
            if step <= 0:
                continue
            swapped = row.copy()
            swapped[[j, k]] = row[[k, j]]
            if weights[n] * step <= shift:
                rows[n] = swapped
                shift -= weights[n] * step
            else:
                part = shift / step
                weights[n] -= part
                rows.append(swapped)
                weights.append(part)
                break
    w = np.zeros(d)
    w[: len(weights)] = weights
    perms = np.tile(np.arange(d), (d, 1))
    perms[: len(rows)] = rows
    return w, perms


def _mix(q, unitaries, rho) -> np.ndarray:
    """sum_i q_i U_i rho U_i^dag."""
    return np.einsum("i,iab,bc,idc->ad", q, unitaries, rho, unitaries.conj())


def _majorization_split(spec_in, spec_out, tol: Tolerances):
    """Mixed-unitary split over conjugated permutations as the record
    (q, V_out, V_in, index rows, pairing) that decompose_channel finishes,
    or None when spec(rho_out) is not majorized by spec(rho_in)."""
    # eigenvalues inside a degenerate cluster may sit out of order by less
    # than tol.degeneracy_gap; majorization needs them strictly descending
    order_in = np.argsort(-spec_in.eigenvalues, kind="stable")
    order_out = np.argsort(-spec_out.eigenvalues, kind="stable")
    y = spec_in.eigenvalues[order_in]
    x = spec_out.eigenvalues[order_out]
    # x is majorized by y: every leading partial sum of x is at most y's
    if np.any(np.cumsum(x)[:-1] > np.cumsum(y)[:-1] + tol.rate_negativity):
        return None
    q, perms = _permutation_mixture(y, x)
    q[q < tol.rate_negativity] = 0.0
    q /= q.sum()
    pairing = np.empty(y.shape[0], dtype=int)
    pairing[order_in] = order_out
    # U_n = V_out P_n V_in^dag maps descending input branch perms[n, k]
    # to descending output branch k
    return (q, spec_out.eigenvectors[:, order_out], spec_in.eigenvectors[:, order_in],
            perms, pairing)


def decompose_channel(
    rho_in, rho_out, tol: Tolerances = DEFAULT_TOLERANCES
) -> ChannelDecomposition:
    """Decompose the map rho_in -> rho_out into probabilistic unitaries.

    The cyclic construction runs first and is returned as it is when its
    system is nonsingular and its q lies in [0, 1] (to within
    ``tol.rate_negativity``).  Otherwise, if spec(rho_out) is majorized by
    spec(rho_in) (leading partial sums compared with slack
    ``tol.rate_negativity``), the pair is split over at most d conjugated
    permutations with weights in [0, 1]; weights below
    ``tol.rate_negativity`` are set to 0.  Otherwise the cyclic q is
    returned, labelled ``quasi_probability`` or ``singular``; a singular
    system that reports an inconsistent eigenvalue change raises
    SingularChannel.  Every result but a ``singular`` one is checked
    against rho_out to ``tol.reconstruction``.
    """
    rho_in, *eig_in = _validated_eigh(rho_in, tol)
    rho_out, *eig_out = _validated_eigh(rho_out, tol)
    if rho_in.shape != rho_out.shape:
        raise ValidationError("input and output dimensions differ")

    spec_in = _canonical_spectrum(*eig_in, tol)
    spec_out = _canonical_spectrum(*eig_out, tol)
    overlap = spec_in.eigenvectors.conj().T @ spec_out.eigenvectors
    _, cols = linear_sum_assignment(-np.abs(overlap) ** 2)
    p_in = spec_in.eigenvalues
    result = solve_circulant_rates(p_in, spec_out.eigenvalues[cols] - p_in, mode="channel", tol=tol)
    q = result.q
    if result.singular:
        classification = SINGULAR
    elif np.all((q >= -tol.rate_negativity) & (q <= 1 + tol.rate_negativity)):
        classification = MIXED_UNITARY
    else:
        classification = QUASI_PROBABILITY
    split = (q, spec_out.eigenvectors[:, cols], spec_in.eigenvectors,
             cyclic_shift_rows(len(q)), cols)
    if classification != MIXED_UNITARY:
        majorized = _majorization_split(spec_in, spec_out, tol)
        if majorized is not None:
            split, classification = majorized, MIXED_UNITARY
        elif result.inconsistent:
            raise SingularChannel(
                "singular input spectrum with inconsistent eigenvalue change",
                block_structure=result.block_structure,
            )

    q, v_out, v_in, perms, pairing = split
    unitaries = conjugated_permutations(v_out, v_in, perms)
    residual = float(np.max(np.abs(_mix(q, unitaries, rho_in) - rho_out)))
    if classification != SINGULAR and residual > tol.reconstruction:
        raise RuntimeError(
            f"internal error: reconstruction residual {residual:.3e} exceeds "
            f"{tol.reconstruction:.1e}"
        )
    return ChannelDecomposition(
        probabilities=q,
        unitaries=unitaries,
        classification=classification,
        reconstruction_residual=residual,
        pairing=pairing,
    )


def to_kraus_like(decomp: ChannelDecomposition) -> KrausLikeForm:
    """Kraus-like pairs K_i = sqrt(|q_i|) U~_i, Kbar_i = sign(q_i) K_i^dag;
    a ``singular`` decomposition, whose q is unchecked, raises ValidationError."""
    if decomp.classification == SINGULAR:
        raise ValidationError("cannot build Kraus-like form of a singular channel")
    q = decomp.probabilities
    signs = np.where(q >= 0, 1.0, -1.0)
    k = np.sqrt(np.abs(q))[:, None, None] * decomp.unitaries
    kbar = signs[:, None, None] * k.conj().swapaxes(1, 2)
    return KrausLikeForm(operators=np.stack((k, kbar), axis=1), signs=signs)


def apply_decomposition(decomp: ChannelDecomposition, rho) -> np.ndarray:
    """Evaluate sum_i q_i U~_i rho U~_i^dag on an arbitrary state."""
    rho = np.asarray(rho, dtype=complex)
    d = decomp.unitaries.shape[1]
    if rho.shape != (d, d):
        raise ValidationError("state dimension mismatch")
    return _mix(decomp.probabilities, decomp.unitaries, rho)
