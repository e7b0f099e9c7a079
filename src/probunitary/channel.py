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
from .errors import SingularChannel, SingularSystem, ValidationError
from .linalg import (
    conjugated_permutations,
    cyclic_shift_rows,
    hermitian_eigendecomposition,
    solve_circulant_rates,
    validate_density_matrix,
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
    ``singular`` (the cyclic system is singular; q is its minimum-norm
    solution).

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

    operators: list
    signs: np.ndarray


def _is_majorized(x, y, slack: float) -> bool:
    """x is majorized by y (both descending, equal sums): every leading
    partial sum of x is at most that of y, up to ``slack``."""
    return bool(np.all(np.cumsum(x)[:-1] <= np.cumsum(y)[:-1] + slack))


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


def _reconstruction_residual(q, unitaries, rho_in, rho_out) -> float:
    return float(np.max(np.abs(_mix(q, unitaries, rho_in) - rho_out)))


def _check_reconstruction(residual: float, tol: Tolerances) -> None:
    if residual > tol.reconstruction:
        raise RuntimeError(
            f"internal error: reconstruction residual {residual:.3e} exceeds "
            f"{tol.reconstruction:.1e}"
        )


def _majorization_split(
    spec_in, spec_out, rho_in, rho_out, tol: Tolerances
) -> ChannelDecomposition | None:
    """Mixed-unitary split over conjugated permutations, or None when
    spec(rho_out) is not majorized by spec(rho_in)."""
    # eigenvalues inside a degenerate cluster may sit out of order by less
    # than tol.degeneracy_gap; majorization needs them strictly descending
    order_in = np.argsort(-spec_in.eigenvalues, kind="stable")
    order_out = np.argsort(-spec_out.eigenvalues, kind="stable")
    y = spec_in.eigenvalues[order_in]
    x = spec_out.eigenvalues[order_out]
    if not _is_majorized(x, y, tol.rate_negativity):
        return None
    q, perms = _permutation_mixture(y, x)
    q[q < tol.rate_negativity] = 0.0
    q /= q.sum()
    # U_n = V_out P_n V_in^dag maps descending input branch perms[n, k]
    # to descending output branch k
    v_in = spec_in.eigenvectors[:, order_in]
    v_out = spec_out.eigenvectors[:, order_out]
    unitaries = conjugated_permutations(v_out, v_in, perms)
    residual = _reconstruction_residual(q, unitaries, rho_in, rho_out)
    _check_reconstruction(residual, tol)
    pairing = np.empty(y.shape[0], dtype=int)
    pairing[order_in] = order_out
    return ChannelDecomposition(
        probabilities=q,
        unitaries=unitaries,
        classification=MIXED_UNITARY,
        reconstruction_residual=residual,
        pairing=pairing,
    )


def decompose_channel(
    rho_in, rho_out, tol: Tolerances = DEFAULT_TOLERANCES
) -> ChannelDecomposition:
    """Decompose the map rho_in -> rho_out into probabilistic unitaries.

    The cyclic construction runs first and is returned as it is when its
    q lies in [0, 1].  Otherwise, if spec(rho_out) is majorized by
    spec(rho_in) (leading partial sums compared with slack
    ``tol.rate_negativity``), the pair is split over at most d conjugated
    permutations with weights in [0, 1]; weights below
    ``tol.rate_negativity`` are set to 0.  Otherwise the cyclic q is
    returned, labelled ``quasi_probability`` or ``singular``, and a
    singular system with an inconsistent eigenvalue change raises
    SingularChannel.  Every nonsingular result is checked against
    rho_out to ``tol.reconstruction``.
    """
    rho_in = validate_density_matrix(rho_in, tol)
    rho_out = validate_density_matrix(rho_out, tol)
    if rho_in.shape != rho_out.shape:
        raise ValidationError("input and output dimensions differ")

    spec_in = hermitian_eigendecomposition(rho_in, tol)
    spec_out = hermitian_eigendecomposition(rho_out, tol)
    overlap = spec_in.eigenvectors.conj().T @ spec_out.eigenvectors
    rows, cols = linear_sum_assignment(-np.abs(overlap) ** 2)
    p_in = spec_in.eigenvalues
    p_out = spec_out.eigenvalues[cols]
    v_out = spec_out.eigenvectors[:, cols]

    f = p_out - p_in
    result = inconsistent = None
    try:
        result = solve_circulant_rates(p_in, f, mode="channel", tol=tol, strict=True)
    except SingularSystem as exc:
        inconsistent = exc
    cyclic_ok = (
        result is not None
        and not result.singular
        and bool(np.all((result.q >= -1e-9) & (result.q <= 1 + 1e-9)))
    )
    if not cyclic_ok:
        split = _majorization_split(spec_in, spec_out, rho_in, rho_out, tol)
        if split is not None:
            return split

    if inconsistent is not None:
        raise SingularChannel(
            f"singular input spectrum with inconsistent eigenvalue change: {inconsistent}",
            block_structure=inconsistent.block_structure,
        ) from inconsistent
    q = result.q

    unitaries = conjugated_permutations(v_out, spec_in.eigenvectors, cyclic_shift_rows(len(p_in)))

    residual = _reconstruction_residual(q, unitaries, rho_in, rho_out)
    if not result.singular:
        _check_reconstruction(residual, tol)

    if result.singular:
        classification = SINGULAR
    elif cyclic_ok:
        classification = MIXED_UNITARY
    else:
        classification = QUASI_PROBABILITY

    return ChannelDecomposition(
        probabilities=q,
        unitaries=unitaries,
        classification=classification,
        reconstruction_residual=residual,
        pairing=cols,
    )


def to_kraus_like(decomp: ChannelDecomposition) -> KrausLikeForm:
    """Kraus-like pairs K_i = sqrt(|q_i|) U~_i, Kbar_i = sign(q_i) K_i^dag."""
    if decomp.classification == SINGULAR:
        raise ValidationError("cannot build Kraus-like form of a singular channel")
    q = decomp.probabilities
    signs = np.where(q >= 0, 1.0, -1.0)
    operators = []
    for i in range(q.shape[0]):
        k = np.sqrt(abs(q[i])) * decomp.unitaries[i]
        operators.append((k, signs[i] * k.conj().T))
    return KrausLikeForm(operators=operators, signs=signs)


def apply_decomposition(decomp: ChannelDecomposition, rho) -> np.ndarray:
    """Evaluate sum_i q_i U~_i rho U~_i^dag on an arbitrary state."""
    rho = np.asarray(rho, dtype=complex)
    d = decomp.unitaries.shape[1]
    if rho.shape != (d, d):
        raise ValidationError("state dimension mismatch")
    return _mix(decomp.probabilities, decomp.unitaries, rho)
