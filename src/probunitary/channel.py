"""Finite-time channel decomposition into probabilistically applied
unitaries and the associated Kraus-like operator pairs.

Given an input/output pair of density matrices, finds probabilities q_i
and unitaries U~_i such that
rho_out = sum_i q_i U~_i rho_in U~_i^dag with sum_i q_i = 1.

A split with every q_i in [0, 1] (a mixed-unitary split) exists exactly
when spec(rho_out) is majorized by spec(rho_in) (Uhlmann's theorem,
Nielsen & Chuang section 12.5.1).  decompose_channel judges each of its
constructions by the reconstruction of rho_out alone and labels the result
by its q: the cyclic construction (q against the d conjugated cyclic
shifts), a Hardy-Littlewood-Polya chain of T-transforms, and a
transposition tree, which splits every pair but a maximally mixed rho_in
with a different rho_out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEGENERACY_GAP, RATE_NEGATIVITY, RECONSTRUCTION
from .errors import SingularChannel, ValidationError
from .linalg import (
    _named_eigh,
    _numeric_array,
    _phase_fix,
    _unitary_mixture,
    conjugated_permutations,
    cyclic_shift_rows,
    min_cost_assignment,
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


@dataclass
class ChannelDecomposition:
    """One channel pair's split rho_out = sum_i q_i U~_i rho_in U~_i^dag.

    Stored: ``probabilities`` q (d,), with q[0] = 1 - sum(q[1:]), the
    ``unitaries`` (d, d, d) and the ``reconstruction_residual``.  Derived:
    ``classification``, which describes the pair itself: ``mixed_unitary``
    when every probability lies in [0, 1], which a split reaches exactly
    when spec(rho_out) is majorized by spec(rho_in); otherwise
    ``quasi_probability`` (some q_i < 0).

    ``unitaries`` are the d conjugated cyclic shifts V_out W_i V_in^dag
    on the cyclic construction, with V_out's columns matched to V_in's by
    their overlap.  On the majorization and tree constructions they are
    conjugated permutations V_out P_i V_in^dag, eigenvectors in descending
    order; slots a split does not need carry weight 0 and the identity
    permutation.
    """

    probabilities: np.ndarray
    unitaries: np.ndarray
    reconstruction_residual: float

    @property
    def classification(self) -> str:
        return MIXED_UNITARY if _is_probability(self.probabilities) else QUASI_PROBABILITY


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


def _transposition_tree(y, x) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and index rows S, d of each, with sum_n w[n] y[S[n]] = x,
    for descending y and any x of the same sum.

    Row n >= 1 swaps branch n with its parent, branch 0 or d - 1, whichever
    is farther in eigenvalue (d - 1 hangs from 0), so every edge spans at
    least half the spread y[0] - y[d-1]; the swap moves w[n] times that
    gap into n's subtree, which must gain its net change of x - y.  Raises
    SingularChannel when the spread is below DEGENERACY_GAP.
    """
    d = y.shape[0]
    if y[0] - y[-1] < DEGENERACY_GAP:
        raise SingularChannel("maximally mixed input cannot be mapped to a different output")
    n = np.arange(1, d)
    parent = np.where(y[0] - y[n] >= y[n] - y[-1], 0, d - 1)
    net = x[n] - y[n]
    net[-1] += net[:-1][parent[:-1] > 0].sum()
    w = np.empty(d)
    w[1:] = net / (y[parent] - y[n])
    w[0] = 1.0 - w[1:].sum()
    perms = np.tile(np.arange(d), (d, 1))
    perms[n, n] = parent
    perms[n, parent] = n
    return w, perms


def _sorted_split(y, x):
    """Weights q and index rows of a split of the descending spectrum y of
    rho_in onto the descending spectrum x of rho_out: the
    Hardy-Littlewood-Polya chain when x is majorized by y, else the
    transposition tree."""
    # x is majorized by y when every leading partial sum of x is at most y's
    if not np.all(np.cumsum(x)[:-1] <= np.cumsum(y)[:-1] + RATE_NEGATIVITY):
        return _transposition_tree(y, x)
    q, perms = _permutation_mixture(y, x)
    q[q < RATE_NEGATIVITY] = 0.0
    return q / q.sum(), perms


def _reconstruct(q, perms, v_out, v_in, rho_in, rho_out):
    """q, the unitaries V_out P_n V_in^dag and their mixture's residual."""
    unitaries = conjugated_permutations(v_out, v_in, perms)
    residual = float(np.max(np.abs(_unitary_mixture(q, unitaries, rho_in) - rho_out)))
    return q, unitaries, residual


def linear_sum_assignment(cost):
    """linalg.min_cost_assignment, defined here so that each caller's
    assignments are counted under its own name."""
    return min_cost_assignment(cost)


def _is_probability(q) -> bool:
    return bool(np.all((q >= -RATE_NEGATIVITY) & (q <= 1 + RATE_NEGATIVITY)))


def decompose_channel(rho_in, rho_out) -> ChannelDecomposition:
    """Decompose the map rho_in -> rho_out into probabilistic unitaries.

    A construction is valid when it reconstructs rho_out to
    RECONSTRUCTION.  The cyclic one is returned when it is valid and its
    q lies in [0, 1] (to within RATE_NEGATIVITY).
    Otherwise the descending spectra are split over at most d conjugated
    permutations, by the Hardy-Littlewood-Polya chain when spec(rho_out)
    is majorized by spec(rho_in) (leading partial sums compared with slack
    RATE_NEGATIVITY; weights below it set to 0), else by the
    transposition tree; the cyclic split stays if it is valid with no
    larger sum_i |q_i|, a signed split's sampling overhead (1 when
    mixed-unitary).  Raises SingularChannel only for a maximally mixed
    rho_in with a different rho_out, which no mixture of unitaries reaches.
    """
    rho_in, p_in, v_in = _named_eigh("rho_in", rho_in)
    rho_out, p_out, v_out = _named_eigh("rho_out", rho_out)
    if rho_in.shape != rho_out.shape:
        raise ValidationError("input and output dimensions differ")

    v_in, v_out = _phase_fix(v_in), _phase_fix(v_out)
    _, cols = linear_sum_assignment(-np.abs(v_in.conj().T @ v_out) ** 2)
    q, _ = solve_circulant_rates(p_in, p_out[cols] - p_in)
    # the solve returns q0 = -v0, and v0 is the stay probability less 1
    q[0] = 1.0 - q[0]
    split = _reconstruct(q, cyclic_shift_rows(len(q)), v_out[:, cols], v_in, rho_in, rho_out)
    fits = split[2] <= RECONSTRUCTION
    if not (fits and _is_probability(q)):
        alt = _reconstruct(*_sorted_split(p_in, p_out), v_out, v_in, rho_in, rho_out)
        if not fits or np.abs(alt[0]).sum() < np.abs(q).sum():
            split = alt
    q, unitaries, residual = split
    if residual > RECONSTRUCTION:
        raise RuntimeError(
            f"internal error: reconstruction residual {residual:.3e} exceeds "
            f"{RECONSTRUCTION:.1e}"
        )
    return ChannelDecomposition(probabilities=q, unitaries=unitaries, reconstruction_residual=residual)


def to_kraus_like(decomp: ChannelDecomposition) -> KrausLikeForm:
    """Kraus-like pairs K_i = sqrt(|q_i|) U~_i, Kbar_i = sign(q_i) K_i^dag,
    so that sum_i K_i Kbar_i = sum_i q_i U~_i U~_i^dag = identity."""
    q = decomp.probabilities
    signs = np.where(q >= 0, 1.0, -1.0)
    k = np.sqrt(np.abs(q))[:, None, None] * decomp.unitaries
    kbar = signs[:, None, None] * k.conj().swapaxes(1, 2)
    return KrausLikeForm(operators=np.stack((k, kbar), axis=1), signs=signs)


def apply_decomposition(decomp: ChannelDecomposition, rho) -> np.ndarray:
    """Evaluate sum_i q_i U~_i rho U~_i^dag on an arbitrary state."""
    rho = _numeric_array(rho, complex, "state is not a numeric matrix")
    d = decomp.unitaries.shape[1]
    if rho.shape != (d, d):
        raise ValidationError("state dimension mismatch")
    return _unitary_mixture(decomp.probabilities, decomp.unitaries, rho)
