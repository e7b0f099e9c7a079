"""Dense complex linear algebra primitives.

The one guard that turns a caller's value into a numeric array,
density-matrix validation with the package's one eigendecomposition
convention (descending eigenvalues, phase-fixed eigenvectors), the index
rows of the cyclic shifts and the conjugated permutations that every jump
unitary is built from, the unitary mixture, the circulant rate solve for
one row or a whole time grid, the minimum-cost assignment that pairs
eigenbranches, and the matrix exponential.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from .config import DEGENERACY_GAP, HERMITICITY, PSD, SINGULAR_SYMBOL, TRACE
from .errors import ValidationError

__all__ = [
    "validate_density_matrix",
    "cyclic_shift_rows",
    "conjugated_permutations",
    "rate_system_matrix",
    "solve_circulant_rates",
    "min_cost_assignment",
    "expm",
]


def _numeric_array(value, dtype, message: str) -> np.ndarray:
    """np.asarray(value, dtype), or ValidationError(message) when that
    conversion raises or gives an array that is not of numbers (dtype
    None keeps any bool, integer, float or complex dtype).  Every public
    entry point that takes an array converts it here first; io's readers
    keep their own JSON rules."""
    try:
        arr = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(message) from exc
    if arr.dtype.kind not in "biufc":
        raise ValidationError(message)
    return arr


def _finite_real(value) -> bool:
    """A real number, not a bool, within the float range: an int beyond
    it is below inf but not below the largest float."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and -sys.float_info.max <= value <= sys.float_info.max


def _shown(value) -> str:
    """repr of a refused value for its message; an int beyond the float
    range reads "beyond the float range", as repr refuses ints of more
    than 4300 digits."""
    big = isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max
    return "beyond the float range" if big else repr(value)


def validate_density_matrix(rho) -> np.ndarray:
    """Check finiteness, hermiticity, unit trace and positivity of a
    density matrix (d, d) or of every matrix of a stack (n, d, d).

    Returns the validated complex array; raises ValidationError otherwise,
    prefixed "entry k: " with the first index of a stack that fails the
    first violated check.  Positivity is judged on one eigh per matrix;
    _validated_eigh returns that eigendecomposition as well.
    """
    return _validated_eigh(rho)[0]


def _validated_eigh(rho):
    """validate_density_matrix's checks and its eigendecomposition: the
    validated complex array, its eigenvalues (..., d) and eigenvectors
    (..., d, d), both in descending eigenvalue order.

    This is the package's one eigen convention: equal eigenvalues keep
    eigh's order reversed, and consumers that emit eigenvectors apply
    _phase_fix to them."""
    rho = _numeric_array(rho, complex, "density matrix is not a numeric array")
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2]:
        raise ValidationError(
            f"expected a square matrix or a stack of them, got shape {rho.shape}"
        )
    stack = rho.reshape(-1, *rho.shape[-2:])

    def check(bad, message):
        if bad.any():
            k = int(np.argmax(bad))
            where = f"entry {k}: " if rho.ndim == 3 else ""
            raise ValidationError(where + message(k))

    check(~np.isfinite(stack).all(axis=(1, 2)), lambda k: "matrix contains NaN or Inf entries")
    herm = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    check(herm > HERMITICITY,
          lambda k: f"density matrix not Hermitian: deviation {herm[k]:.3e}")
    tr = np.einsum("kii->k", stack)
    check(np.abs(tr - 1.0) > TRACE,
          lambda k: f"density matrix trace {tr[k]} differs from 1")
    evals, evecs = np.linalg.eigh(rho)
    low = evals.reshape(-1, rho.shape[-1]).min(axis=1)
    check(low < -PSD,
          lambda k: f"density matrix not positive semidefinite: min eigenvalue {low[k]:.3e}")
    return rho, evals[..., ::-1], evecs[..., ::-1]


def _named_eigh(name, rho):
    """_validated_eigh, its ValidationError prefixed with ``name``."""
    try:
        return _validated_eigh(rho)
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component (|v| > 1e-12)
    is real positive; a column with no significant component is returned
    unchanged.  All columns in one masked broadcast, on a C-ordered copy."""
    significant = np.abs(vecs) > 1e-12
    lead = vecs[significant.argmax(axis=0), np.arange(vecs.shape[1])]
    fixed = vecs.copy()
    np.multiply(fixed, np.exp(-1j * np.angle(lead)), out=fixed, where=significant.any(axis=0))
    return fixed


def _degenerate_clusters(evals) -> list[list[int]]:
    """Indices of evals in descending order (ties in index order), split
    into the runs whose adjacent gaps are below DEGENERACY_GAP.
    Plain Python: d is small, and numpy's per-call cost would dominate."""
    vals = np.asarray(evals).tolist()
    clusters = []
    for i in sorted(range(len(vals)), key=vals.__getitem__, reverse=True):
        if clusters and vals[clusters[-1][-1]] - vals[i] < DEGENERACY_GAP:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def cyclic_shift_rows(d: int) -> np.ndarray:
    """Index rows of the cyclic shifts: row i is (k + i) mod d over k, the
    permutation of the shift sum_k |k><(k+i) mod d|.  ``d`` must be an
    integer, not a bool, of at least 1 (ValidationError otherwise)."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise ValidationError(f"d must be an integer of at least 1, got {d!r}")
    return (np.arange(d)[:, None] + np.arange(d)) % d


def conjugated_permutations(v_out, v_in, perms) -> np.ndarray:
    """U_n = V_out P_n V_in^dag with P_n = sum_k |k><perms[n, k]|, stacked
    (n, d, d): U_n maps column perms[n, k] of V_in to column k of V_out.
    V_out and V_in are square (d, d) and perms holds integer rows (n, d)
    of entries in [0, d); ValidationError otherwise."""
    v_out = _numeric_array(v_out, None, "v_out is not a numeric matrix")
    v_in = _numeric_array(v_in, None, "v_in is not a numeric matrix")
    perms = _numeric_array(perms, None, "perms is not a numeric array")
    d = v_in.shape[-1] if v_in.ndim else 0
    if v_in.shape != (d, d) or v_out.shape != (d, d):
        raise ValidationError(f"v_out and v_in must be square matrices of one size, "
                              f"got shapes {v_out.shape} and {v_in.shape}")
    if perms.dtype.kind not in "iu" or perms.ndim != 2 or perms.shape[1] != d:
        raise ValidationError(f"perms must be integer rows of {d} indices, "
                              f"got {perms.dtype} of shape {perms.shape}")
    if perms.min(initial=0) < 0 or perms.max(initial=-1) >= d:
        raise ValidationError(f"perms entries must lie in [0, {d})")
    return np.einsum("ak,bnk->nab", v_out, v_in[:, perms].conj())


def _unitary_mixture(q, unitaries, rho) -> np.ndarray:
    """sum_i q_i U_i rho U_i^dag, broadcast over the leading axes of q, U and rho."""
    return np.einsum("...i,...iab,...bc,...idc->...ad", q, unitaries, rho, unitaries.conj())


def rate_system_matrix(p) -> np.ndarray:
    """Coefficient matrix of the rate system: M[k, i] = p[(k + i) mod d].

    Column i holds the diagonal of U_i diag(p) U_i^dag, the cyclic
    shift of p by i; M is the doubly stochastic circulant-type matrix
    the rates solve against.  ``p`` must be 1-D (ValidationError otherwise).
    """
    p = _numeric_array(p, float, "p is not a numeric array")
    if p.ndim != 1:
        raise ValidationError(f"p must be a 1-D array, got shape {p.shape}")
    return p[cyclic_shift_rows(p.shape[0])]


def solve_circulant_rates(p, f):
    """Solve the rate system M v = f, M[k, i] = p[(k + i) mod d] (see
    rate_system_matrix), for one row p, f (d,) or for every row of a grid
    (n, d), by DFT diagonalization on the last axis: M is the convolution
    circulant of p up to an index reversal.

    The unknowns are v = (-q0, q1, ...), so q0 is the total rate.  Returns
    (q, condition) with the input's leading shape: q (..., d) and the
    condition number (...) of M, the ratio of the largest to the smallest
    magnitude of its symbol.  A row whose symbol has a magnitude at or
    below SINGULAR_SYMBOL times its largest is singular: its condition is
    inf, and its q is the minimum-norm (pseudoinverse) solution, which
    drops any component of f outside the range of M; it does not raise.
    A non-finite p or f, or a p that is not a probability vector, raises
    ValidationError.
    """
    p = _numeric_array(p, float, "p is not a numeric array")
    f = _numeric_array(f, float, "f is not a numeric array")
    if p.ndim not in (1, 2) or f.shape != p.shape or not p.size:
        raise ValidationError(f"inconsistent dimensions: p {p.shape}, f {f.shape}")
    if not np.all(np.isfinite(p)):
        raise ValidationError("p contains NaN or Inf entries")
    if not np.all(np.isfinite(f)):
        raise ValidationError("f contains NaN or Inf entries")
    if p.min() < -1e-8 or p.max() > 1 + 1e-8 or np.abs(p.sum(axis=-1) - 1).max() > 1e-8:
        raise ValidationError("p is not a probability vector within tolerance")

    symbol = np.fft.fft(p, axis=-1)
    fhat = np.fft.fft(f, axis=-1)
    mags = np.abs(symbol)
    top = mags.max(axis=-1)
    alive = mags > SINGULAR_SYMBOL * top[..., None]
    vhat = np.where(alive, fhat / np.where(alive, symbol, 1.0), 0.0)
    condition = np.full(top.shape, np.inf)
    np.divide(top, mags.min(axis=-1), out=condition, where=alive.all(axis=-1))

    w = np.fft.ifft(vhat, axis=-1).real
    # undo the index reversal (fixes index 0, swaps i and d-i)
    q = w[..., (-np.arange(p.shape[-1])) % p.shape[-1]]
    q[..., 0] = -q[..., 0]
    return q, condition[()]


def min_cost_assignment(cost):
    """Exact minimum-cost assignment of a finite square cost matrix (d, d):
    returns (rows, cols), rows = arange(d), minimising sum(cost[rows, cols]),
    as scipy's linear_sum_assignment does.

    The O(d^3) shortest-augmenting-path method of Jonker & Volgenant
    (Computing 38, 1987) in Crouse's form (IEEE TAES 52, 2016), the one
    scipy follows, with the same dual updates: row r adds one Dijkstra search
    over reduced costs from r to a free column.  A tie in that search goes
    to the first column in index order.  Plain Python over cost.tolist():
    the callers solve d <= 16, where numpy's per-call cost would dominate.
    Raises ValidationError for a non-numeric, non-square or non-finite cost.
    """
    c = _numeric_array(cost, float, "assignment cost is not a numeric matrix")
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValidationError(f"assignment cost must be a square matrix, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValidationError("assignment cost contains NaN or Inf entries")
    rows, d = c.tolist(), c.shape[0]
    u, v = [0.0] * d, [0.0] * d
    col4row, row4col = [-1] * d, [-1] * d
    for first in range(d):
        dist, path = [math.inf] * d, [-1] * d
        free, seen_rows, seen_cols = list(range(d)), [], []
        i, low = first, 0.0
        while True:
            seen_rows.append(i)
            ui, ci, best, at = u[i], rows[i], math.inf, -1
            for n, j in enumerate(free):
                r = low + ci[j] - ui - v[j]
                if r < dist[j]:
                    dist[j], path[j] = r, i
                if dist[j] < best:
                    best, at = dist[j], n
            low = best
            j = free.pop(at)
            seen_cols.append(j)
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[first] += low
        for row in seen_rows[1:]:
            u[row] += low - dist[col4row[row]]
        for col in seen_cols:
            v[col] -= low - dist[col]
        while True:  # flip the path from the free column j back to row first
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == first:
                break
    return np.arange(d), np.array(col4row, dtype=np.intp)


# Padé-13 coefficients b_k = C(13, k) (26 - k)! / 26!; b_0 = 1 keeps expm(0) exactly I
_PADE13 = [math.comb(13, k) / math.perm(26, k) for k in range(14)]


def expm(a) -> np.ndarray:
    """exp(a) of a square matrix or of each matrix of a stack (..., n, n):
    the degree-13 Padé approximant with scaling and squaring (Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179, 2005, Algorithm 2.3), each matrix scaled
    by its own power of two to a 1-norm of at most theta_13 = 5.37 (its
    Table 2.3).  Raises ValidationError on a non-numeric, non-square or
    non-finite input."""
    a = _numeric_array(a, None, "expm needs a numeric matrix")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"expm needs a square matrix or a stack of them, got shape {a.shape}")
    x = a.reshape(-1, *a.shape[-2:]).astype(np.result_type(a, float))
    norm = np.abs(x).sum(axis=1).max(axis=1, initial=0.0)
    if not np.isfinite(norm).all():
        raise ValidationError("expm needs a matrix with a finite 1-norm")
    s = np.ceil(np.log2(np.maximum(norm / 5.371920351148152, 1.0))).astype(int)
    x /= 2.0 ** s[:, None, None]
    b, eye = _PADE13, np.eye(a.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x2 @ x4
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for i in range(s.max(initial=0)):  # square each matrix s times
        r[s > i] = r[s > i] @ r[s > i]
    return r.reshape(a.shape)
