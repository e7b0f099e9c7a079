"""Dense complex linear algebra primitives.

Hermitian eigendecomposition with a deterministic ordering convention,
the index rows of the cyclic shifts and the conjugated permutations that
every jump unitary is built from, and the circulant rate solver with its
singularity classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ValidationError

__all__ = [
    "Spectrum",
    "RateSolveResult",
    "validate_density_matrix",
    "hermitian_eigendecomposition",
    "cyclic_shift_rows",
    "conjugated_permutations",
    "rate_system_matrix",
    "solve_circulant_rates",
    "classify_circulant_singularity",
]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues and a phase-fixed eigenvector matrix.

    Columns of ``eigenvectors`` are the eigenvectors in the same order as
    ``eigenvalues``; see hermitian_eigendecomposition for that order.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass
class RateSolveResult:
    """Solution of the rate system.

    ``q`` follows the convention of the requested mode: q[0] is the total
    rate (continuous) or the stay probability (channel); q[1:] belong to
    the nontrivial cyclic shifts.  On a singular system ``q`` is the
    minimum-norm solution, which drops any component of f outside the
    system's range; the caller checks what q reconstructs.
    """

    q: np.ndarray
    singular: bool
    condition_estimate: float
    block_structure: str | None = None


def _as_complex_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains NaN or Inf entries")
    return m


def validate_density_matrix(rho, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Check finiteness, hermiticity, unit trace and positivity of a
    density matrix (d, d) or of every matrix of a stack (n, d, d).

    Returns the validated complex array; raises ValidationError otherwise,
    prefixed "entry k: " with the first index of a stack that fails the
    first violated check.  Positivity is judged on one eigh per matrix;
    _validated_eigh returns that eigendecomposition as well.
    """
    return _validated_eigh(rho, tol)[0]


def _validated_eigh(rho, tol: Tolerances):
    """validate_density_matrix's checks and its eigendecomposition: the
    validated complex array, its eigenvalues (..., d) and eigenvectors
    (..., d, d), both in descending eigenvalue order."""
    rho = np.asarray(rho, dtype=complex)
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
    check(herm > tol.hermiticity,
          lambda k: f"density matrix not Hermitian: deviation {herm[k]:.3e}")
    tr = np.einsum("kii->k", stack)
    check(np.abs(tr - 1.0) > tol.trace,
          lambda k: f"density matrix trace {tr[k]} differs from 1")
    evals, evecs = np.linalg.eigh(rho)
    low = evals.reshape(-1, rho.shape[-1]).min(axis=1)
    check(low < -tol.psd,
          lambda k: f"density matrix not positive semidefinite: min eigenvalue {low[k]:.3e}")
    return rho, evals[..., ::-1], evecs[..., ::-1]


def _phase_fix(vecs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate each column so its first significant component (|v| > tol)
    is real positive; a column with no significant component is returned
    unchanged.  All columns in one masked broadcast, on a C-ordered copy."""
    significant = np.abs(vecs) > tol
    lead = vecs[significant.argmax(axis=0), np.arange(vecs.shape[1])]
    fixed = vecs.copy()
    np.multiply(fixed, np.exp(-1j * np.angle(lead)), out=fixed, where=significant.any(axis=0))
    return fixed


def hermitian_eigendecomposition(
    m, tol: Tolerances = DEFAULT_TOLERANCES
) -> Spectrum:
    """Eigendecompose a Hermitian matrix with a deterministic convention.

    Each eigenvector is phase-fixed (first significant component real
    positive).  Eigenpairs are in descending eigenvalue order, except
    inside a numerically degenerate cluster (a run of eigenvalues whose
    gaps are below ``tol.degeneracy_gap``): there the pairs are ordered by
    descending lexicographic key on the eigenvector's (real, imag)
    entries, so the output is reproducible but the cluster's eigenvalues
    need not be sorted.  Consumers that need sorted values re-sort them.
    """
    m = _as_complex_matrix(m)
    herm = np.max(np.abs(m - m.conj().T))
    if herm > tol.hermiticity:
        raise ValidationError(f"matrix not Hermitian: deviation {herm:.3e}")
    evals, vecs = np.linalg.eigh(m)
    return _canonical_spectrum(evals[::-1], vecs[:, ::-1], tol)


def _canonical_spectrum(evals, vecs, tol: Tolerances) -> Spectrum:
    """hermitian_eigendecomposition's convention applied to eigenpairs
    already in descending eigenvalue order."""
    evals = np.array(evals, dtype=float)
    vecs = _phase_fix(vecs)
    # deterministic ordering inside (numerically) degenerate clusters
    for cluster in _degenerate_clusters(evals, tol):
        if len(cluster) > 1:
            order = sorted(cluster, reverse=True, key=lambda j: tuple(
                x for ri in vecs[:, j] for x in (ri.real, ri.imag)))
            vecs[:, cluster] = vecs[:, order]
            evals[cluster] = evals[order]
    return Spectrum(eigenvalues=evals, eigenvectors=vecs)


def _degenerate_clusters(evals, tol: Tolerances) -> list[list[int]]:
    """Indices of evals in descending order (ties in index order), split
    into the runs whose adjacent gaps are below ``tol.degeneracy_gap``.
    Plain Python: d is small, and numpy's per-call cost would dominate."""
    vals = np.asarray(evals).tolist()
    clusters = []
    for i in sorted(range(len(vals)), key=vals.__getitem__, reverse=True):
        if clusters and vals[clusters[-1][-1]] - vals[i] < tol.degeneracy_gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def cyclic_shift_rows(d: int) -> np.ndarray:
    """Index rows of the cyclic shifts: row i is (k + i) mod d over k, the
    permutation of the shift sum_k |k><(k+i) mod d|."""
    return (np.arange(d)[:, None] + np.arange(d)) % d


def conjugated_permutations(v_out, v_in, perms) -> np.ndarray:
    """U_n = V_out P_n V_in^dag with P_n = sum_k |k><perms[n, k]|, stacked
    (n, d, d): U_n maps column perms[n, k] of V_in to column k of V_out."""
    return np.einsum("ak,bnk->nab", v_out, np.asarray(v_in)[:, perms].conj())


def rate_system_matrix(p) -> np.ndarray:
    """Coefficient matrix of the rate system: M[k, i] = p[(k + i) mod d].

    Column i holds the diagonal of U_i diag(p) U_i^dag, the cyclic
    shift of p by i; M is the doubly stochastic circulant-type matrix
    the rates solve against.
    """
    p = np.asarray(p, dtype=float)
    return p[cyclic_shift_rows(p.shape[0])]


def classify_circulant_singularity(
    p, tol: float | None = None
) -> tuple[bool, int | None, str]:
    """Decide singularity of circ(p) for a sorted probability vector.

    The circulant is singular exactly when p splits into consecutive
    constant blocks of a common length b >= 2 dividing d.  Returns
    (singular, block_length, description) with the smallest such b.
    """
    p = np.asarray(p, dtype=float)
    if tol is None:
        tol = DEFAULT_TOLERANCES.spectrum_block
    d = p.shape[0]
    for b in range(2, d + 1):
        if d % b:
            continue
        blocks = p.reshape(d // b, b)
        if np.all(blocks.max(axis=1) - blocks.min(axis=1) <= tol):
            desc = f"{d // b} constant block(s) of length {b}"
            return True, b, desc
    return False, None, "no constant block pattern"


def _block_report(p, tol: Tolerances) -> str:
    singular, _, desc = classify_circulant_singularity(
        np.sort(np.asarray(p, dtype=float))[::-1], tol.spectrum_block
    )
    return desc if singular else "spectrum nearly block-constant"


def _solve_circulant_batch(p, f, mode: str, tol: Tolerances):
    """Solve M v = f with M[k, i] = p[(k + i) mod d] for every row of the
    (n, d) arrays p and f by DFT diagonalization.

    M (see rate_system_matrix) is the convolution circulant of p up to an
    index reversal, so the DFT still diagonalizes the solve.  Returns
    per-row arrays (q, singular, condition): q in the convention of
    ``mode`` (see solve_circulant_rates), minimum-norm on singular rows;
    condition inf on singular rows.
    """
    p = np.asarray(p, dtype=float)
    f = np.asarray(f, dtype=float)
    if p.ndim != 2 or f.shape != p.shape:
        raise ValidationError(f"inconsistent dimensions: p {p.shape}, f {f.shape}")
    if mode not in ("continuous", "channel"):
        raise ValidationError(f"unknown mode {mode!r}")
    if not np.all(np.isfinite(f)):
        raise ValidationError("f contains NaN or Inf entries")
    if p.min() < -1e-8 or p.max() > 1 + 1e-8 or np.abs(p.sum(axis=1) - 1).max() > 1e-8:
        raise ValidationError("p is not a probability vector within tolerance")

    symbol = np.fft.fft(p, axis=1)
    fhat = np.fft.fft(f, axis=1)
    mags = np.abs(symbol)
    top = mags.max(axis=1)
    alive = mags > tol.singular_symbol * top[:, None]
    singular = ~alive.all(axis=1)
    vhat = np.where(alive, fhat / np.where(alive, symbol, 1.0), 0.0)
    condition = np.full(p.shape[0], np.inf)
    np.divide(top, mags.min(axis=1), out=condition, where=~singular)

    w = np.fft.ifft(vhat, axis=1).real
    # undo the index reversal (fixes index 0, swaps i and d-i)
    q = w[:, (-np.arange(p.shape[1])) % p.shape[1]]
    if mode == "continuous":
        q[:, 0] = -q[:, 0]
    else:
        q[:, 0] += 1.0
    return q, singular, condition


def solve_circulant_rates(
    p, f, mode: str = "continuous", tol: Tolerances = DEFAULT_TOLERANCES
) -> RateSolveResult:
    """Solve the circulant rate system M v = f for one p, f by DFT
    diagonalization; M[k, i] = p[(k + i) mod d] (see rate_system_matrix).

    ``mode`` selects the sign convention of the first unknown:
    "continuous" has v = (-q0, q1, ...), "channel" has v = (q0 - 1, q1, ...).
    When M is singular the minimum-norm (pseudoinverse) solution, which
    drops any component of f outside the range of M, is returned with the
    singular flag and the block structure set; it does not raise.
    """
    q, singular, condition = _solve_circulant_batch([p], [f], mode, tol)
    return RateSolveResult(
        q=q[0], singular=bool(singular[0]), condition_estimate=float(condition[0]),
        block_structure=_block_report(p, tol) if singular[0] else None,
    )
