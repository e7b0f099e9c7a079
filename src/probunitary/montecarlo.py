"""Stochastic simulation of the probabilistic-unitary control scheme.

Per step a single uniform draw either applies one of the conjugated
shift unitaries U~_i = V W_i V^dag (probability q_i dt) or lets the
driving Hamiltonian act; ``step`` is that scheme for one dense state.

The ensemble runs as a classical jump process on permutation labels.
The scheme is built for one initial state, so every trajectory starts
at the decomposition's first state V_0 diag(lam0) V_0^dag and stays at
V_k diag(lam0[labels]) V_k^dag: the Hamiltonian only transports the
eigenframe, which the decomposition's frames V_k already carry, and a
jump by the shift W_i permutes the eigenvalues inside the frame.  So
run_ensemble applies no Hamiltonian: each trajectory holds d indices
into lam0, a jump cyclically shifts them, and the mean state and its
standard error follow from the mean and covariance of lam0[labels] over
the trajectories.

The rates q_i(t) do not depend on a trajectory's labels, so its jump
steps form a Bernoulli process with per-step probability p_k = sum_i
q_i dt_k, where dt_k = t_{k+1} - t_k is step k's own spacing on the
decomposition grid, which need not be uniform.  The jumps are sampled
by the waiting-time method (Dalibard, Castin & Molmer):
with the cumulative hazard H_k = -sum_{j<k} log(1 - p_j), a trajectory
alive from step s draws u and jumps at the step k with
H_k <= H_s - log(1 - u) < H_{k+1} (none if k >= n_steps), then draws v
and takes the branch whose interval of [0, p_k) holds v p_k.  This is
the law of ``step``'s per-step scheme: a jump at step k with probability
p_k, independently of the other steps, through branch i with
probability q_i dt_k.  One Generator default_rng(seed) feeds every
round: round r draws the waiting times and then the branch draws of the
trajectories still alive, in ascending trajectory order, so a seed fixes
the ensemble.  Trajectories own no separate streams: nothing replays or
shards a single trajectory, and counter-based per-trajectory streams
cost as much as the rest of the sampler.  On the same jumps, ``step``
and the label process agree to O(dt) at a fixed horizon; the replay
test checks this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .decomposition import DecompositionSeries
from .errors import (
    NegativeRate,
    RefusesToSimulate,
    StepTooLarge,
    ValidationError,
)
from .linalg import cyclic_shift_rows

__all__ = ["SimConfig", "EnsembleResult", "step", "run_ensemble", "convergence_sweep"]


@dataclass(frozen=True)
class SimConfig:
    n_traj: int
    seed: int
    horizon: float

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValidationError("n_traj must be at least 1")
        if not 0 < self.horizon < np.inf:
            raise ValidationError("horizon must be positive and finite")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed {self.seed} outside [0, 2**64)")


@dataclass
class EnsembleResult:
    times: np.ndarray
    mean_rho: np.ndarray                  # (n, d, d) complex
    stderr: np.ndarray                    # (n, d, d) real, per-entry
    trace_distance_to_exact: np.ndarray | None


def _hermitian_propagator(h, dt: float) -> np.ndarray:
    """exp(-i h dt) via eigendecomposition of the Hermitian generator;
    ``h`` may be one (d, d) matrix or a stack of them."""
    evals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * evals * dt)[..., None, :]
    return (vecs * phases) @ vecs.conj().swapaxes(-1, -2)


def _jump_edges(q, dt, tol: Tolerances) -> np.ndarray:
    """Cumulative jump probabilities q_1 dt, q_1 dt + q_2 dt, ... along the
    last axis of q, refusing negative rates and steps whose total
    jump probability reaches 1.  ``dt`` is a scalar, or a column holding
    each row's own spacing."""
    jump_rates = q[..., 1:]
    if np.any(jump_rates < -tol.rate_negativity):
        raise NegativeRate("negative rates cannot be realized by the scheme")
    probabilities = np.clip(jump_rates, 0.0, None) * dt
    total = probabilities.sum(axis=-1).max()
    if total >= 1.0:
        raise StepTooLarge(f"total jump probability {total:.3f} >= 1; refine the time grid")
    return np.cumsum(probabilities, axis=-1)


def _waiting_time_jumps(edges: np.ndarray, seed: int, n_traj: int):
    """Yield the jumps of trajectories 0 .. n_traj - 1 round by round.

    ``edges`` is the (n_steps, d - 1) output of ``_jump_edges``.  Round r
    takes every trajectory's r-th jump; it yields (lanes, steps, branches):
    the trajectories that jump again, the step each jumps in, and the
    branch index into ``edges`` (the jump applies shift branch + 1).  A
    trajectory appears at most once per round, and rounds are in time
    order per trajectory.  All rounds draw from one default_rng(seed):
    round r draws a (2, m) block for its m live lanes, row 0 the waiting
    times and row 1 the branch draws, in ascending trajectory order.
    """
    n_steps, n_branch = edges.shape
    p = edges[:, -1] if n_branch else np.zeros(n_steps)     # d = 1 never jumps
    hazard = np.concatenate(([0.0], np.cumsum(-np.log1p(-p))))
    rng = np.random.default_rng(seed)
    lanes = np.arange(n_traj)
    start = np.zeros(n_traj, dtype=np.intp)
    # take/compress rather than fancy or boolean indexing: several times
    # faster on these shapes, and every round pays for them
    while lanes.size:
        u, v = rng.random((2, lanes.size))
        k = np.searchsorted(hazard, hazard.take(start) - np.log1p(-u), side="right") - 1
        jumps = k < n_steps
        lanes, k, v = (a.compress(jumps) for a in (lanes, k, v))
        inside = edges.take(k, axis=0) <= (v * p.take(k))[:, None]
        branch = np.minimum(inside.sum(axis=1), n_branch - 1)
        yield lanes, k, branch
        start = k + 1


def step(state, h, unitaries, q, dt, draw, tol: Tolerances = DEFAULT_TOLERANCES):
    """Advance one state by one step of the scheme using a uniform draw.

    The draw is partitioned into [0, q_1 dt), [q_1 dt, q_1 dt + q_2 dt),
    ...; a draw in the i-th interval applies unitaries[i], the remainder
    applies the Hamiltonian propagator exp(-i h dt).
    """
    unitaries = np.asarray(unitaries, dtype=complex)
    if unitaries.shape[0] != np.shape(q)[0]:
        raise ValidationError("step needs one unitary per rate")
    edges = _jump_edges(np.asarray(q, dtype=float), dt, tol)
    branch = int(np.searchsorted(edges, draw, side="right"))
    if branch < edges.shape[0]:
        u = unitaries[branch + 1]
    else:
        u = _hermitian_propagator(np.asarray(h, dtype=complex), dt)
    return u @ np.asarray(state, dtype=complex) @ u.conj().T


def _flagged_intervals(decomposition: DecompositionSeries, horizon: float):
    """(first, last) grid time of every contiguous run of flagged
    (negative or singular) grid points up to the horizon."""
    mask = (decomposition.times <= horizon + 1e-12) & (
        decomposition.negative_flags | decomposition.singular_flags
    )
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    times = decomposition.times
    return [(float(times[a]), float(times[b - 1])) for a, b in edges.reshape(-1, 2)]


def run_ensemble(
    config: SimConfig,
    decomposition: DecompositionSeries,
    exact=None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> EnsembleResult:
    """Average an ensemble of stochastic trajectories of the scheme.

    The scheme is built for one initial state on one grid, and both come
    from the decomposition: every trajectory starts at V_0 diag(lam0)
    V_0^dag from ``decomposition.frames``, and step k runs from times[k]
    to times[k + 1] with its own spacing, so a non-uniform grid is
    simulated as given and StepTooLarge is judged step by step.
    ``exact`` is an optional list of TrajectorySample on the same grid,
    at least up to the horizon, used for the per-time trace distance.
    """
    times = decomposition.times
    n_steps = int(np.searchsorted(times, config.horizon + 1e-12)) - 1
    if n_steps < 1:
        raise ValidationError("horizon shorter than one decomposition step")
    if exact is not None and len(exact) < n_steps + 1:
        raise ValidationError(f"exact has {len(exact)} samples, the horizon needs {n_steps + 1}")
    frames = decomposition.frames
    lam0 = frames.eigenvalues[0]
    flagged = _flagged_intervals(decomposition, config.horizon)
    if flagged:
        spans = ", ".join(f"[{a:g}, {b:g}]" for a, b in flagged)
        raise RefusesToSimulate(
            f"decomposition flagged negative/singular on {spans}",
            t_start=flagged[0][0],
            t_end=flagged[0][1],
        )

    d, n = decomposition.dim, config.n_traj
    # midpoint rates of every interval, shared by all trajectories
    q_mid = 0.5 * (decomposition.rates[:n_steps] + decomposition.rates[1 : n_steps + 1])
    spacing = np.diff(times[: n_steps + 1])
    edges = _jump_edges(q_mid, spacing[:, None], tol)   # (n_steps, d-1)

    # labels[b, j]: the index into lam0 of the eigenvalue trajectory j
    # holds on frame branch b; a jump by shift i permutes trajectory j's
    # column by row i of the cyclic index rows.  Only jumps change the
    # values y = lam0[labels] - lam0, so the per-step sum and second moment
    # of y are cumsums of per-jump deltas, recorded at the step after the
    # jump; centring at lam0 keeps both exactly 0 until the first jump
    rows = cyclic_shift_rows(d)
    labels = np.repeat(np.arange(d)[:, None], n, axis=1)
    # per step: the d sums of y, then the d * d entries of sum y y^T
    width = d + d * d
    deltas = np.zeros((n_steps + 1) * width)
    for lanes, k, branch in _waiting_time_jumps(edges, config.seed, n):
        flat = lanes + n * np.arange(d)[:, None]       # labels[:, lanes]
        old = labels.take(flat)
        new = np.take_along_axis(old, rows.take(branch + 1, axis=0).T, axis=0)
        labels.put(flat, new)
        y_old, y_new = lam0.take(old) - lam0[:, None], lam0.take(new) - lam0[:, None]
        square = y_new[:, None] * y_new - y_old[:, None] * y_old
        delta = np.concatenate((y_new - y_old, square.reshape(d * d, -1)))
        at = (k + 1) * width + np.arange(width)[:, None]
        deltas += np.bincount(at.ravel(), delta.ravel(), deltas.size)
    moments = np.cumsum(deltas.reshape(n_steps + 1, width), axis=0)
    y_sum = moments[:, :d]
    # complex, so that sums / n is numpy's complex division: the means of
    # the amplitude-damping model then equal counts / n bit for bit
    sums = (n * lam0 + y_sum).astype(complex)
    scatter = moments[:, d:].reshape(-1, d, d) - y_sum[:, :, None] * y_sum[:, None, :] / n

    # entry (a, b) of V diag(x) V^dag is linear in x with coefficients
    # c_i = V[a, i] conj(V[b, i]), so its variance is c^T cov(x) conj(c)
    v = frames.eigenvectors[: n_steps + 1]
    mean = np.einsum("kai,ki,kbi->kab", v, sums / n, v.conj())
    outer = v[..., :, None] * v.conj()[..., None, :]     # V[a, i] conj(V[a, j])
    var = np.einsum("kaij,kij,kbij->kab", outer, scatter, outer.conj()).real
    err = np.sqrt(np.clip(var, 0.0, None) / (n * max(n - 1, 1)))

    tdist = None
    if exact is not None:
        rhos = np.stack([np.asarray(s.rho, dtype=complex) for s in exact[: n_steps + 1]])
        tdist = 0.5 * np.abs(np.linalg.eigvalsh(mean - rhos)).sum(axis=1)

    return EnsembleResult(
        times=times[: n_steps + 1].copy(),
        mean_rho=mean,
        stderr=err,
        trace_distance_to_exact=tdist,
    )


def convergence_sweep(make_problem, seed: int, horizon: float, dts, n_trajs):
    """Empirical bias/noise table over step sizes and ensemble sizes.

    ``make_problem(dt)`` must return (decomposition, exact) on a grid
    with spacing dt covering the horizon.  Returns a list of row dicts
    with the max trace distance and the max aggregate standard error for
    every (dt, n_traj) pair.
    """
    rows = []
    for dt in dts:
        decomposition, exact = make_problem(dt)
        for n in n_trajs:
            config = SimConfig(n_traj=n, seed=seed, horizon=horizon)
            result = run_ensemble(config, decomposition, exact=exact)
            rows.append(
                {
                    "dt": dt,
                    "n_traj": n,
                    "max_trace_distance": float(
                        result.trace_distance_to_exact.max()
                    ),
                    "max_stderr": float(
                        np.linalg.norm(
                            result.stderr.reshape(result.stderr.shape[0], -1), axis=1
                        ).max()
                    ),
                }
            )
    return rows
