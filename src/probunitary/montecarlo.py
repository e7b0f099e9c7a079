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
the trajectories.  The ensemble spans the decomposition's whole grid,
and its error is measured in the frame: the mean V_k diag(xbar_k)
V_k^dag and the decomposed state V_k diag(lam_k) V_k^dag are at trace
distance 1/2 sum_i |xbar_k,i - lam_k,i|.

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

run_ensemble refuses a decomposition with any flagged interval
(DecompositionSeries.flagged_intervals) by RefusesToSimulate, naming
them all.  The jump edges of ``step`` and of the ensemble refuse
non-finite rates by ValidationError, negative ones by NegativeRate, and
a step whose total jump probability reaches 1 by StepTooLarge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RATE_NEGATIVITY
from .decomposition import DecompositionSeries
from .errors import (
    NegativeRate,
    RefusesToSimulate,
    StepTooLarge,
    ValidationError,
)
from .linalg import _finite_real, _numeric_array, _shown, cyclic_shift_rows, expm

__all__ = ["SimConfig", "EnsembleResult", "step", "run_ensemble", "convergence_sweep"]


@dataclass(frozen=True)
class SimConfig:
    n_traj: int
    seed: int

    def __post_init__(self):
        for name in ("n_traj", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.n_traj <= np.iinfo(np.intp).max:
            raise ValidationError(f"n_traj must be at least 1 and fit an intp, got {self.n_traj}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed {self.seed} outside [0, 2**64)")


@dataclass
class EnsembleResult:
    times: np.ndarray
    mean_rho: np.ndarray                  # (n, d, d) complex
    stderr: np.ndarray                    # (n, d, d) real, per-entry
    trace_distance_to_exact: np.ndarray   # (n,) to the decomposed states


def _jump_edges(q, dt) -> np.ndarray:
    """Cumulative jump probabilities q_1 dt, q_1 dt + q_2 dt, ... along the
    last axis of q, refusing non-finite rates (ValidationError), negative
    ones and steps whose total jump probability reaches 1.  ``dt`` is a
    scalar, or a column holding each row's own spacing."""
    jump_rates = q[..., 1:]
    if not np.isfinite(jump_rates).all():
        raise ValidationError("jump rates contain NaN or Inf entries")
    if np.any(jump_rates < -RATE_NEGATIVITY):
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


def step(state, h, unitaries, q, dt, draw):
    """Advance one state by one step of the scheme using a uniform draw.

    The draw is partitioned into [0, q_1 dt), [q_1 dt, q_1 dt + q_2 dt),
    ...; a draw in the i-th interval applies unitaries[i], the remainder
    applies the Hamiltonian propagator exp(-i h dt), from linalg.expm.
    ``dt`` must be a finite positive real number and ``draw`` a real
    number in [0, 1), neither a bool (ValidationError otherwise).
    """
    if not (_finite_real(dt) and dt > 0):
        raise ValidationError(f"step needs a finite positive dt, got {_shown(dt)}")
    if not (_finite_real(draw) and 0 <= draw < 1):
        raise ValidationError(f"step needs a uniform draw in [0, 1), got {_shown(draw)}")
    state, h, unitaries = (_numeric_array(a, complex, f"step: {name} is not a numeric array")
                           for a, name in ((state, "state"), (h, "h"), (unitaries, "unitaries")))
    q = _numeric_array(q, float, "step: q is not a numeric array")
    d = state.shape[-1] if state.ndim else 0
    if q.ndim != 1 or state.shape != (d, d) or h.shape != (d, d) or unitaries.shape != (q.size, d, d):
        raise ValidationError("step needs a square state, an h of its shape "
                              "and one unitary of that shape per rate")
    edges = _jump_edges(q, dt)
    branch = int(np.searchsorted(edges, draw, side="right"))
    jumped = branch < edges.shape[0]
    u = unitaries[branch + 1] if jumped else expm(-1j * dt * h)
    return u @ state @ u.conj().T


def run_ensemble(config: SimConfig, decomposition: DecompositionSeries) -> EnsembleResult:
    """Average an ensemble of stochastic trajectories of the scheme.

    The scheme is built for one initial state on one grid, and both come
    from the decomposition: every trajectory starts at V_0 diag(lam0)
    V_0^dag from ``decomposition.frames``, and step k runs from times[k]
    to times[k + 1] with its own spacing, over the whole grid, so a
    non-uniform grid is simulated as given and StepTooLarge is judged
    step by step.  The mean at step k, V_k diag(xbar_k) V_k^dag, and the
    decomposed state V_k diag(lam_k) V_k^dag share the frame V_k, so the
    trace distance between them is 1/2 sum_i |xbar_k,i - lam_k,i|.
    """
    times = decomposition.times
    frames = decomposition.frames
    lam0 = frames.eigenvalues[0]
    flagged = decomposition.flagged_intervals
    if flagged:
        spans = ", ".join(f"[{a:g}, {b:g}]" for a, b in flagged)
        raise RefusesToSimulate(
            f"decomposition flagged negative/singular on {spans}",
            t_start=flagged[0][0],
            t_end=flagged[0][1],
        )

    d, n = decomposition.dim, config.n_traj
    if d > np.iinfo(np.intp).max // np.dtype(np.intp).itemsize // n:
        raise ValidationError(f"d = {d} labels for each of n_traj = {n} trajectories do not fit an intp array")
    # midpoint rates of every interval, shared by all trajectories
    q_mid = 0.5 * (decomposition.rates[:-1] + decomposition.rates[1:])
    edges = _jump_edges(q_mid, np.diff(times)[:, None])   # (n_steps, d-1)

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
    deltas = np.zeros(len(times) * width)
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
    moments = np.cumsum(deltas.reshape(-1, width), axis=0)
    y_sum = moments[:, :d]
    # complex, so that sums / n is numpy's complex division: the means of
    # the amplitude-damping model then equal counts / n bit for bit
    sums = (n * lam0 + y_sum).astype(complex)
    scatter = moments[:, d:].reshape(-1, d, d) - y_sum[:, :, None] * y_sum[:, None, :] / n

    # entry (a, b) of V diag(x) V^dag is linear in x with coefficients
    # c_i = V[a, i] conj(V[b, i]), so its variance is c^T cov(x) conj(c)
    xbar = sums / n
    v = frames.eigenvectors
    mean = np.einsum("kai,ki,kbi->kab", v, xbar, v.conj())
    outer = v[..., :, None] * v.conj()[..., None, :]     # V[a, i] conj(V[a, j])
    var = np.einsum("kaij,kij,kbij->kab", outer, scatter, outer.conj()).real
    err = np.sqrt(np.clip(var, 0.0, None) / (n * max(n - 1, 1)))

    return EnsembleResult(
        times=times.copy(),
        mean_rho=mean,
        stderr=err,
        trace_distance_to_exact=0.5 * np.abs(xbar - frames.eigenvalues).sum(axis=1),
    )


def convergence_sweep(make_problem, seed: int, dts, n_trajs):
    """Empirical bias/noise table over step sizes and ensemble sizes.

    ``make_problem(dt)`` must return the decomposition on a grid with
    spacing dt.  Returns a list of row dicts with the max trace distance
    and the max aggregate standard error for every (dt, n_traj) pair.
    """
    rows = []
    for dt in dts:
        decomposition = make_problem(dt)
        for n in n_trajs:
            result = run_ensemble(SimConfig(n_traj=n, seed=seed), decomposition)
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
