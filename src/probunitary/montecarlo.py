"""Stochastic simulation of the probabilistic-unitary control scheme.

Per step a single uniform draw either applies one of the conjugated
shift unitaries (probability q_i dt) or the Hamiltonian propagator
exp(-i H dt).  Every trajectory owns a counter-based RNG stream keyed by
(seed, trajectory index), so the ensemble mean is bit-identical under
any parallel schedule.

The ensemble is held as one (d, d, n_traj) array, trajectory axis last.
Each step conjugates every state by the propagator at once and then
redoes only the few trajectories that jumped (about q dt of them), the
wavefunction Monte Carlo pattern of Dalibard, Castin & Molmer (PRL 68,
580, 1992).  A state's update never depends on the batch it is in, so
``step`` is exactly one trajectory of ``run_ensemble``.  Compared with
the earlier per-branch einsum kernel, the means and standard errors are
reduced along the trajectory axis in numpy's pairwise order: the means
of the amplitude-damping model are bit-identical (every state there is
exactly |0><0| or |1><1|, so every partial sum is exact), its standard
errors move in their last digits, and generic means move at the
rounding level (up to 4e-14 after 200 steps of a random d = 2 model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .decomposition import DecompositionSeries, build_tilde_unitaries
from .errors import (
    NegativeRate,
    RefusesToSimulate,
    StepTooLarge,
    ValidationError,
)

__all__ = ["SimConfig", "EnsembleResult", "step", "run_ensemble", "convergence_sweep"]


@dataclass(frozen=True)
class SimConfig:
    dt: float
    n_traj: int
    seed: int
    horizon: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.n_traj < 1:
            raise ValidationError("n_traj must be at least 1")
        if self.horizon <= 0:
            raise ValidationError("horizon must be positive")
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


def _jump_edges(q, dt: float, tol: Tolerances) -> np.ndarray:
    """Cumulative jump probabilities q_1 dt, q_1 dt + q_2 dt, ... along the
    last axis of q, refusing negative rates and steps whose total
    jump probability reaches 1."""
    jump_rates = q[..., 1:]
    if np.any(jump_rates < -tol.rate_negativity):
        raise NegativeRate("negative rates cannot be realized by the scheme")
    jump_rates = np.clip(jump_rates, 0.0, None)
    total = (jump_rates.sum(axis=-1) * dt).max()
    if total >= 1.0:
        raise StepTooLarge(f"total jump probability {total:.3f} >= 1; reduce dt")
    return np.cumsum(jump_rates * dt, axis=-1)


def _conjugate(u, states) -> np.ndarray:
    """u s u^dag for every state s along the last axis of ``states``
    (shape (d, d, n)).  Each side is d broadcast multiply-adds summed over
    the inner index in a fixed order, so the bits of one state's result
    do not depend on how many states share the batch."""
    left = u[:, 0, None, None] * states[0]
    for b in range(1, u.shape[0]):
        left += u[:, b, None, None] * states[b]
    uc = u.conj()[None, :, :, None]
    out = left[:, None, 0] * uc[..., 0, :]
    for c in range(1, u.shape[0]):
        out += left[:, None, c] * uc[..., c, :]
    return out


def _apply_branches(states, branch, unitaries, propagator) -> np.ndarray:
    """One step of the states (d, d, n): every state is conjugated by the
    propagator, then the jumpers (branch b < d - 1) are redone from their
    pre-step states with unitaries[b + 1]."""
    out = _conjugate(propagator, states)
    jumpers = np.flatnonzero(branch < unitaries.shape[0] - 1)
    jump_branch = branch[jumpers]
    for b in range(unitaries.shape[0] - 1):
        hit = jumpers[jump_branch == b]
        if hit.size:
            out[..., hit] = _conjugate(unitaries[b + 1], states[..., hit])
    return out


def step(state, h, unitaries, q, dt, draw, tol: Tolerances = DEFAULT_TOLERANCES):
    """Advance one state by one step of the scheme using a uniform draw.

    The draw is partitioned into [0, q_1 dt), [q_1 dt, q_1 dt + q_2 dt),
    ...; the remainder selects the Hamiltonian branch.  This is one
    trajectory of run_ensemble's step.
    """
    unitaries = np.asarray(unitaries, dtype=complex)
    if unitaries.shape[0] != np.shape(q)[0]:
        raise ValidationError("step needs one unitary per rate")
    states = np.array(state, dtype=complex)[..., None]
    edges = _jump_edges(np.asarray(q, dtype=float), dt, tol)
    branch = np.searchsorted(edges, [draw], side="right")
    propagator = _hermitian_propagator(np.asarray(h, dtype=complex), dt)
    return _apply_branches(states, branch, unitaries, propagator)[..., 0]


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
    rho0,
    exact=None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> EnsembleResult:
    """Average an ensemble of stochastic trajectories of the scheme.

    The decomposition grid defines the step grid; ``config.dt`` must
    match its spacing.  ``exact`` is an optional list of TrajectorySample
    on the same grid used for the per-time trace distance.
    """
    times = decomposition.times
    n_steps = int(np.searchsorted(times, config.horizon + 1e-12)) - 1
    if n_steps < 1:
        raise ValidationError("horizon shorter than one decomposition step")
    spacing = np.diff(times[: n_steps + 1])
    if np.abs(spacing - config.dt).max() > 1e-9 * config.dt:
        raise ValidationError("config.dt does not match the decomposition grid")
    flagged = _flagged_intervals(decomposition, config.horizon)
    if flagged:
        spans = ", ".join(f"[{a:g}, {b:g}]" for a, b in flagged)
        raise RefusesToSimulate(
            f"decomposition flagged negative/singular on {spans}",
            t_start=flagged[0][0],
            t_end=flagged[0][1],
        )

    d = decomposition.dim
    dt = config.dt
    # per-interval branch operators, shared by all trajectories:
    # midpoint Hamiltonian and rates, left-endpoint jump unitaries
    h_mid = 0.5 * (decomposition.hamiltonians[:n_steps] + decomposition.hamiltonians[1 : n_steps + 1])
    q_mid = 0.5 * (decomposition.rates[:n_steps] + decomposition.rates[1 : n_steps + 1])
    edges = _jump_edges(q_mid, dt, tol)                 # (n_steps, d-1)
    propagators = _hermitian_propagator(h_mid, dt)

    # one counter-based stream per trajectory keyed by (seed, i), drawn up
    # front step-major; re-keying one Philox gives the same draws as a fresh
    # Generator(Philox(key=[seed, i])) per trajectory
    key = np.array([config.seed, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    fresh = bitgen.state                # zero counter, empty buffer
    fresh["state"]["key"] = key
    rng = np.random.Generator(bitgen)
    draws = np.empty((n_steps, config.n_traj))
    for i in range(config.n_traj):
        key[1] = i
        bitgen.state = fresh
        draws[:, i] = rng.random(n_steps)

    states = np.repeat(
        np.asarray(rho0, dtype=complex)[..., None], config.n_traj, axis=-1
    )
    mean = np.empty((n_steps + 1, d, d), dtype=complex)
    err = np.empty((n_steps + 1, d, d))

    def record(k, states):
        mean[k] = states.mean(axis=-1)
        dev = states - mean[k][..., None]
        err[k] = np.sqrt(
            np.mean(np.abs(dev) ** 2, axis=-1) / max(config.n_traj - 1, 1)
        )

    record(0, states)
    for k in range(n_steps):
        branch = np.searchsorted(edges[k], draws[k], side="right")
        unitaries = build_tilde_unitaries(decomposition.frames.eigenvectors[k])
        states = _apply_branches(states, branch, unitaries, propagators[k])
        record(k + 1, states)

    tdist = None
    if exact is not None:
        tdist = np.empty(n_steps + 1)
        for k in range(n_steps + 1):
            diff = mean[k] - np.asarray(exact[k].rho, dtype=complex)
            tdist[k] = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()

    return EnsembleResult(
        times=times[: n_steps + 1].copy(),
        mean_rho=mean,
        stderr=err,
        trace_distance_to_exact=tdist,
    )


def convergence_sweep(make_problem, base_config: SimConfig, dts, n_trajs):
    """Empirical bias/noise table over step sizes and ensemble sizes.

    ``make_problem(dt)`` must return (decomposition, rho0, exact) on a
    grid with spacing dt covering the horizon.  Returns a list of row
    dicts with the max trace distance and the max aggregate standard
    error for every (dt, n_traj) pair.
    """
    rows = []
    for dt in dts:
        decomposition, rho0, exact = make_problem(dt)
        for n in n_trajs:
            config = SimConfig(
                dt=dt, n_traj=n, seed=base_config.seed, horizon=base_config.horizon
            )
            result = run_ensemble(config, decomposition, rho0, exact=exact)
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
