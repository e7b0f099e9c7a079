"""Stochastic simulation of the probabilistic-unitary control scheme.

Per step a single uniform draw either applies one of the conjugated
shift unitaries (probability q_i dt) or the Hamiltonian propagator
exp(-i H dt).  Every trajectory owns a counter-based RNG stream keyed by
(seed, trajectory index), so the ensemble mean is bit-identical under
any parallel schedule.
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


def _apply_branches(states, branch, unitaries, propagator) -> None:
    """Conjugate each state in place by the operator of its branch:
    unitaries[b + 1] for jump branch b < d - 1, the propagator for d - 1."""
    for b, u in enumerate([*unitaries[1:], propagator]):
        mask = branch == b
        if mask.any():
            states[mask] = np.einsum("ab,nbc,dc->nad", u, states[mask], u.conj())


def step(state, h, unitaries, q, dt, draw, tol: Tolerances = DEFAULT_TOLERANCES):
    """Advance one state by one step of the scheme using a uniform draw.

    The draw is partitioned into [0, q_1 dt), [q_1 dt, q_1 dt + q_2 dt),
    ...; the remainder selects the Hamiltonian branch.  This is one
    trajectory of run_ensemble's step.
    """
    unitaries = np.asarray(unitaries, dtype=complex)
    if unitaries.shape[0] != np.shape(q)[0]:
        raise ValidationError("step needs one unitary per rate")
    states = np.array(state, dtype=complex)[None]
    edges = _jump_edges(np.asarray(q, dtype=float), dt, tol)
    branch = np.searchsorted(edges, [draw], side="right")
    propagator = _hermitian_propagator(np.asarray(h, dtype=complex), dt)
    _apply_branches(states, branch, unitaries, propagator)
    return states[0]


def _flagged_interval(decomposition: DecompositionSeries, horizon: float):
    mask = (decomposition.times <= horizon + 1e-12) & (
        decomposition.negative_flags | decomposition.singular_flags
    )
    if not mask.any():
        return None
    bad = decomposition.times[mask]
    return float(bad.min()), float(bad.max())


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
    bad = _flagged_interval(decomposition, config.horizon)
    if bad is not None:
        raise RefusesToSimulate(
            f"decomposition flagged negative/singular on [{bad[0]:g}, {bad[1]:g}]",
            t_start=bad[0],
            t_end=bad[1],
        )

    d = decomposition.dim
    dt = config.dt
    # per-interval branch operators, shared by all trajectories:
    # midpoint Hamiltonian and rates, left-endpoint jump unitaries
    h_mid = 0.5 * (decomposition.hamiltonians[:n_steps] + decomposition.hamiltonians[1 : n_steps + 1])
    q_mid = 0.5 * (decomposition.rates[:n_steps] + decomposition.rates[1 : n_steps + 1])
    edges = _jump_edges(q_mid, dt, tol)                 # (n_steps, d-1)
    propagators = _hermitian_propagator(h_mid, dt)

    # one counter-based stream per trajectory, drawn up front
    draws = np.empty((config.n_traj, n_steps))
    for i in range(config.n_traj):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([config.seed, i], dtype=np.uint64))
        )
        draws[i] = rng.random(n_steps)

    states = np.broadcast_to(
        np.asarray(rho0, dtype=complex), (config.n_traj, d, d)
    ).copy()
    mean = np.empty((n_steps + 1, d, d), dtype=complex)
    err = np.empty((n_steps + 1, d, d))

    def record(k):
        mean[k] = states.mean(axis=0)
        dev = states - mean[k]
        err[k] = np.sqrt(
            np.mean(np.abs(dev) ** 2, axis=0) / max(config.n_traj - 1, 1)
        )

    record(0)
    for k in range(n_steps):
        branch = np.searchsorted(edges[k], draws[:, k], side="right")
        unitaries = build_tilde_unitaries(decomposition.frames.eigenvectors[k])
        _apply_branches(states, branch, unitaries, propagators[k])
        record(k + 1)

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
