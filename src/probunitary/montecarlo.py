"""Stochastic simulation of the probabilistic-unitary control scheme.

Per step a single uniform draw either applies one of the conjugated
shift unitaries U~_i = V W_i V^dag (probability q_i dt) or lets the
driving Hamiltonian act.  Every trajectory owns a counter-based RNG
stream keyed by (seed, trajectory index), so the ensemble mean is
bit-identical under any parallel schedule.

The ensemble runs as a classical jump process on permutation labels.  A
trajectory that starts at rho0 = V_0 diag(lam0) V_0^dag stays at
V_k diag(lam0[labels]) V_k^dag: the Hamiltonian only transports the
eigenframe, which the decomposition's frames V_k already carry, and a
jump by the shift W_i permutes the eigenvalues inside the frame.  So
run_ensemble applies no Hamiltonian: each trajectory holds d indices
into lam0, a jump cyclically shifts them, and the mean state and its
standard error follow from the mean and covariance of lam0[labels] over
the trajectories.

``step`` is the dense scheme for one state: it applies the chosen jump
unitary or exp(-i H dt).  On the same draws, ``step`` and the label
process agree to O(dt) at a fixed horizon; the replay test checks this.
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
    rho0,
    exact=None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> EnsembleResult:
    """Average an ensemble of stochastic trajectories of the scheme.

    The decomposition grid defines the step grid; ``config.dt`` must
    match its spacing.  ``rho0`` must be the decomposition's first state,
    V_0 diag(lam0) V_0^dag from ``decomposition.frames`` to within
    ``tol.reconstruction`` (ValidationError otherwise), since the scheme
    is built for that initial state.  ``exact`` is an optional list of
    TrajectorySample on the same grid, at least up to the horizon, used
    for the per-time trace distance.
    """
    times = decomposition.times
    n_steps = int(np.searchsorted(times, config.horizon + 1e-12)) - 1
    if n_steps < 1:
        raise ValidationError("horizon shorter than one decomposition step")
    spacing = np.diff(times[: n_steps + 1])
    if np.abs(spacing - config.dt).max() > 1e-9 * config.dt:
        raise ValidationError("config.dt does not match the decomposition grid")
    if exact is not None and len(exact) < n_steps + 1:
        raise ValidationError(f"exact has {len(exact)} samples, the horizon needs {n_steps + 1}")
    frames = decomposition.frames
    lam0, v0 = frames.eigenvalues[0], frames.eigenvectors[0]
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != v0.shape or (
        np.abs((v0 * lam0) @ v0.conj().T - rho0).max() > tol.reconstruction
    ):
        raise ValidationError("rho0 is not the first state of the decomposition")
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
    edges = _jump_edges(q_mid, config.dt, tol)          # (n_steps, d-1)

    # one counter-based stream per trajectory keyed by (seed, i), drawn up
    # front step-major; re-keying one Philox gives the same draws as a fresh
    # Generator(Philox(key=[seed, i])) per trajectory
    key = np.array([config.seed, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    fresh = bitgen.state                # zero counter, empty buffer
    fresh["state"]["key"] = key
    rng = np.random.Generator(bitgen)
    draws = np.empty((n_steps, n))
    for i in range(n):
        key[1] = i
        bitgen.state = fresh
        draws[:, i] = rng.random(n_steps)

    # labels[b, j]: the index into lam0 of the eigenvalue trajectory j
    # holds on frame branch b (trajectory axis last, so the per-step
    # reductions run along contiguous rows); a jump by shift i permutes
    # trajectory j's column by row i of the cyclic index rows
    rows = cyclic_shift_rows(d)
    labels = np.repeat(np.arange(d)[:, None], n, axis=1)
    # complex, so that sums / n is numpy's complex division: the means of
    # the amplitude-damping model then equal counts / n bit for bit
    sums = np.empty((n_steps + 1, d), dtype=complex)
    scatter = np.empty((n_steps + 1, d, d))

    for k in range(n_steps + 1):
        vals = lam0[labels]
        sums[k] = vals.sum(axis=1)
        dev = vals - sums[k].real[:, None] / n
        scatter[k] = dev @ dev.T
        if k < n_steps:
            branch = np.searchsorted(edges[k], draws[k], side="right")
            jumpers = np.flatnonzero(branch < d - 1)
            labels[:, jumpers] = labels[rows[branch[jumpers] + 1].T, jumpers]

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
