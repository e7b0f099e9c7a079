"""Correctness checks on the files the CLI writes.

Each check reads one call's outputs, recomputes what it can from the
benchmark's own inputs (never through ``probunitary``), raises
``CheckFailed`` when the outputs are wrong and otherwise returns the
accuracy figures the traced run reports.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy.linalg import expm

# ensemble-ad: the trace distance to the exact state must stay within
# ENSEMBLE_SIGMAS stderr norms plus ENSEMBLE_BIAS * gamma * dt at every time
ENSEMBLE_SIGMAS = 4.0
ENSEMBLE_BIAS = 2.0
# decompose-unital6: largest |entry| of reconstruct_rhs - d rho/dt at
# unflagged interior grid points
RHS_RESIDUAL_BOUND = 1e-4
# channel-pairs: reconstruction of rho_out and Kraus-like completeness
CHANNEL_TOLERANCE = 1e-8


class CheckFailed(Exception):
    """An output file is missing, malformed or numerically wrong."""


def _read_csv(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path}: {exc}") from exc
    if not rows:
        raise CheckFailed(f"{path}: empty file")
    return rows[0], rows[1:]


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path}: {exc}") from exc


def _numeric(path, header, rows, columns):
    """The named columns of a CSV as a float array, one row per line."""
    try:
        idx = [header.index(c) for c in columns]
        return np.array([[float(row[i]) for i in idx] for row in rows])
    except (ValueError, IndexError) as exc:
        raise CheckFailed(f"{path}: malformed row or header: {exc}") from exc


def _matrices(path, data, shape):
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CheckFailed(f"{path}: malformed matrix list: {exc}") from exc
    if arr.shape != shape + (2,):
        raise CheckFailed(f"{path}: matrices have shape {arr.shape[:-1]}, want {shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _grid_ok(path, times, dt, n):
    if times.shape != (n,) or np.abs(times - dt * np.arange(n)).max() > 1e-9:
        raise CheckFailed(f"{path}: time column is not the {n}-point grid of step {dt}")


def check_ensemble(path, gamma, dt, horizon) -> dict:
    """Mean state of the amplitude-damping ensemble against the exact state
    diag(e^{-gamma t}, 1 - e^{-gamma t})."""
    n = round(horizon / dt) + 1
    header, rows = _read_csv(path)
    mean_cols = [f"mean_{i}{j}_{part}" for i in range(2) for j in range(2) for part in ("re", "im")]
    err_cols = [f"stderr_{i}{j}" for i in range(2) for j in range(2)]
    data = _numeric(path, header, rows, ["time"] + mean_cols + err_cols + ["trace_distance_to_exact"])
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path}: non-finite entries")
    times = data[:, 0]
    _grid_ok(path, times, dt, n)
    mean = (data[:, 1:9:2] + 1j * data[:, 2:9:2]).reshape(n, 2, 2)
    stderr = data[:, 9:13].reshape(n, 2, 2)
    reported = data[:, 13]

    decay = np.exp(-gamma * times)
    exact = np.zeros((n, 2, 2), dtype=complex)
    exact[:, 0, 0], exact[:, 1, 1] = decay, 1 - decay
    if np.abs(np.einsum("kii->k", mean) - 1).max() > 1e-9:
        raise CheckFailed(f"{path}: mean state trace deviates from 1")
    if np.abs(mean - mean.conj().transpose(0, 2, 1)).max() > 1e-9:
        raise CheckFailed(f"{path}: mean state not Hermitian")
    tdist = 0.5 * np.abs(np.linalg.eigvalsh(mean - exact)).sum(axis=1)
    if np.abs(tdist - reported).max() > 1e-9:
        raise CheckFailed(f"{path}: reported trace distance disagrees with the mean state")
    sigma = np.linalg.norm(stderr.reshape(n, -1), axis=1)
    allowed = ENSEMBLE_SIGMAS * sigma + ENSEMBLE_BIAS * gamma * dt
    if np.any(tdist > allowed):
        k = int(np.argmax(tdist - allowed))
        raise CheckFailed(
            f"{path}: trace distance {tdist[k]:.3g} at t={times[k]:g} exceeds "
            f"{ENSEMBLE_SIGMAS:g} stderr norms + {ENSEMBLE_BIAS:g} gamma dt = {allowed[k]:.3g}"
        )
    return {
        "max_trace_distance": float(tdist.max()),
        "max_stderr": float(sigma.max()),
    }


def lindblad_reference(spec, dt, n) -> np.ndarray:
    """rho(k dt) for k < n by repeated exact propagation exp(L dt) of the
    row-major vectorised Lindblad generator L."""
    h, jump, gamma = spec["hamiltonian"], spec["jump"], spec["gamma"]
    d = h.shape[0]
    eye = np.eye(d)
    anti = jump.conj().T @ jump
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + gamma * (
        np.kron(jump, jump.conj())
        - 0.5 * np.kron(anti, eye)
        - 0.5 * np.kron(eye, anti.T)
    )
    prop = expm(gen * dt)
    out = np.empty((n, d * d), dtype=complex)
    out[0] = np.asarray(spec["rho0"]).reshape(-1)
    for k in range(1, n):
        out[k] = prop @ out[k - 1]
    return out.reshape(n, d, d)


def check_decompose(out, rho_ref, dt) -> dict:
    """rates.csv and hamiltonians.json of one decomposition: grid, finiteness,
    and -i[H, rho] + sum_i q_i (U~_i rho U~_i^dag - rho) = d rho/dt at every
    unflagged interior grid point, with U~_i rho U~_i^dag = V diag(roll(p, -i)) V^dag
    for rho = V diag(p) V^dag, p descending."""
    n, d = rho_ref.shape[:2]
    path = f"{out}.rates.csv"
    header, rows = _read_csv(path)
    q_cols = [f"q_{i}" for i in range(d)]
    data = _numeric(path, header, rows, ["time"] + q_cols + ["negative_flag", "singular_flag", "condition_estimate"])
    if data.shape[0] != n:
        raise CheckFailed(f"{path}: {data.shape[0]} rows, want {n}")
    if not np.all(np.isfinite(data[:, : d + 3])):
        raise CheckFailed(f"{path}: non-finite time, rate or flag")
    _grid_ok(path, data[:, 0], dt, n)
    q = data[:, 1 : d + 1]
    flags = data[:, d + 1 : d + 3]
    if not np.all((flags == 0) | (flags == 1)):
        raise CheckFailed(f"{path}: flags are not 0/1")
    flagged = flags.any(axis=1)
    if np.any(np.isnan(data[:, d + 3])) or np.any(np.isinf(data[:, d + 3]) & ~flagged):
        raise CheckFailed(f"{path}: infinite condition estimate at an unflagged point")

    path = f"{out}.hamiltonians.json"
    doc = _read_json(path)
    if not isinstance(doc, dict) or "hamiltonians" not in doc or "times" not in doc:
        raise CheckFailed(f"{path}: missing 'times' or 'hamiltonians'")
    _grid_ok(path, np.asarray(doc["times"], dtype=float), dt, n)
    hams = _matrices(path, doc["hamiltonians"], (n, d, d))
    if np.abs(hams - hams.conj().transpose(0, 2, 1)).max() > 1e-9:
        raise CheckFailed(f"{path}: Hamiltonian not Hermitian")

    evals, evecs = np.linalg.eigh(rho_ref)
    p, v = evals[:, ::-1], evecs[:, :, ::-1]
    jumps = sum(q[:, [i]] * (np.roll(p, -i, axis=1) - p) for i in range(1, d))
    rhs = -1j * (hams @ rho_ref - rho_ref @ hams) + np.einsum(
        "kab,kb,kcb->kac", v, jumps, v.conj()
    )
    residual = np.abs(np.gradient(rho_ref, dt, axis=0) - rhs).max(axis=(1, 2))
    # the end points use one-sided, first-order differences
    judged = ~flagged
    judged[[0, -1]] = False
    good = residual[judged]
    worst = float(good.max()) if good.size else 0.0
    if worst > RHS_RESIDUAL_BOUND:
        k = int(np.flatnonzero(judged)[np.argmax(good)])
        raise CheckFailed(
            f"{out}: reconstruct_rhs residual {worst:.3g} at t={k * dt:g} "
            f"exceeds {RHS_RESIDUAL_BOUND:g}"
        )
    return {
        "flagged_share": float(flagged.mean()),
        "rhs_residual_max": worst,
    }


def check_channel(path, rho_in, rho_out) -> dict:
    """One channel.json: sum_i q_i U~_i rho_in U~_i^dag = rho_out, sum_i
    K_i Kbar_i = 1 with Kbar_i = sign_i K_i^dag, and a label that matches q."""
    doc = _read_json(path)
    d = rho_in.shape[0]
    try:
        q = np.asarray(doc["probabilities"], dtype=float)
        label = doc["classification"]
        kraus = doc["kraus_like"]
        unitaries = _matrices(path, doc["unitaries"], (d, d, d))
        ks = _matrices(path, [op["k"] for op in kraus], (d, d, d))
        kbars = _matrices(path, [op["kbar"] for op in kraus], (d, d, d))
        signs = np.asarray([op["sign"] for op in kraus], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"{path}: missing or malformed entry: {exc}") from exc
    if q.shape != (d,) or not np.all(np.isfinite(q)) or abs(q.sum() - 1) > CHANNEL_TOLERANCE:
        raise CheckFailed(f"{path}: probabilities are not {d} finite numbers summing to 1")
    recon = np.einsum("i,iab,bc,idc->ad", q, unitaries, rho_in, unitaries.conj())
    residual = float(np.abs(recon - rho_out).max())
    if residual > CHANNEL_TOLERANCE:
        raise CheckFailed(f"{path}: reconstruction residual {residual:.3g}")
    if np.abs(kbars - signs[:, None, None] * ks.conj().transpose(0, 2, 1)).max() > CHANNEL_TOLERANCE:
        raise CheckFailed(f"{path}: Kbar_i is not sign_i K_i^dag")
    completeness = float(np.abs((ks @ kbars).sum(axis=0) - np.eye(d)).max())
    if completeness > CHANNEL_TOLERANCE:
        raise CheckFailed(f"{path}: Kraus-like pairs sum to identity only within {completeness:.3g}")
    inside = bool(np.all((q >= -1e-9) & (q <= 1 + 1e-9)))
    if label not in ("mixed_unitary", "quasi_probability") or (label == "mixed_unitary") != inside:
        raise CheckFailed(f"{path}: label {label!r} does not match probabilities {q}")
    return {"mislabeled": label != "mixed_unitary", "residual": residual}
