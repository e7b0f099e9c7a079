"""JSON/CSV serialization of trajectories, matrices and reports.

Matrices are stored row-major with explicit [re, im] entry pairs and
17-significant-digit decimals, so a write/read round trip is exact.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .decomposition import DecompositionSeries, TrajectorySample
from .errors import ValidationError
from .linalg import validate_density_matrix

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "write_trajectory",
    "read_trajectory",
    "read_matrix_file",
    "write_matrix_file",
    "write_rate_report",
    "write_hamiltonians",
    "write_ensemble_csv",
    "write_channel_json",
]


def _sig(x: float) -> float:
    # 17 significant decimal digits: enough for an exact float64 round trip
    return float(f"{x:.17g}")


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[_sig(e.real), _sig(e.imag)] for e in row] for row in m]


def matrix_from_json(data, where: str = "matrix") -> np.ndarray:
    try:
        arr = np.array(
            [[complex(e[0], e[1]) for e in row] for row in data], dtype=complex
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"{where}: malformed [re, im] matrix: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{where}: matrix is not square")
    return arr


def write_trajectory(path, samples) -> None:
    doc = {
        "dim": int(samples[0].rho.shape[0]),
        "times": [_sig(s.time) for s in samples],
        "rho": [matrix_to_json(s.rho) for s in samples],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def read_trajectory(path) -> list[TrajectorySample]:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    for key in ("dim", "times", "rho"):
        if key not in doc:
            raise ValidationError(f"{path}: missing key {key!r}")
    times, rhos = doc["times"], doc["rho"]
    if len(times) != len(rhos):
        raise ValidationError(f"{path}: {len(times)} times but {len(rhos)} matrices")
    if not times:
        raise ValidationError(f"{path}: empty trajectory")
    d = int(doc["dim"])
    samples = []
    for k, (t, data) in enumerate(zip(times, rhos)):
        rho = matrix_from_json(data, where=f"{path}: entry {k}")
        if rho.shape != (d, d):
            raise ValidationError(f"{path}: entry {k} has shape {rho.shape}, want {d}x{d}")
        try:
            validate_density_matrix(rho)
        except ValidationError as exc:
            raise ValidationError(f"{path}: entry {k}: {exc}") from exc
        samples.append(TrajectorySample(time=float(t), rho=rho))
    return samples


def read_matrix_file(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if "matrix" not in doc:
        raise ValidationError(f"{path}: missing key 'matrix'")
    return matrix_from_json(doc["matrix"], where=path)


def write_matrix_file(path, m) -> None:
    m = np.asarray(m, dtype=complex)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": int(m.shape[0]), "matrix": matrix_to_json(m)}, fh)


def write_rate_report(path, decomposition: DecompositionSeries) -> None:
    """CSV: time, q_0..q_{d-1}, negative_flag, singular_flag, condition."""
    d = decomposition.dim
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["time"]
            + [f"q_{i}" for i in range(d)]
            + ["negative_flag", "singular_flag", "condition_estimate"]
        )
        for k, t in enumerate(decomposition.times):
            writer.writerow(
                [f"{t:.17g}"]
                + [f"{x:.17g}" for x in decomposition.rates[k]]
                + [
                    int(decomposition.negative_flags[k]),
                    int(decomposition.singular_flags[k]),
                    f"{decomposition.condition_estimates[k]:.6g}",
                ]
            )


def write_hamiltonians(path, decomposition: DecompositionSeries) -> None:
    doc = {
        "times": [_sig(t) for t in decomposition.times],
        "hamiltonians": [matrix_to_json(h) for h in decomposition.hamiltonians],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def write_ensemble_csv(path, result) -> None:
    """CSV: time, mean rho entries (re/im), standard errors, trace distance."""
    d = result.mean_rho.shape[1]
    header = ["time"]
    for i in range(d):
        for j in range(d):
            header += [f"mean_{i}{j}_re", f"mean_{i}{j}_im"]
    for i in range(d):
        for j in range(d):
            header.append(f"stderr_{i}{j}")
    header.append("trace_distance_to_exact")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, t in enumerate(result.times):
            row = [f"{t:.17g}"]
            for i in range(d):
                for j in range(d):
                    row += [
                        f"{result.mean_rho[k, i, j].real:.17g}",
                        f"{result.mean_rho[k, i, j].imag:.17g}",
                    ]
            for i in range(d):
                for j in range(d):
                    row.append(f"{result.stderr[k, i, j]:.17g}")
            if result.trace_distance_to_exact is not None:
                row.append(f"{result.trace_distance_to_exact[k]:.17g}")
            else:
                row.append("")
            writer.writerow(row)


def write_channel_json(path, decomp, kraus=None) -> None:
    doc = {
        "probabilities": [_sig(x) for x in decomp.probabilities],
        "unitaries": [matrix_to_json(u) for u in decomp.unitaries],
        "classification": decomp.classification,
        "reconstruction_residual": _sig(decomp.reconstruction_residual),
        "pairing": [int(i) for i in decomp.pairing],
    }
    if kraus is not None:
        doc["kraus_like"] = [
            {
                "k": matrix_to_json(k),
                "kbar": matrix_to_json(kbar),
                "sign": int(s),
            }
            for (k, kbar), s in zip(kraus.operators, kraus.signs)
        ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
