"""JSON/CSV serialization of trajectories, matrices and reports.

Matrices are stored row-major with explicit [re, im] entry pairs.  JSON
holds each float as its shortest round-trip repr, so a write/read round
trip is bit-exact; CSV holds ``%.17g`` decimals with CRLF line ends.
Every matrix stack and table crosses the file boundary as one array.
"""

from __future__ import annotations

import json

import numpy as np

from .decomposition import DecompositionSeries, TrajectorySample
from .errors import ValidationError
from .linalg import validate_density_matrix

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "read_json_object",
    "write_trajectory",
    "read_trajectory",
    "read_matrix_file",
    "write_matrix_file",
    "write_rate_report",
    "write_hamiltonians",
    "write_ensemble_csv",
    "write_channel_json",
]


def matrix_to_json(m) -> list:
    """Nested lists of [re, im] pairs for a matrix or a stack (..., d, d)."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


def _numbers(data, where: str) -> np.ndarray:
    """``data`` as one finite float array, or a ValidationError."""
    try:
        arr = np.asarray(data)
    except ValueError as exc:
        raise ValidationError(f"{where}: ragged rows (unequal length or depth)") from exc
    # numpy casts true and false among numbers to 1 and 0; JSON
    # booleans are not numbers
    if arr.dtype.kind not in "iuf" or bool in set(map(type, np.asarray(data, dtype=object).flat)):
        raise ValidationError(f"{where}: entries are not all numbers")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{where}: entries are not all finite")
    return arr


def matrix_from_json(data, where: str = "matrix") -> np.ndarray:
    """Decode d rows of d [re, im] pairs into a finite complex (d, d) array."""
    arr = _numbers(data, where)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{where}: shape {arr.shape} is not (d, d, 2) [re, im] pairs")
    return np.ascontiguousarray(arr).view(complex)[..., 0]


def read_json_object(path, keys) -> dict:
    """The JSON object in the file at ``path``, which must hold ``keys``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text") from exc
        except RecursionError as exc:
            raise ValidationError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: not a JSON object")
    for key in keys:
        if key not in doc:
            raise ValidationError(f"{path}: missing key {key!r}")
    return doc


_CHUNK = 256


def _write_json(path, doc) -> None:
    """Write the object ``doc`` as json.dump would, with json.dumps' C
    encoder.  A value that is an array is a matrix or a stack of them,
    encoded as matrix_to_json in chunks of _CHUNK rows, so neither its whole
    nested list nor its whole text is held at once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(doc.items()):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            if not isinstance(value, np.ndarray):
                fh.write(json.dumps(value))
                continue
            fh.write("[")
            for j in range(0, len(value), _CHUNK):
                chunk = json.dumps(matrix_to_json(value[j:j + _CHUNK]))[1:-1]
                fh.write((", " if j else "") + chunk)
            fh.write("]")
        fh.write("}")


def write_trajectory(path, samples) -> None:
    rhos = np.stack([s.rho for s in samples])
    _write_json(path, {
        "dim": rhos.shape[1],
        "times": np.array([s.time for s in samples], dtype=float).tolist(),
        "rho": rhos,
    })


def read_trajectory(path) -> list[TrajectorySample]:
    doc = read_json_object(path, ("dim", "times", "rho"))
    d, rho = doc["dim"], doc["rho"]
    if type(d) is not int or d < 1:
        raise ValidationError(f"{path}: dim {d!r} is not a positive integer")
    times = _numbers(doc["times"], f"{path}: times")
    if times.ndim != 1 or times.size == 0:
        raise ValidationError(f"{path}: times is not a nonempty list of numbers")
    if not isinstance(rho, list) or len(rho) != times.size:
        raise ValidationError(
            f"{path}: {times.size} times but rho is not a list of as many matrices"
        )
    # entries are checked against dim before they are stacked, so a
    # wrong dim allocates nothing of its size
    rhos = []
    for k, data in enumerate(rho):
        rhos.append(matrix_from_json(data, where=f"{path}: entry {k}"))
        if rhos[k].shape != (d, d):
            raise ValidationError(f"{path}: entry {k} has shape {rhos[k].shape}, want {d}x{d}")
    rhos = np.stack(rhos)
    try:
        validate_density_matrix(rhos)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return [TrajectorySample(time=t, rho=r) for t, r in zip(times.tolist(), rhos)]


def read_matrix_file(path) -> np.ndarray:
    """The matrix of a file that write_matrix_file wrote; its "dim" must
    be a JSON integer equal to the matrix size."""
    doc = read_json_object(path, ("dim", "matrix"))
    m, d = matrix_from_json(doc["matrix"], where=path), doc["dim"]
    if type(d) is not int or d != m.shape[0]:
        raise ValidationError(f"{path}: dim {d!r} is not the matrix size {m.shape[0]}")
    return m


def write_matrix_file(path, m) -> None:
    m = np.asarray(m, dtype=complex)
    _write_json(path, {"dim": m.shape[0], "matrix": m})


def _write_csv(path, header, table, fmt) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")


def write_rate_report(path, decomposition: DecompositionSeries) -> None:
    """CSV: time, q_0..q_{d-1}, negative_flag, singular_flag, condition."""
    d = decomposition.dim
    table = np.column_stack((
        decomposition.times, decomposition.rates, decomposition.negative_flags,
        decomposition.singular_flags, decomposition.condition_estimates,
    ))
    _write_csv(
        path,
        ["time", *(f"q_{i}" for i in range(d)),
         "negative_flag", "singular_flag", "condition_estimate"],
        table,
        ["%.17g"] * (d + 1) + ["%d", "%d", "%.6g"],
    )


def write_hamiltonians(path, times, hamiltonians) -> None:
    """JSON: the grid ``times`` and the matrix stack ``hamiltonians``
    (n, d, d), encoded as given."""
    _write_json(path, {
        "times": np.asarray(times, dtype=float).tolist(),
        "hamiltonians": np.asarray(hamiltonians, dtype=complex),
    })


def write_ensemble_csv(path, result) -> None:
    """CSV: time, mean rho entries (re/im), standard errors, trace distance."""
    n, d = result.mean_rho.shape[:2]
    entries = [f"{i}{j}" for i in range(d) for j in range(d)]
    mean = np.ascontiguousarray(result.mean_rho, dtype=complex).view(float)
    columns = [result.times, mean.reshape(n, -1), result.stderr.reshape(n, -1)]
    fmt = ["%.17g"] * (1 + 3 * d * d)
    if result.trace_distance_to_exact is None:
        fmt[-1] += ","  # rows leave trace_distance_to_exact blank
    else:
        columns.append(result.trace_distance_to_exact)
        fmt.append("%.17g")
    _write_csv(
        path,
        ["time", *(f"mean_{e}_{part}" for e in entries for part in ("re", "im")),
         *(f"stderr_{e}" for e in entries), "trace_distance_to_exact"],
        np.column_stack(columns),
        fmt,
    )


def write_channel_json(path, decomp, kraus=None) -> None:
    doc = {
        "probabilities": np.asarray(decomp.probabilities, dtype=float).tolist(),
        "unitaries": np.asarray(decomp.unitaries),
        "classification": decomp.classification,
        "reconstruction_residual": float(decomp.reconstruction_residual),
        "pairing": np.asarray(decomp.pairing, dtype=int).tolist(),
    }
    if kraus is not None:
        doc["kraus_like"] = [
            {"k": k, "kbar": kbar, "sign": int(s)}
            for (k, kbar), s in zip(matrix_to_json(kraus.operators), kraus.signs)
        ]
    _write_json(path, doc)
