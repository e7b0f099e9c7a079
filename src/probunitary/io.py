"""JSON/CSV serialization of trajectories, matrices and reports.

Matrices are stored row-major with explicit [re, im] entry pairs.  JSON
holds each float as its shortest round-trip repr, so a write/read round
trip is bit-exact; a matrix stack is written in chunks of rows, with the
repr computed once per distinct magnitude in the chunk and the text laid
out by one printf template.  CSV holds ``%.17g`` decimals with CRLF line
ends, written as one ``%`` template over the whole table.  Every matrix
stack and table crosses the file boundary as one array.  A reader checks
only its file's format and returns the record the file holds; a writer
takes the record it writes and derives the file's contents from it.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .channel import ChannelDecomposition, to_kraus_like
from .decomposition import DecompositionSeries, Trajectory
from .errors import ValidationError
from .linalg import _numeric_array

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
    """Nested lists of [re, im] pairs for a matrix or a stack (..., d, d);
    ValidationError for any other shape."""
    m = _numeric_array(m, complex, "matrix is not a numeric array")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"matrix must be square or a stack of them, got shape {m.shape}")
    return np.stack((m.real, m.imag), -1).tolist()


def _numbers(data, where: str) -> np.ndarray:
    """``data`` as one finite float array, or a ValidationError."""
    try:
        arr = np.asarray(data)
    except ValueError as exc:
        raise ValidationError(f"{where}: ragged rows (unequal length or depth)") from exc
    # numpy casts true and false among numbers to 1 and 0, and keeps an
    # int past 64 bits as an object; JSON booleans are not numbers
    types = set(map(type, np.asarray(data, dtype=object).flat))
    if bool in types or not (arr.dtype.kind in "iuf" or types <= {int, float}):
        raise ValidationError(f"{where}: entries are not all numbers")
    try:
        arr = arr.astype(float)
        finite = np.isfinite(arr).all()
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
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
        except ValueError as exc:  # past int's string-conversion digit limit
            raise ValidationError(f"{path}: JSON integer has too many digits") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: not a JSON object")
    for key in keys:
        if key not in doc:
            raise ValidationError(f"{path}: missing key {key!r}")
    return doc


_CHUNK = 256


def _float_texts(x: np.ndarray) -> np.ndarray:
    """json.dumps' text of each float of ``x``, as an object array of
    x's shape.  repr runs once per distinct magnitude; a sign bit adds
    "-", except on NaN, which JSON writes unsigned."""
    magnitudes, inverse = np.unique(np.abs(x), return_inverse=True)
    text = np.array(list(map(repr, magnitudes.tolist())), dtype=object)
    text[np.isinf(magnitudes)] = "Infinity"
    text[np.isnan(magnitudes)] = "NaN"
    negative = np.signbit(x) & ~np.isnan(x)
    pool = np.concatenate((text, "-" + text))
    return pool[inverse.reshape(x.shape) + negative * len(text)]


def _matrix_template(shape) -> str:
    """printf template of matrix_to_json's text for an array of ``shape``:
    one %s per float of its [re, im] pairs."""
    template = "[%s, %s]"
    for n in reversed(shape):
        template = "[" + ", ".join([template] * n) + "]"
    return template


class _Items(NamedTuple):
    """A JSON list with one item per row of the complex ``stack``: the
    printf ``template`` filled with the floats of the row's [re, im]
    pairs, in matrix_to_json order, then with the row of ``fields``."""

    stack: np.ndarray
    template: str
    fields: np.ndarray


def _write_json(path, doc) -> None:
    """Write the object ``doc`` byte for byte as json.dump would.  A value
    that is an array is a matrix or a stack of them, written as its
    matrix_to_json list; an _Items value is written as its list.  Such
    lists are encoded in chunks of _CHUNK rows, so their whole text is
    never held at once: each float is its shortest round-trip repr,
    computed once per distinct magnitude in the chunk, and the chunk's
    text is one printf template repeated per row.  Every value is
    converted before the file is opened, so a refused value leaves none."""
    items = []
    for key, value in doc.items():
        if isinstance(value, np.ndarray):
            value = _Items(value.astype(complex, copy=False), _matrix_template(value.shape[1:]),
                           np.empty((len(value), 0), int))
        items.append((json.dumps(key), value if isinstance(value, _Items) else json.dumps(value)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(items):
            fh.write((", " if i else "") + key + ": ")
            if not isinstance(value, _Items):
                fh.write(value)
                continue
            fh.write("[")
            for j in range(0, len(value.stack), _CHUNK):
                chunk, fields = value.stack[j:j + _CHUNK], value.fields[j:j + _CHUNK]
                texts = _float_texts(np.stack((chunk.real, chunk.imag), -1)).reshape(len(chunk), -1)
                args = np.concatenate((texts, fields.astype(object)), axis=1).ravel().tolist()
                fh.write((", " if j else "") + ", ".join([value.template] * len(chunk)) % tuple(args))
            fh.write("]")
        fh.write("}")


def write_trajectory(path, trajectory: Trajectory) -> None:
    """JSON keys "dim" (d), "times" (n numbers) and "rho" (n matrices of d
    rows of d [re, im] pairs), written as the Trajectory holds them: its
    shapes were checked when it was built, and its time order and states
    are written as given.  read_trajectory reads a file of finite times
    and matrices back bit-exactly."""
    _write_json(path, {
        "dim": trajectory.rhos.shape[1],
        "times": trajectory.times.tolist(),
        "rho": trajectory.rhos,
    })


def read_trajectory(path) -> Trajectory:
    """The Trajectory of a write_trajectory file: integer dim >= 1, n >= 1
    finite times and n finite d x d matrices, else ValidationError.  Only
    the format is checked: the time order and the states are judged where
    a grid of states is needed (align_eigenframes)."""
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
    return Trajectory(times=times, rhos=np.stack(rhos))


def read_matrix_file(path) -> np.ndarray:
    """The matrix of a file that write_matrix_file wrote; its "dim" must
    be a JSON integer equal to the matrix size."""
    doc = read_json_object(path, ("dim", "matrix"))
    m, d = matrix_from_json(doc["matrix"], where=path), doc["dim"]
    if type(d) is not int or d != m.shape[0]:
        raise ValidationError(f"{path}: dim {d!r} is not the matrix size {m.shape[0]}")
    return m


def write_matrix_file(path, m) -> None:
    """JSON keys "dim" (d) and "matrix" (d rows of d [re, im] pairs), as
    read_matrix_file reads them; ValidationError unless m is a square
    matrix with d >= 1."""
    m = _numeric_array(m, complex, "matrix is not a numeric array")
    if m.ndim != 2 or not 0 < m.shape[0] == m.shape[1]:
        raise ValidationError(f"matrix must be a nonempty square matrix, got shape {m.shape}")
    _write_json(path, {"dim": m.shape[0], "matrix": m})


def _write_csv(path, header, table, fmt) -> None:
    """The header line, then each row of ``table`` through the printf
    formats ``fmt``, comma-separated, lines ended by CRLF."""
    rows = (",".join(fmt) + "\r\n") * len(table)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + rows % tuple(table.ravel().tolist()))


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


def write_hamiltonians(path, decomposition: DecompositionSeries) -> None:
    """JSON: the decomposition's grid "times" (n,) and its driving
    "hamiltonians" (n, d, d), both derived from its frames."""
    _write_json(path, {"times": decomposition.times.tolist(),
                       "hamiltonians": decomposition.hamiltonians})


def write_ensemble_csv(path, result) -> None:
    """CSV: time, mean rho entries (re/im), standard errors, and the trace
    distance to the decomposed state, one row per grid time."""
    n, d = result.mean_rho.shape[:2]
    entries = [f"{i}{j}" for i in range(d) for j in range(d)]
    mean = np.ascontiguousarray(result.mean_rho, dtype=complex).view(float)
    _write_csv(
        path,
        ["time", *(f"mean_{e}_{part}" for e in entries for part in ("re", "im")),
         *(f"stderr_{e}" for e in entries), "trace_distance_to_exact"],
        np.column_stack((result.times, mean.reshape(n, -1), result.stderr.reshape(n, -1),
                         result.trace_distance_to_exact)),
        ["%.17g"] * (2 + 3 * d * d),
    )


def write_channel_json(path, decomp: ChannelDecomposition) -> None:
    """JSON keys "probabilities" (d numbers), "unitaries" (d matrices),
    "classification", "reconstruction_residual" and "kraus_like", d
    objects {"k", "kbar", "sign"}: to_kraus_like's K_i and Kbar_i and the
    sign of q_i as +1 or -1.  Matrices are encoded as matrix_to_json does."""
    kraus = to_kraus_like(decomp)
    # the (k, kbar) pairs as one stack: kbar = sign k^dagger has k's
    # magnitudes, so it costs no repr
    matrix = _matrix_template(kraus.operators.shape[2:])
    _write_json(path, {
        "probabilities": np.asarray(decomp.probabilities, dtype=float).tolist(),
        "unitaries": np.asarray(decomp.unitaries),
        "classification": decomp.classification,
        "reconstruction_residual": float(decomp.reconstruction_residual),
        "kraus_like": _Items(kraus.operators, f'{{"k": {matrix}, "kbar": {matrix}, "sign": %d}}',
                             kraus.signs.astype(int)[:, None]),
    })
