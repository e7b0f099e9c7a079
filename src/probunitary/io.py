"""JSON/CSV serialization of trajectories, matrices and reports.

Matrices are stored row-major with explicit [re, im] entry pairs.  JSON
holds each float of a matrix as ``'%.16e' % x`` (17 significant digits;
NaN and +-Infinity as json's words), and every other number, such as a
time or a probability, as json.dumps' shortest repr, so a write/read
round trip is bit-exact.  A matrix stack is encoded by numpy in chunks
of a fixed number of floats: the digits come from an exact scaling by a
power of ten, and the text is laid out in a fixed byte template.  CSV
holds ``%.17g`` decimals with CRLF line ends, written as one ``%``
template over the whole table.  Every matrix
stack and table crosses the file boundary as one array.  A reader checks
only its file's format and returns the record the file holds; a writer
takes the record it writes and derives the file's contents from it.
"""

from __future__ import annotations

import functools
import json
import math
import re
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


# Each float of a matrix is written as '%.16e' % x: 17 significant digits,
# which read back bit-exactly, in one layout.  A float's text fills a slot
# of _SLOT_WORDS little-endian words, NUL-padded; a chunk of about _CHUNK
# floats is laid out in slots and fixed text, then its pads are removed.
_CHUNK = 1 << 14
_SLOT_WORDS = 3  # 24 bytes: "-2.2250738585072014e-308" and "-Infinity" fit
# 10**k for k = 0..22, each exact, and its Veltkamp halves
_POW10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# "0000".."9999" and "e-09".."e+19" as little-endian words ("0" is 48)
_GROUPS = np.arange(10_000)
_DIGITS = sum((48 + _GROUPS // 10 ** (3 - j) % 10) << 8 * j for j in range(4)).astype(np.uint64)
_EXPONENTS = np.arange(-9, 20)
_EXPONENT_TEXT = (101 + np.where(_EXPONENTS < 0, 45, 43) * 2**8 + (48 + abs(_EXPONENTS) // 10) * 2**16
                  + (48 + abs(_EXPONENTS) % 10) * 2**24).astype(np.uint64)


def _exact_scaled(v: np.ndarray, k: np.ndarray):
    """``v * 10**k`` as the unevaluated sum ``p + err`` of two floats
    (Dekker's two-product: exact for k in 0..22 when nothing underflows)."""
    p = v * _POW10[k]
    t = v * 134217729.0
    vh = t - (t - v)
    vl = v - vh
    yh, yl = _POW10_HI[k], _POW10_LO[k]
    return p, ((vh * yh - p) + vh * yl + vl * yh) + vl * yl


def _float_slots(x: np.ndarray) -> np.ndarray:
    """'%.16e' % v for each float v of the 1-D ``x``, or json's NaN and
    +-Infinity, as an (x.size, _SLOT_WORDS) array of slots.  A zero or a
    magnitude in (1e-6, 1e17) is scaled exactly into [1e16, 1e17) and
    rounded half-even to 17 digits; the others go through one batched %."""
    a = np.abs(x)
    fast = ((a > 1e-6) & (a < 1e17)) | (a == 0)
    v = np.where(fast, a, 0.0)
    e = np.floor(np.log10(np.where(v == 0, 1.0, v))).astype(np.intp).clip(-6, 16)
    p, err = _exact_scaled(v, 16 - e)
    # next to a power of ten log10 can be one off: the exact product says
    below = ((p < 1e16) | ((p == 1e16) & (err < 0))) & (v != 0)
    above = (p > 1e17) | ((p == 1e17) & (err >= 0))
    off = np.flatnonzero(below | above)
    e[off] += above[off].astype(np.intp) - below[off]
    p[off], err[off] = _exact_scaled(v[off], 16 - e[off])
    # p is an even integer (its ulp is at least 2), so rounding err
    # half-even rounds p + err half-even
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    carry = n == 10**17
    n[carry], e[carry] = 10**16, e[carry] + 1
    high, low = np.divmod(n, 10**8)
    lead, high = np.divmod(high, 10**8)
    g = _DIGITS[np.stack(np.divmod(high, 10**4) + np.divmod(low, 10**4))]
    first, second = g[0] | g[1] << 32, g[2] | g[3] << 32
    # sign, lead digit, "." and 16 digits, then "e+dd"
    slots = np.empty((x.size, _SLOT_WORDS), np.uint64)
    slots[:, 0] = (np.signbit(x).astype(np.uint64) * 45 | (48 + lead.astype(np.uint64)) << 8
                   | 46 << 16 | first << 24)
    slots[:, 1] = first >> 40 | second << 24
    slots[:, 2] = second >> 40 | _EXPONENT_TEXT[e + 9] << 24
    slow = np.flatnonzero(~fast)
    if slow.size:
        values = x[slow]
        text = (f"%-{8 * _SLOT_WORDS}.16e" * slow.size % tuple(values.tolist())).encode()
        slots[slow] = np.frombuffer(text.replace(b" ", b"\0"), "<u8").reshape(-1, _SLOT_WORDS)
        for word, hit in ((b"NaN", np.isnan(values)), (b"Infinity", values == np.inf),
                          (b"-Infinity", values == -np.inf)):
            slots[slow[hit]] = np.frombuffer(word.ljust(8 * _SLOT_WORDS, b"\0"), "<u8")
    return slots


def _matrix_template(shape) -> str:
    """Template of matrix_to_json's text for an array of ``shape``: one
    %s per float of its [re, im] pairs."""
    template = "[%s, %s]"
    for n in reversed(shape):
        template = "[" + ", ".join([template] * n) + "]"
    return template


@functools.lru_cache(maxsize=32)
def _row_layout(template: str):
    """The text of ``template`` before its first slot, and a read-only
    table of the NUL-padded text after each slot, one row of words per
    slot; the last runs on into the next item."""
    head, *tails = re.split("%[sd]", template)
    tails[-1] += ", " + head
    width = -(-max(map(len, tails)) // 8) * 8
    table = np.array([t.encode() for t in tails], f"S{width}").view("<u8").reshape(len(tails), -1)
    table.flags.writeable = False
    return head.encode(), table


class _Items(NamedTuple):
    """A JSON list with one item per row of the complex ``stack``: the
    ``template``, its %s filled with the floats of the row's [re, im]
    pairs in matrix_to_json order, then its %d with the row of the
    integer ``fields`` (such as a Kraus pair's sign)."""

    stack: np.ndarray
    template: str
    fields: np.ndarray


def _write_items(fh, items: _Items) -> None:
    """The list text of ``items``, in chunks of about _CHUNK floats, so
    that its whole text is never held at once."""
    head, tails = _row_layout(items.template)
    n, floats, fields = len(items.stack), 2 * math.prod(items.stack.shape[1:]), items.fields.shape[1]
    rows = max(1, _CHUNK // floats)
    fh.write(b"[" + (head if n else b""))
    for j in range(0, n, rows):
        chunk = np.ascontiguousarray(items.stack[j:j + rows]).view(float).reshape(-1, floats)
        cells = np.empty((len(chunk), floats + fields, _SLOT_WORDS + tails.shape[1]), np.uint64)
        cells[:, :, _SLOT_WORDS:] = tails
        cells[:, :floats, :_SLOT_WORDS] = _float_slots(chunk.ravel()).reshape(chunk.shape + (-1,))
        cells[:, floats:, :_SLOT_WORDS] = (items.fields[j:j + rows].astype(f"S{8 * _SLOT_WORDS}")
                                           .view("<u8").reshape(len(chunk), fields, _SLOT_WORDS))
        text = cells.astype("<u8", copy=False).view(np.uint8).ravel()
        text = text[text != 0]
        # the last item runs on into none
        fh.write(text if j + rows < n else text[:len(text) - len(b", " + head)])
    fh.write(b"]")


def _write_json(path, doc) -> None:
    """Write the object ``doc`` as json.dump would, except for the floats
    of matrices.  A value that is an array is a matrix or a stack of them,
    written as its matrix_to_json list; an _Items value is written as its
    list.  Each of their floats is written as '%.16e' % v (json's NaN and
    +-Infinity words otherwise), which reads back bit-exactly; every other
    value is json.dumps' text.  Every value is converted before the file is
    opened, so a refused value leaves none."""
    items = []
    for key, value in doc.items():
        if isinstance(value, np.ndarray):
            value = _Items(value.astype(complex, copy=False), _matrix_template(value.shape[1:]),
                           np.empty((len(value), 0), int))
        items.append((json.dumps(key).encode(), value if isinstance(value, _Items)
                      else json.dumps(value).encode()))
    with open(path, "wb") as fh:
        fh.write(b"{")
        for i, (key, value) in enumerate(items):
            fh.write((b", " if i else b"") + key + b": ")
            if isinstance(value, _Items):
                _write_items(fh, value)
            else:
                fh.write(value)
        fh.write(b"}")


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
