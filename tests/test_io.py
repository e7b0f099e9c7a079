"""The file contract of probunitary.io: the exact bytes every writer
produces, bit-exact round trips, and rejection of malformed matrices."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from probunitary import io
from probunitary.channel import ChannelDecomposition, decompose_channel, to_kraus_like
from probunitary.decomposition import DecompositionSeries, EigenframeSeries, Trajectory
from probunitary.errors import ValidationError
from probunitary.montecarlo import EnsembleResult

from conftest import random_density_matrix, random_unitary

TIMES = np.array([0.0, 0.1, 0.25])


def rotating_frames(times) -> np.ndarray:
    """Frames rotated by t rad about y, their branch phases turned by
    e^{2it} and e^{-it}: their driving Hamiltonians are not zero."""
    c, s = np.cos(times), np.sin(times)
    phases = np.exp(1j * np.outer(times, [2, -1]))
    return np.array([[c, -s], [s, c]]).transpose(2, 0, 1) * phases[:, None]


# the writers read the grid from the frames and judge the flags by their
# rules: row 0 is negative (q_1 = -1/3), rows 1 and 2 are singular
# (condition times the row's own spacing, 0.15 on the last row, reaches 1)
DECOMPOSITION = DecompositionSeries(
    rates=np.array([[0.5, -1 / 3], [np.nan, -0.0], [1e-310, 2.5e17]]),
    condition_estimates=np.array([1.0, 12345.678912, np.inf]),
    frames=EigenframeSeries(TIMES, np.full((3, 2), 0.5), rotating_frames(TIMES)),
)

# matrices of special floats on TIMES, written as a trajectory's states
SPECIAL_STACK = np.array([
    [[0.5, 0.1 - 0.2j], [0.1 + 0.2j, -0.5]],
    [[1 / 3, -0.0], [-0.0j, 5e-324]],
    [[1e300, 2.5j], [-2.5j, -1e-300]],
])

ENSEMBLE_HEADER = (
    b"time,mean_00_re,mean_00_im,mean_01_re,mean_01_im,mean_10_re,mean_10_im,"
    b"mean_11_re,mean_11_im,stderr_00,stderr_01,stderr_10,stderr_11,"
    b"trace_distance_to_exact\r\n"
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)

CHANNEL = ChannelDecomposition(
    probabilities=np.array([1.25, -0.25]),
    unitaries=np.stack([np.eye(2, dtype=complex), SIGMA_X * np.exp(0.3j)]),
    reconstruction_residual=2.220446049250313e-16,
)

CHANNEL_JSON = (
    b'{"probabilities": [1.25, -0.25], "unitaries": [[[[1.0, 0.0], [0.0, 0.0]], '
    b'[[0.0, 0.0], [1.0, 0.0]]], [[[0.0, 0.0], [0.955336489125606, '
    b'0.29552020666133955]], [[0.955336489125606, 0.29552020666133955], '
    b'[0.0, 0.0]]]], "classification": "quasi_probability", '
    b'"reconstruction_residual": 2.220446049250313e-16'
)


def written(tmp_path, writer, *args) -> bytes:
    path = tmp_path / "out"
    writer(path, *args)
    return path.read_bytes()


# the keys whose values are matrices or stacks of them
MATRIX_KEYS = {"hamiltonians", "rho", "matrix", "unitaries", "k", "kbar"}


def percent_16e(x: float) -> str:
    """'%.16e' % x, or json's word for NaN and +-Infinity."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.16e" % x


def reference_bytes(doc) -> bytes:
    """``doc`` laid out as json.dump lays it out, each float of a matrix
    value written by percent_16e and every other value by json.dumps."""
    def encode(value, matrix):
        if isinstance(value, dict):
            return "{" + ", ".join(f"{json.dumps(k)}: {encode(v, matrix or k in MATRIX_KEYS)}"
                                   for k, v in value.items()) + "}"
        if isinstance(value, list):
            return "[" + ", ".join(encode(v, matrix) for v in value) + "]"
        if matrix and isinstance(value, float):
            return percent_16e(value)
        return json.dumps(value)
    return encode(doc, False).encode()


def same_bits(a, b) -> bool:
    """Equal JSON values, floats compared bit for bit (NaN equal to NaN)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(same_bits(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same_bits, a, b))
    if isinstance(a, float):
        return isinstance(b, float) and (math.isnan(a) and math.isnan(b)
                                         or np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64))
    return type(a) is type(b) and a == b


def assert_encoded(out: bytes, doc) -> None:
    """``out`` is the reference text of ``doc`` and reads back bit-exactly."""
    assert out == reference_bytes(doc)
    assert same_bits(json.loads(out), doc)


def ensemble(trace_distance):
    return EnsembleResult(
        times=np.array([0.0, 0.001]),
        mean_rho=np.array([
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.999, 0.1 - 1e-17j], [0.1 + 1e-17j, 1 / 1000]],
        ]),
        stderr=np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.01, 2 / 3], [2 / 3, 0.01]]]),
        trace_distance_to_exact=trace_distance,
    )


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


class TestGoldenBytes:
    def test_rate_report(self, tmp_path):
        assert written(tmp_path, io.write_rate_report, DECOMPOSITION) == (
            b"time,q_0,q_1,negative_flag,singular_flag,condition_estimate\r\n"
            b"0,0.5,-0.33333333333333331,1,0,1\r\n"
            b"0.10000000000000001,nan,-0,0,1,12345.7\r\n"
            b"0.25,9.9999999999999694e-311,2.5e+17,0,1,inf\r\n"
        )

    def test_hamiltonians(self, tmp_path):
        # H of the rotating frames by np.gradient's one-sided and
        # non-uniform central stencils
        assert_encoded(written(tmp_path, io.write_hamiltonians, DECOMPOSITION), json.loads(
            b'{"times": [0.0, 0.1, 0.25], "hamiltonians": '
            b"[[[[-1.9767681165408388, 0.0], [-0.1490027457779453, -0.9858903020239316]], "
            b"[[-0.1490027457779453, 0.9858903020239316], [0.9933466539753062, 0.0]]], "
            b"[[[-1.9359588060564983, 0.0], [-0.29283529933128677, -0.9788992534136728]], "
            b"[[-0.29283529933128677, 0.9788992534136728], [0.960727981952526, 0.0]]], "
            b"[[[-1.8747448403299887, 0.0], [-0.508584129661299, -0.9684126804982846]], "
            b"[[-0.508584129661299, 0.9684126804982846], [0.9117999739183555, 0.0]]]]}"
        ))

    def test_trajectory(self, tmp_path):
        out = written(tmp_path, io.write_trajectory, Trajectory(TIMES, SPECIAL_STACK))
        assert_encoded(out, json.loads(
            b'{"dim": 2, "times": [0.0, 0.1, 0.25], "rho": '
            b"[[[[0.5, 0.0], [0.1, -0.2]], [[0.1, 0.2], [-0.5, 0.0]]], "
            b"[[[0.3333333333333333, 0.0], [-0.0, 0.0]], [[-0.0, -0.0], [5e-324, 0.0]]], "
            b"[[[1e+300, 0.0], [0.0, 2.5]], [[-0.0, -2.5], [-1e-300, 0.0]]]]}"
        ))

    def test_ensemble_with_trace_distance(self, tmp_path):
        out = written(tmp_path, io.write_ensemble_csv, ensemble(np.array([0.0, 1.2345678901234567e-5])))
        assert out == ENSEMBLE_HEADER + (
            b"0,1,0,0,0,0,0,0,0,0,0,0,0,0\r\n"
            b"0.001,0.999,0,0.10000000000000001,-1.0000000000000001e-17,"
            b"0.10000000000000001,1.0000000000000001e-17,0.001,0,"
            b"0.01,0.66666666666666663,0.66666666666666663,0.01,1.2345678901234568e-05\r\n"
        )

    def test_channel_with_kraus(self, tmp_path):
        # the pairs derived from CHANNEL: K_1 = sqrt(0.25) U_1 = 0.5 e^{0.3i} sigma_x
        # and Kbar_1 = -K_1^dagger
        assert_encoded(written(tmp_path, io.write_channel_json, CHANNEL), json.loads(CHANNEL_JSON + (
            b', "kraus_like": [{"k": [[[1.118033988749895, 0.0], [0.0, 0.0]], '
            b'[[0.0, 0.0], [1.118033988749895, 0.0]]], "kbar": [[[1.118033988749895, 0.0], '
            b'[0.0, 0.0]], [[0.0, 0.0], [1.118033988749895, 0.0]]], "sign": 1}, '
            b'{"k": [[[0.0, 0.0], [0.477668244562803, 0.14776010333066977]], '
            b'[[0.477668244562803, 0.14776010333066977], [0.0, 0.0]]], '
            b'"kbar": [[[0.0, 0.0], [-0.477668244562803, 0.14776010333066977]], '
            b'[[-0.477668244562803, 0.14776010333066977], [0.0, 0.0]]], "sign": -1}]}'
        )))


finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
tiny = st.floats(min_value=-1e-3, max_value=1e-3, allow_subnormal=True)


@st.composite
def density_matrices(draw, d):
    """Diagonally dominant states whose entries include -0.0 and subnormals."""
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=d, max_size=d)))
    rho = np.diag(weights / weights.sum()).astype(complex)
    rho.imag[np.diag_indices(d)] = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=d, max_size=d))
    for i in range(d):
        for j in range(i + 1, d):
            rho[i, j] = complex(draw(tiny), draw(tiny))
            rho[j, i] = rho[i, j].conjugate()
    return rho


@st.composite
def trajectories(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    times = draw(st.lists(finite, min_size=n, max_size=n))
    return Trajectory(np.array(times), np.stack([draw(density_matrices(d)) for _ in times]))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(trajectory=trajectories())
    def test_trajectory_is_bit_exact(self, tmp_path_factory, trajectory):
        path = tmp_path_factory.mktemp("traj") / "t.json"
        io.write_trajectory(path, trajectory)
        back = io.read_trajectory(path)
        assert len(back) == len(trajectory.rhos)
        assert np.array_equal(bits(back.times), bits(trajectory.times))
        assert np.array_equal(bits(back.rhos), bits(trajectory.rhos))

    def test_trajectory_of_any_states_is_bit_exact(self, tmp_path):
        # the reader checks the format, not the states: a state with
        # eigenvalue -0.2 comes back as written
        trajectory = Trajectory([0.0, 0.1], [np.diag([1.0, 0.0]), np.diag([1.2, -0.2])])
        io.write_trajectory(tmp_path / "t.json", trajectory)
        back = io.read_trajectory(tmp_path / "t.json")
        assert np.array_equal(bits(back.times), bits(trajectory.times))
        assert np.array_equal(bits(back.rhos), bits(trajectory.rhos))

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 4).flatmap(
        lambda d: hnp.arrays(complex, (d, d), elements=st.complex_numbers(
            allow_nan=False, allow_infinity=False, allow_subnormal=True))))
    def test_matrix_file_is_bit_exact(self, tmp_path_factory, m):
        path = tmp_path_factory.mktemp("mat") / "m.json"
        io.write_matrix_file(path, m)
        assert np.array_equal(bits(io.read_matrix_file(path)), bits(m))


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
json_values = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=30,
)
# nested number lists near the [re, im] layout: non-square, ragged, triples, NaN
near_matrices = st.lists(
    st.lists(st.lists(st.floats() | st.integers(), min_size=1, max_size=3), min_size=1, max_size=3),
    min_size=1, max_size=3,
)


class TestDecoder:
    @settings(max_examples=300, deadline=None)
    @given(data=json_values | near_matrices)
    def test_decodes_finite_square_or_raises(self, data):
        try:
            m = io.matrix_from_json(data)
        except ValidationError:
            return
        assert m.dtype == complex and m.ndim == 2 and m.shape[0] == m.shape[1]
        assert np.isfinite(m).all()
        assert m.tolist() == [[complex(*e) for e in row] for row in data]

    @pytest.mark.parametrize(
        "data, expected",
        [
            ([[[1.0, 0.0, 2.0]]], "shape"),
            ([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], "ragged"),
            ([[[1.0, "0"]]], "numbers"),
            ([[[None, 0.0]]], "numbers"),
            ([[[1.0, float("inf")]]], "finite"),
            ([[[1.0, 0.0], [0.0, 0.0]]], "shape"),
            ([[[10**400, 0]]], "finite"),
        ],
    )
    def test_rejection_names_where(self, data, expected):
        with pytest.raises(ValidationError, match=f"^here: .*{expected}"):
            io.matrix_from_json(data, where="here")

    def test_integer_past_64_bits_decodes(self):
        # numpy holds 2**64 as an object, but a float holds it
        m = io.matrix_from_json([[[2**64, 0]]])
        assert m.tolist() == [[1.8446744073709552e19 + 0j]]

    def test_json_round_trip_of_a_stack(self):
        m = np.arange(8).reshape(2, 2, 2) * (1 - 0.5j)
        assert io.matrix_to_json(m) == [io.matrix_to_json(x) for x in m]
        back = [io.matrix_from_json(json.loads(json.dumps(x))) for x in io.matrix_to_json(m)]
        assert np.array_equal(back, m)


class TestRefusedWrite:
    def test_refused_trajectory_creates_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(ValidationError, match="trajectory states"):
            io.write_trajectory(path, Trajectory([0.0], [[["a"]]]))
        assert not path.exists()

    def test_values_are_encoded_before_the_file_opens(self, tmp_path):
        # a value json.dumps refuses, after a key that would be written first
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            io._write_json(path, {"dim": 1, "rho": np.eye(1), "bad": object()})
        assert not path.exists()


def awkward_stack(rng, n, d) -> np.ndarray:
    m = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    m[1, 0, 0], m[n // 2, 0, 1], m[-1, -1, -1] = -0.0, 5e-324 - 0.0j, 1e300 + 1e-300j
    return m


class TestAgainstReferenceEncoder:
    """Stacks longer than one encoding chunk give the reference bytes."""

    def test_hamiltonians_of_600_rows(self, tmp_path):
        rng = np.random.default_rng(6)
        times = np.cumsum(rng.uniform(size=600))
        frames = np.stack([random_unitary(rng, 3) for _ in times])
        dec = DecompositionSeries(np.zeros((600, 3)), np.zeros(600),
                                  EigenframeSeries(times, np.zeros((600, 3)), frames))
        assert_encoded(written(tmp_path, io.write_hamiltonians, dec),
                       {"times": times.tolist(), "hamiltonians": io.matrix_to_json(dec.hamiltonians)})

    def test_trajectory_of_600_rows(self, tmp_path):
        rng = np.random.default_rng(7)
        rhos = awkward_stack(rng, 600, 2)
        times = np.linspace(0.0, 0.6, 600)
        assert_encoded(written(tmp_path, io.write_trajectory, Trajectory(times, rhos)),
                       {"dim": 2, "times": times.tolist(), "rho": io.matrix_to_json(rhos)})

    def test_integer_states_are_written_as_floats(self, tmp_path):
        rhos = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
        trajectory = Trajectory(np.array([0.0, 1.0]), rhos)
        assert_encoded(written(tmp_path, io.write_trajectory, trajectory),
                       {"dim": 2, "times": [0.0, 1.0], "rho": io.matrix_to_json(rhos.astype(float))})

    def test_channel_with_kraus_at_d5(self, tmp_path):
        rng = np.random.default_rng(8)
        rho_in = random_density_matrix(rng, 5, min_gap=1e-2)
        u = random_unitary(rng, 5)
        decomp = decompose_channel(rho_in, 0.6 * rho_in + 0.4 * u @ rho_in @ u.conj().T)
        kraus = to_kraus_like(decomp)
        assert_encoded(written(tmp_path, io.write_channel_json, decomp), {
            "probabilities": decomp.probabilities.tolist(),
            "unitaries": io.matrix_to_json(decomp.unitaries),
            "classification": decomp.classification,
            "reconstruction_residual": float(decomp.reconstruction_residual),
            "kraus_like": [
                {"k": io.matrix_to_json(k), "kbar": io.matrix_to_json(kbar), "sign": int(s)}
                for (k, kbar), s in zip(kraus.operators, kraus.signs)
            ],
        })


# entries the encoder must write as the reference does: signed zeros and
# NaNs, infinities, subnormals, integral floats and the edges of the exact
# scaling range; every entry is also drawn with its sign flipped
special_floats = st.sampled_from([
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 2.2250738585072014e-308 / 3,
    1e16, 1e-5, 1e-4, 3.0, -7.0, 2.0**53, 0.1, 1e-6, 1e17, 1e15 + 0.25, 1e15 + 0.75,
])


# +-0, the edges of the exact scaling range (1e-6, 1e17) and the floats on
# both sides of every power of ten in [1e-6, 1e17]
SCALING_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308] + [
    y for j in range(-6, 18) for y in np.nextafter(float(f"1e{j}"), [0.0, np.inf, float(f"1e{j}")]).tolist()
]


class TestFloatEncoder:
    @settings(max_examples=200, deadline=None)
    @given(x=hnp.arrays(float, st.integers(1, 300),
                        elements=st.floats(allow_subnormal=True) | st.sampled_from(SCALING_EDGES)))
    def test_any_floats_match_percent_16e(self, x):
        x = np.concatenate((x, -x))
        slots = io._float_slots(x).astype("<u8").view(np.uint8).reshape(len(x), -1)
        assert [bytes(s).replace(b"\0", b"").decode() for s in slots] == list(map(percent_16e, x.tolist()))

    def test_stack_at_d16(self, tmp_path):
        rng = np.random.default_rng(16)
        rhos = awkward_stack(rng, 40, 16)
        times = np.linspace(0.0, 1.0, 40)
        assert_encoded(written(tmp_path, io.write_trajectory, Trajectory(times, rhos)),
                       {"dim": 16, "times": times.tolist(), "rho": io.matrix_to_json(rhos)})


@st.composite
def awkward_stacks(draw):
    """Complex (n, d, d) stacks over a few drawn magnitudes, with n either
    side of the encoding chunk; Hermitian ones mirror their entries exactly."""
    n = draw(st.sampled_from([1, 2, 255, 256, 257, 513]))
    d = draw(st.integers(1, 6))
    pool = np.array(draw(st.lists(special_floats | st.floats(), min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.choice(pool, size=(n, d, d, 2))
    m = np.where(rng.random(x.shape) < 0.5, -x, x).view(complex)[..., 0]
    if draw(st.booleans()):
        rows, cols = np.triu_indices(d, 1)
        m[:, cols, rows] = m[:, rows, cols].conj()
        m.imag[:, np.arange(d), np.arange(d)] = 0.0
    return m


class TestEncoderProperties:
    """The JSON writers give the reference bytes, and the CSV writers those of
    np.savetxt called with their formats, on any floats, whatever their
    symmetry."""

    @settings(max_examples=40, deadline=None)
    @given(m=awkward_stacks())
    def test_matrix_stacks_match_reference(self, tmp_path_factory, m):
        tmp_path = tmp_path_factory.mktemp("stack")
        times = np.arange(len(m)) * 0.1
        assert_encoded(written(tmp_path, io.write_trajectory, Trajectory(times, m)),
                       {"dim": m.shape[1], "times": times.tolist(), "rho": io.matrix_to_json(m)})
        assert_encoded(written(tmp_path, io.write_matrix_file, m[-1]),
                       {"dim": m.shape[1], "matrix": io.matrix_to_json(m[-1])})

    @settings(max_examples=30, deadline=None)
    @given(m=awkward_stacks())
    def test_tables_match_savetxt(self, tmp_path_factory, m):
        tmp_path = tmp_path_factory.mktemp("table")
        n, d = m.shape[:2]
        rng = np.random.default_rng(n * d)
        # a decomposition grid holds at least two increasing times, so the
        # table takes one row more than the stack: its last row's rates are
        # the first row's imaginary parts
        rates = np.concatenate((m.real[:, 0, :], m.imag[:1, 0, :]))
        times = np.cumsum(rng.lognormal(size=n + 1))
        condition = np.where(rng.random(n + 1) < 0.3, np.inf, rng.lognormal(size=n + 1))
        frames = EigenframeSeries(times, np.zeros((n + 1, d)), np.zeros((n + 1, d, d)))
        decomposition = DecompositionSeries(rates=rates, condition_estimates=condition, frames=frames)
        flags = decomposition.negative_flags, decomposition.singular_flags
        assert written(tmp_path, io.write_rate_report, decomposition) == savetxt_bytes(
            tmp_path,
            ["time", *(f"q_{i}" for i in range(d)), "negative_flag", "singular_flag",
             "condition_estimate"],
            np.column_stack((times, rates, *flags, condition)),
            ["%.17g"] * (d + 1) + ["%d", "%d", "%.6g"],
        )

        exact = m.real[:, -1, -1]
        result = EnsembleResult(
            times=m.imag[:, -1, 0], mean_rho=m, stderr=m.imag, trace_distance_to_exact=exact
        )
        entries = [f"{i}{j}" for i in range(d) for j in range(d)]
        assert written(tmp_path, io.write_ensemble_csv, result) == savetxt_bytes(
            tmp_path,
            ["time", *(f"mean_{e}_{part}" for e in entries for part in ("re", "im")),
             *(f"stderr_{e}" for e in entries), "trace_distance_to_exact"],
            np.column_stack((result.times, m.view(float).reshape(n, -1), m.imag.reshape(n, -1),
                             exact)),
            ["%.17g"] * (2 + 3 * d * d),
        )


def savetxt_bytes(tmp_path, header, table, fmt) -> bytes:
    """``table`` as np.savetxt writes it with CRLF lines under ``header``."""
    path = tmp_path / "savetxt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")
    return path.read_bytes()
