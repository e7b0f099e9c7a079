"""The file contract of probunitary.io: the exact bytes every writer
produces, bit-exact round trips, and rejection of malformed matrices."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from probunitary import io
from probunitary.channel import (
    ChannelDecomposition,
    KrausLikeForm,
    decompose_channel,
    to_kraus_like,
)
from probunitary.decomposition import DecompositionSeries, TrajectorySample
from probunitary.errors import ValidationError
from probunitary.montecarlo import EnsembleResult

from conftest import random_density_matrix, random_unitary

# writers ignore the frames
DECOMPOSITION = DecompositionSeries(
    times=np.array([0.0, 0.1, 0.25]),
    rates=np.array([[0.5, 1 / 3], [np.nan, -0.0], [1e-310, 2.5e17]]),
    negative_flags=np.array([False, True, False]),
    singular_flags=np.array([False, False, True]),
    condition_estimates=np.array([1.0, 12345.678912, np.inf]),
    frames=None,
)

# Hamiltonians on DECOMPOSITION's grid, as write_hamiltonians receives them
HAMILTONIANS = np.array([
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
    classification="quasi_probability",
    reconstruction_residual=2.220446049250313e-16,
    pairing=np.array([1, 0]),
)

CHANNEL_JSON = (
    b'{"probabilities": [1.25, -0.25], "unitaries": [[[[1.0, 0.0], [0.0, 0.0]], '
    b'[[0.0, 0.0], [1.0, 0.0]]], [[[0.0, 0.0], [0.955336489125606, '
    b'0.29552020666133955]], [[0.955336489125606, 0.29552020666133955], '
    b'[0.0, 0.0]]]], "classification": "quasi_probability", '
    b'"reconstruction_residual": 2.220446049250313e-16, "pairing": [1, 0]'
)


def written(tmp_path, writer, *args) -> bytes:
    path = tmp_path / "out"
    writer(path, *args)
    return path.read_bytes()


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
            b"0,0.5,0.33333333333333331,0,0,1\r\n"
            b"0.10000000000000001,nan,-0,1,0,12345.7\r\n"
            b"0.25,9.9999999999999694e-311,2.5e+17,0,1,inf\r\n"
        )

    def test_hamiltonians(self, tmp_path):
        assert written(tmp_path, io.write_hamiltonians, DECOMPOSITION.times, HAMILTONIANS) == (
            b'{"times": [0.0, 0.1, 0.25], "hamiltonians": '
            b"[[[[0.5, 0.0], [0.1, -0.2]], [[0.1, 0.2], [-0.5, 0.0]]], "
            b"[[[0.3333333333333333, 0.0], [-0.0, 0.0]], [[-0.0, -0.0], [5e-324, 0.0]]], "
            b"[[[1e+300, 0.0], [0.0, 2.5]], [[-0.0, -2.5], [-1e-300, 0.0]]]]}"
        )

    def test_ensemble_with_trace_distance(self, tmp_path):
        out = written(tmp_path, io.write_ensemble_csv, ensemble(np.array([0.0, 1.2345678901234567e-5])))
        assert out == ENSEMBLE_HEADER + (
            b"0,1,0,0,0,0,0,0,0,0,0,0,0,0\r\n"
            b"0.001,0.999,0,0.10000000000000001,-1.0000000000000001e-17,"
            b"0.10000000000000001,1.0000000000000001e-17,0.001,0,"
            b"0.01,0.66666666666666663,0.66666666666666663,0.01,1.2345678901234568e-05\r\n"
        )

    def test_ensemble_without_trace_distance(self, tmp_path):
        out = written(tmp_path, io.write_ensemble_csv, ensemble(None))
        assert out == ENSEMBLE_HEADER + (
            b"0,1,0,0,0,0,0,0,0,0,0,0,0,\r\n"
            b"0.001,0.999,0,0.10000000000000001,-1.0000000000000001e-17,"
            b"0.10000000000000001,1.0000000000000001e-17,0.001,0,"
            b"0.01,0.66666666666666663,0.66666666666666663,0.01,\r\n"
        )

    def test_channel_without_kraus(self, tmp_path):
        assert written(tmp_path, io.write_channel_json, CHANNEL) == CHANNEL_JSON + b"}"

    def test_channel_with_kraus(self, tmp_path):
        kraus = KrausLikeForm(
            operators=np.array([
                (np.sqrt(1.25) * np.eye(2), np.sqrt(1.25) * np.eye(2)),
                (0.5 * SIGMA_X, -0.5 * SIGMA_X),
            ]),
            signs=np.array([1, -1]),
        )
        assert written(tmp_path, io.write_channel_json, CHANNEL, kraus) == CHANNEL_JSON + (
            b', "kraus_like": [{"k": [[[1.118033988749895, 0.0], [0.0, 0.0]], '
            b'[[0.0, 0.0], [1.118033988749895, 0.0]]], "kbar": [[[1.118033988749895, 0.0], '
            b'[0.0, 0.0]], [[0.0, 0.0], [1.118033988749895, 0.0]]], "sign": 1}, '
            b'{"k": [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]], '
            b'"kbar": [[[-0.0, 0.0], [-0.5, 0.0]], [[-0.5, 0.0], [-0.0, 0.0]]], '
            b'"sign": -1}]}'
        )


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
    return [TrajectorySample(time=t, rho=draw(density_matrices(d))) for t in times]


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(samples=trajectories())
    def test_trajectory_is_bit_exact(self, tmp_path_factory, samples):
        path = tmp_path_factory.mktemp("traj") / "t.json"
        io.write_trajectory(path, samples)
        back = io.read_trajectory(path)
        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            assert bits(np.float64(a.time)) == bits(np.float64(b.time))
            assert np.array_equal(bits(a.rho), bits(b.rho))

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
        ],
    )
    def test_rejection_names_where(self, data, expected):
        with pytest.raises(ValidationError, match=f"^here: .*{expected}"):
            io.matrix_from_json(data, where="here")

    def test_json_round_trip_of_a_stack(self):
        m = np.arange(8).reshape(2, 2, 2) * (1 - 0.5j)
        assert io.matrix_to_json(m) == [io.matrix_to_json(x) for x in m]
        back = [io.matrix_from_json(json.loads(json.dumps(x))) for x in io.matrix_to_json(m)]
        assert np.array_equal(back, m)


def reference_bytes(tmp_path, doc) -> bytes:
    """``doc`` as the streaming pure-Python ``json.dump`` writes it."""
    path = tmp_path / "reference"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path.read_bytes()


def awkward_stack(rng, n, d) -> np.ndarray:
    m = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    m[1, 0, 0], m[n // 2, 0, 1], m[-1, -1, -1] = -0.0, 5e-324 - 0.0j, 1e300 + 1e-300j
    return m


class TestAgainstReferenceEncoder:
    """Stacks longer than one encoding chunk give json.dump's bytes."""

    def test_hamiltonians_of_600_rows(self, tmp_path):
        rng = np.random.default_rng(6)
        times, hamiltonians = np.cumsum(rng.uniform(size=600)), awkward_stack(rng, 600, 3)
        assert written(tmp_path, io.write_hamiltonians, times, hamiltonians) == reference_bytes(
            tmp_path, {"times": times.tolist(), "hamiltonians": io.matrix_to_json(hamiltonians)}
        )

    def test_trajectory_of_600_rows(self, tmp_path):
        rng = np.random.default_rng(7)
        rhos = awkward_stack(rng, 600, 2)
        times = np.linspace(0.0, 0.6, 600)
        samples = [TrajectorySample(time=t, rho=r) for t, r in zip(times.tolist(), rhos)]
        assert written(tmp_path, io.write_trajectory, samples) == reference_bytes(
            tmp_path, {"dim": 2, "times": times.tolist(), "rho": io.matrix_to_json(rhos)}
        )

    def test_channel_with_kraus_at_d5(self, tmp_path):
        rng = np.random.default_rng(8)
        rho_in = random_density_matrix(rng, 5, min_gap=1e-2)
        u = random_unitary(rng, 5)
        decomp = decompose_channel(rho_in, 0.6 * rho_in + 0.4 * u @ rho_in @ u.conj().T)
        kraus = to_kraus_like(decomp)
        assert written(tmp_path, io.write_channel_json, decomp, kraus) == reference_bytes(tmp_path, {
            "probabilities": decomp.probabilities.tolist(),
            "unitaries": io.matrix_to_json(decomp.unitaries),
            "classification": decomp.classification,
            "reconstruction_residual": float(decomp.reconstruction_residual),
            "pairing": np.asarray(decomp.pairing).tolist(),
            "kraus_like": [
                {"k": io.matrix_to_json(k), "kbar": io.matrix_to_json(kbar), "sign": int(s)}
                for (k, kbar), s in zip(kraus.operators, kraus.signs)
            ],
        })
