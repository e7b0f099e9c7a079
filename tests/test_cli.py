import json

import numpy as np
import pytest

from probunitary import io, models
from probunitary.cli import EXIT_OK, EXIT_SINGULAR, EXIT_UNPHYSICAL, EXIT_VALIDATION, main
from probunitary.decomposition import TrajectorySample, decompose_trajectory


def write_spec(path, jump_ops):
    doc = {
        "hamiltonian": io.matrix_to_json(np.diag([0.5, -0.5])),
        "jump_ops": jump_ops,
        "rho0": io.matrix_to_json(np.diag([0.7, 0.3])),
    }
    path.write_text(json.dumps(doc))
    return str(path)


def decompose_argv(tmp_path, spec, *extra):
    return [
        "decompose", "--model", "lindblad", "--lindblad-spec", spec,
        "--horizon", "0.05", "--out", str(tmp_path / "run"), *extra,
    ]


SIGMA_X = io.matrix_to_json(np.array([[0, 1], [1, 0]]))


@pytest.mark.parametrize(
    "entry, expected",
    [
        ({"gamma": 1.0}, "'operator'"),
        ({"operator": SIGMA_X, "gamma": "fast"}, "gamma"),
        ({"operator": SIGMA_X, "gamma": None}, "gamma"),
        ([SIGMA_X, 1.0], "'operator'"),
        ({"operator": SIGMA_X, "gamma": "0.5"}, "gamma"),
        ({"operator": SIGMA_X, "gamma": True}, "gamma"),
    ],
)
def test_bad_jump_op_entry_exits_2(tmp_path, capsys, entry, expected):
    spec = write_spec(tmp_path / "spec.json", [{"operator": SIGMA_X}, entry])
    assert main(decompose_argv(tmp_path, spec)) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert f"{spec}: jump_ops[1]" in err and expected in err


@pytest.mark.parametrize("dt", ["0", "-1e-3", "nan"])
def test_nonpositive_dt_exits_2(tmp_path, capsys, dt):
    spec = write_spec(tmp_path / "spec.json", [])
    assert main(decompose_argv(tmp_path, spec, f"--dt={dt}")) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "--dt" in err


def test_level_splitting_option_removed(tmp_path):
    # the closed-form models never used it
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--model", "jc", "--level-splitting", "2",
              "--out", str(tmp_path / "run")])
    assert exc.value.code == EXIT_VALIDATION


def test_decompose_writes_rates_and_hamiltonians(tmp_path):
    spec = write_spec(tmp_path / "spec.json", [{"operator": SIGMA_X, "gamma": 0.5}])
    assert main(decompose_argv(tmp_path, spec, "--dt", "1e-2")) == EXIT_OK
    written = sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("run"))
    assert written == ["run.hamiltonians.json", "run.rates.csv"]
    doc = json.loads((tmp_path / "run.hamiltonians.json").read_text())
    assert len(doc["times"]) == 6 and len(doc["hamiltonians"]) == 6

    # the written H and q are bit-equal to an in-process decomposition of
    # the same spec on the same grid: H is rebuilt from the rates' frames
    spec_doc = json.loads((tmp_path / "spec.json").read_text())
    lindblad = models.LindbladSpec(
        hamiltonian=io.matrix_from_json(spec_doc["hamiltonian"]),
        jump_ops=((io.matrix_from_json(SIGMA_X), 0.5),),
    )
    samples = models.integrate(lindblad, io.matrix_from_json(spec_doc["rho0"]),
                               np.arange(0.0, 0.05 + 1e-2 / 2, 1e-2))
    dec = decompose_trajectory(samples)
    hamiltonians = np.stack([io.matrix_from_json(h) for h in doc["hamiltonians"]])
    assert np.array_equal(doc["times"], dec.times)
    assert np.array_equal(hamiltonians, dec.hamiltonians)
    table = np.loadtxt(tmp_path / "run.rates.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 1:3], dec.rates)


@pytest.mark.parametrize(
    "argv",
    [
        # below ln 2, where amplitude damping is flagged, so that the
        # ensemble is allocated rather than refused
        ["simulate", "--model", "amplitude-damping", "--horizon", "0.5",
         "--trajectories", "1000000000000000"],
        ["decompose", "--model", "jc", "--dt", "1e-15"],
    ],
)
def test_petabyte_input_exits_2(tmp_path, capsys, argv):
    # petabyte arrays fail at allocation at once, before any work
    assert main([*argv, "--out", str(tmp_path / "run")]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def write_trajectory_doc(tmp_path, edit):
    """An amplitude-damping trajectory file with one field edited."""
    path = tmp_path / "traj.json"
    io.write_trajectory(path, models.sample_model("amplitude-damping", np.linspace(0, 0.05, 6)))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def test_trajectory_input_decomposes(tmp_path):
    path = write_trajectory_doc(tmp_path, lambda doc: None)
    assert main(["decompose", "--input", path, "--out", str(tmp_path / "run")]) == EXIT_OK


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda doc: doc.update(dim="two"), "dim"),
        (lambda doc: doc["times"].__setitem__(1, "soon"), "times"),
        (lambda doc: doc["rho"][2][0].__setitem__(1, [0.0, 0.0, 1.0]), "entry 2"),
        # checked against the entries before anything of dim's size exists
        (lambda doc: doc.update(dim=1_000_000), "entry 0 has shape"),
    ],
)
def test_bad_trajectory_file_exits_2(tmp_path, capsys, edit, expected):
    path = write_trajectory_doc(tmp_path, edit)
    assert main(["decompose", "--input", path, "--out", str(tmp_path / "run")]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ") and expected in err


def test_simulate_input_runs_on_the_file_grid(tmp_path):
    # the file's 0.01 spacing, not the default --dt of 1e-3, sets the steps
    path = tmp_path / "traj.json"
    io.write_trajectory(path, models.sample_model("amplitude-damping", np.linspace(0, 0.5, 51)))
    argv = ["simulate", "--input", str(path), "--horizon", "0.5", "--trajectories", "50",
            "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_OK
    table = np.loadtxt(tmp_path / "run.ensemble.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(table[:, 0], np.linspace(0, 0.5, 51), rtol=0, atol=1e-15)


def test_nan_hamiltonian_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", [])
    doc = json.loads((tmp_path / "spec.json").read_text())
    doc["hamiltonian"][0][0][0] = float("nan")
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    assert main(decompose_argv(tmp_path, spec)) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"{spec}: hamiltonian" in err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_exits_2(tmp_path, capsys, seed):
    argv = ["simulate", "--model", "amplitude-damping", "--horizon", "0.01",
            "--trajectories", "3", "--seed", str(seed), "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "seed" in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000, None])
def test_unreadable_input_exits_2(tmp_path, capsys, content):
    # bytes that are not UTF-8, nesting deeper than the parser's recursion
    # limit, or a directory in place of a file
    path = tmp_path / "rho.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    argv = ["channel", "--rho-in", str(path), "--rho-out", str(path), "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and str(path) in err


def test_step_too_large_exits_2(tmp_path, capsys):
    # q dt > 1 on the first step of a fast decay
    argv = ["simulate", "--model", "amplitude-damping", "--gamma", "60", "--dt", "0.01",
            "--horizon", "0.01", "--trajectories", "5", "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "jump probability" in err


def test_trajectory_too_coarse_exits_2(tmp_path, capsys):
    # the eigenframe turns by far more than a radian between grid points
    doc = {
        "hamiltonian": io.matrix_to_json(20 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])),
        "rho0": io.matrix_to_json(np.diag([0.6, 0.3, 0.1])),
    }
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    argv = decompose_argv(tmp_path, str(spec), "--dt", "0.3", "--horizon", "1.5")
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "overlap" in err


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("rho0", np.diag([0.7, 0.7]), "rho0: density matrix trace"),
        ("hamiltonian", np.array([[0.5, 1.0], [0.0, -0.5]]), "Hermitian"),
        ("rho0", np.diag([0.5, 0.3, 0.2]), "rho0: shape (3, 3) differs from hamiltonian"),
    ],
)
def test_bad_spec_matrix_exits_2_naming_file(tmp_path, capsys, key, value, expected):
    spec = write_spec(tmp_path / "spec.json", [])
    doc = json.loads((tmp_path / "spec.json").read_text())
    doc[key] = io.matrix_to_json(value)
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    assert main(decompose_argv(tmp_path, spec)) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {spec}: ") and expected in err


def test_flagged_horizon_exits_4(tmp_path, capsys):
    argv = ["simulate", "--model", "jc", "--horizon", "7", "--trajectories", "5",
            "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_UNPHYSICAL
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_constant_maximally_mixed_trajectory_exits_3(tmp_path, capsys):
    path = tmp_path / "traj.json"
    io.write_trajectory(path, [TrajectorySample(t, np.eye(2) / 2) for t in (0.0, 0.1, 0.2)])
    assert main(["decompose", "--input", str(path), "--out", str(tmp_path / "run")]) == EXIT_SINGULAR
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not any(p.name.startswith("run") for p in tmp_path.iterdir())


def channel_argv(tmp_path, rho_in, rho_out):
    """Write rho_in and rho_out as matrix files; argv of the channel command on them."""
    for name, m in (("in", rho_in), ("out", rho_out)):
        io.write_matrix_file(tmp_path / f"{name}.json", m)
    return ["channel", "--rho-in", str(tmp_path / "in.json"), "--rho-out",
            str(tmp_path / "out.json"), "--out", str(tmp_path / "run")]


def test_consistent_singular_channel_writes_no_kraus_like(tmp_path):
    argv = channel_argv(tmp_path, np.diag([0.3, 0.3, 0.2, 0.2]), np.diag([0.45, 0.45, 0.05, 0.05]))
    assert main(argv) == EXIT_OK
    doc = json.loads((tmp_path / "run.channel.json").read_text())
    assert doc["classification"] == "singular" and "kraus_like" not in doc


@pytest.mark.parametrize("dim", [3, "x"])
def test_matrix_file_dim_must_match_exits_2(tmp_path, capsys, dim):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"dim": dim, "matrix": io.matrix_to_json(np.diag([0.7, 0.3]))}))
    argv = ["channel", "--rho-in", str(path), "--rho-out", str(path), "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: dim ")
    assert not (tmp_path / "run.channel.json").exists()


def test_singular_channel_exits_3(tmp_path, capsys):
    assert main(channel_argv(tmp_path, np.eye(2) / 2, np.diag([0.7, 0.3]))) == EXIT_SINGULAR
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
