import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from probunitary import cli, io, linalg, models
from probunitary.cli import EXIT_OK, EXIT_SINGULAR, EXIT_UNPHYSICAL, EXIT_VALIDATION, main
from probunitary.decomposition import Trajectory, decompose_trajectory

from conftest import random_unitary


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
        ({"operator": SIGMA_X, "gamma": 10**400}, "gamma"),
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


@pytest.mark.parametrize("option", [["--dt", "2"], ["--horizon", "0"], ["--horizon", "-5"]])
def test_grid_of_fewer_than_two_points_exits_2(tmp_path, capsys, option):
    argv = ["decompose", "--model", "jc", *option, "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "--dt" in err and "--horizon" in err


@pytest.mark.parametrize("argv, expected", [
    (["decompose"], "either --model or --input is required"),
    (["simulate", "--trajectories", "5"], "either --model or --input is required"),
    (["decompose", "--model", "lindblad"], "--model lindblad requires --lindblad-spec"),
    # one trajectory source per run: a second one is refused, not dropped
    (["decompose", "--model", "jc", "--input", "traj.json"], "--input takes no --model"),
    (["simulate", "--input", "traj.json", "--lindblad-spec", "spec.json"],
     "--input takes no --model or --lindblad-spec"),
    (["decompose", "--model", "lindblad", "--lindblad-spec", "spec.json", "--input", "traj.json"],
     "--input takes no --model"),
    (["decompose", "--model", "jc", "--lindblad-spec", "/nonexistent", "--horizon", "0.1"],
     "only it takes one"),
    (["simulate", "--lindblad-spec", "spec.json"], "only it takes one"),
])
def test_missing_trajectory_source_exits_2(tmp_path, capsys, monkeypatch, argv, expected):
    # the files a row names are valid: a second source is refused, not dropped
    monkeypatch.chdir(tmp_path)
    io.write_trajectory("traj.json", models.sample_model("amplitude-damping", [0.0, 0.01, 0.02]))
    write_spec(tmp_path / "spec.json", [])
    assert main([*argv, "--out", str(tmp_path / "run")]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and expected in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["spec.json", "traj.json"]


def test_models_lists_one_line_per_model(capsys):
    assert main(["models"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(models.MODEL_CATALOGUE)
    for line, (name, info) in zip(lines, models.MODEL_CATALOGUE.items()):
        assert line == f"{name}: {info['description']} (params: {', '.join(info['params'])})"


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
    dec = decompose_trajectory(models.integrate(
        lindblad, io.matrix_from_json(spec_doc["rho0"]), np.arange(0.0, 0.05 + 1e-2 / 2, 1e-2)))
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
        # grids past the address space, refused before numpy sees them
        ["decompose", "--model", "jc", "--dt", "1e-300"],
        ["decompose", "--model", "jc", "--horizon", "1e300"],
        # a count past numpy's intp, refused by SimConfig
        ["simulate", "--model", "amplitude-damping", "--horizon", "0.01",
         "--trajectories", "100000000000000000000"],
        # a count that fits an intp, but d labels per trajectory do not
        ["simulate", "--model", "amplitude-damping", "--horizon", "0.01",
         "--trajectories", "9223372036854775807"],
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
        (lambda doc: doc.update(times=[]), "times is not a nonempty list"),
        (lambda doc: doc["rho"].__setitem__(3, io.matrix_to_json(np.diag([0.7, 0.7]))),
         "entry 3: density matrix trace"),
    ],
)
def test_bad_trajectory_file_exits_2(tmp_path, capsys, edit, expected):
    path = write_trajectory_doc(tmp_path, edit)
    assert main(["decompose", "--input", path, "--out", str(tmp_path / "run")]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ") and expected in err


def test_unordered_input_times_exit_2(tmp_path, capsys):
    # a trajectory file holds any time order and one time or more; the grid
    # rule refuses a reversed or a one-time file, and the refusal names it
    def one_time(doc):
        doc["times"], doc["rho"] = doc["times"][:1], doc["rho"][:1]

    for edit in (lambda doc: doc["times"].reverse(), one_time):
        path = write_trajectory_doc(tmp_path, edit)
        for command in ("decompose", "simulate"):
            argv = [command, "--input", path, "--out", str(tmp_path / "run")]
            assert main(argv) == EXIT_VALIDATION
            err = capsys.readouterr().err.strip()
            assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")
            assert "strictly increasing times" in err


def test_simulate_input_runs_on_the_file_grid(tmp_path):
    # the file's 0.01 spacing and [0, 2] span, not the default --dt of 1e-3
    # and --horizon of 1.0, set the steps and the rows
    grid = np.linspace(0, 2, 201)
    path = tmp_path / "traj.json"
    io.write_trajectory(path, models.sample_model("amplitude-damping", grid,
                                                  models.ModelParams(gamma=0.3)))
    argv = ["simulate", "--input", str(path), "--trajectories", "50",
            "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_OK
    table = np.loadtxt(tmp_path / "run.ensemble.csv", delimiter=",", skiprows=1)
    assert table.shape[0] == 201
    np.testing.assert_allclose(table[:, 0], grid, rtol=0, atol=1e-15)


@pytest.mark.parametrize("command, extra", [
    ("decompose", ["--dt", "0"]),
    ("simulate", ["--dt", "nan", "--horizon", "0.5", "--trajectories", "20"]),
    ("simulate", ["--horizon", "nan", "--trajectories", "20"]),
])
def test_input_ignores_unused_dt(tmp_path, command, extra):
    # --dt and --horizon only space a --model grid; an --input file brings
    # its own times
    path = tmp_path / "traj.json"
    io.write_trajectory(path, models.sample_model("amplitude-damping", np.linspace(0, 0.5, 51)))
    assert main([command, "--input", str(path), *extra, "--out", str(tmp_path / "run")]) == EXIT_OK


def test_nan_hamiltonian_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", [])
    doc = json.loads((tmp_path / "spec.json").read_text())
    doc["hamiltonian"][0][0][0] = float("nan")
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    assert main(decompose_argv(tmp_path, spec)) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"{spec}: hamiltonian" in err


@pytest.mark.parametrize("option", ["--omega=inf", "--omega=nan", "--gamma=nan"])
def test_nonfinite_model_parameter_exits_2(tmp_path, capsys, option):
    argv = ["decompose", "--model", "jc", option, "--horizon", "0.1",
            "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "omega and gamma" in err


def test_jc_phase_overflow_exits_2(tmp_path, capsys):
    # omega * t is inf at t = 2
    argv = ["decompose", "--model", "jc", "--omega", "1e308", "--dt", "1", "--horizon", "10",
            "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "omega * t overflows" in err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_exits_2(tmp_path, capsys, seed):
    argv = ["simulate", "--model", "amplitude-damping", "--horizon", "0.01",
            "--trajectories", "3", "--seed", str(seed), "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "seed" in err


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100_000,
                pytest.param(b'{"dim": ' + b"1" * 5000 + b"}", id="5000-digit-dim"), None])
def test_unreadable_input_exits_2(tmp_path, capsys, content):
    # bytes that are not UTF-8, nesting deeper than the parser's recursion
    # limit, an integer past int's string-conversion digit limit, or a
    # directory in place of a file
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


def test_spec_with_jump_ops_not_a_list_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", {"operator": SIGMA_X})
    assert main(decompose_argv(tmp_path, spec)) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert err == f"error: {spec}: jump_ops is not a list"


def test_spec_without_rho0_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", [])
    doc = json.loads((tmp_path / "spec.json").read_text())
    del doc["rho0"]
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    assert main(decompose_argv(tmp_path, spec)) == EXIT_VALIDATION
    assert capsys.readouterr().err.strip().endswith(f"{spec}: missing key 'rho0'")


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("rho0", np.diag([0.7, 0.7]), "rho0: density matrix trace"),
        ("hamiltonian", np.array([[0.5, 1.0], [0.0, -0.5]]), "Hermitian"),
        # integrate owns the rule
        ("rho0", np.diag([0.5, 0.3, 0.2]), "rho0: state and Hamiltonian dimensions differ"),
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


def test_lindblad_run_checks_rho0_once(tmp_path):
    # one density check of rho0 (2-D) in integrate, then one of the
    # integrated stack (3-D) in align_eigenframes
    eigh, ndims = linalg._validated_eigh.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is eigh:
            ndims.append(np.ndim(frame.f_locals["rho"]))

    spec = write_spec(tmp_path / "spec.json", [{"operator": SIGMA_X}])
    sys.setprofile(profile)
    try:
        status = main(decompose_argv(tmp_path, spec))
    finally:
        sys.setprofile(None)
    assert status == EXIT_OK
    assert ndims == [2, 3]


def test_flagged_horizon_exits_4(tmp_path, capsys):
    argv = ["simulate", "--model", "jc", "--horizon", "7", "--trajectories", "5",
            "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_UNPHYSICAL
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_constant_maximally_mixed_trajectory_exits_3(tmp_path, capsys):
    path = tmp_path / "traj.json"
    io.write_trajectory(path, Trajectory(np.array([0.0, 0.1, 0.2]), np.tile(np.eye(2) / 2, (3, 1, 1))))
    assert main(["decompose", "--input", str(path), "--out", str(tmp_path / "run")]) == EXIT_SINGULAR
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not any(p.name.startswith("run") for p in tmp_path.iterdir())


def channel_argv(tmp_path, rho_in, rho_out):
    """Write rho_in and rho_out as matrix files; argv of the channel command on them."""
    for name, m in (("in", rho_in), ("out", rho_out)):
        io.write_matrix_file(tmp_path / f"{name}.json", m)
    return ["channel", "--rho-in", str(tmp_path / "in.json"), "--rho-out",
            str(tmp_path / "out.json"), "--out", str(tmp_path / "run")]


@pytest.mark.parametrize("rho_in, rho_out", [
    (np.diag([0.3, 0.3, 0.2, 0.2]), np.diag([0.45, 0.45, 0.05, 0.05])),
    # the cyclic q reconstructs rho_out only to about 1e-8; before the
    # transposition tree this ended in a RuntimeError traceback
    (np.diag([0.3 + 1e-10, 0.3 - 1e-10, 0.2, 0.2]), np.diag([0.6, 0.2, 0.15, 0.05])),
], ids=["singular", "nearly-singular"])
def test_singular_cyclic_system_writes_kraus_like(tmp_path, rho_in, rho_out):
    assert main(channel_argv(tmp_path, rho_in, rho_out)) == EXIT_OK
    doc = json.loads((tmp_path / "run.channel.json").read_text())
    assert doc["classification"] == "quasi_probability" and len(doc["kraus_like"]) == 4


@pytest.mark.parametrize("dim", [3, "x"])
def test_matrix_file_dim_must_match_exits_2(tmp_path, capsys, dim):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"dim": dim, "matrix": io.matrix_to_json(np.diag([0.7, 0.3]))}))
    argv = ["channel", "--rho-in", str(path), "--rho-out", str(path), "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: dim ")
    assert not (tmp_path / "run.channel.json").exists()


@pytest.mark.parametrize("side", ["rho_in", "rho_out"])
def test_non_hermitian_channel_input_exits_2(tmp_path, capsys, side):
    bad = np.array([[0.7, 0.2], [0.0, 0.3]])
    pair = {"rho_in": np.diag([0.7, 0.3]), "rho_out": np.diag([0.6, 0.4]), side: bad}
    assert main(channel_argv(tmp_path, pair["rho_in"], pair["rho_out"])) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"{side}: " in err and "not Hermitian" in err
    assert not (tmp_path / "run.channel.json").exists()


def test_singular_channel_exits_3(tmp_path, capsys):
    assert main(channel_argv(tmp_path, np.eye(2) / 2, np.diag([0.7, 0.3]))) == EXIT_SINGULAR
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def run_call_sequence(tmp_path):
    """In one process: a channel call that fails to parse, then channel,
    simulate and decompose calls; returns the bytes of every file written."""
    tmp_path.mkdir()
    u = random_unitary(np.random.default_rng(3), 3)
    rho_in = u @ np.diag([0.5, 0.3, 0.2]) @ u.conj().T
    rho_out = 0.7 * rho_in + 0.3 * np.diag(np.diagonal(rho_in))
    argv = channel_argv(tmp_path, rho_in, rho_out)
    with pytest.raises(SystemExit) as exc:
        main(argv[:-2])  # no --out
    assert exc.value.code == EXIT_VALIDATION
    out = str(tmp_path / "run")
    assert main(argv) == EXIT_OK
    assert main(["simulate", "--model", "amplitude-damping", "--horizon", "0.05",
                 "--trajectories", "20", "--seed", "4", "--out", out]) == EXIT_OK
    assert main(["decompose", "--model", "jc", "--horizon", "0.1", "--out", out]) == EXIT_OK
    return {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name.startswith("run")}


def test_parser_built_once_and_reused(tmp_path, monkeypatch):
    built, build_parser, cached_parser = [], cli.build_parser, cli._parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cached_parser.cache_clear()
    try:
        reused = run_call_sequence(tmp_path / "reused")
        assert len(built) == 1
        # the same calls, each parsed by a freshly built parser
        monkeypatch.setattr(cli, "_parser", counting_build_parser)
        fresh = run_call_sequence(tmp_path / "fresh")
    finally:
        cached_parser.cache_clear()  # drop the parser built under the patch
    assert sorted(reused) == ["run.channel.json", "run.ensemble.csv",
                              "run.hamiltonians.json", "run.rates.csv"]
    assert reused == fresh

    # one parse leaves nothing behind for the next one
    parser = cli.build_parser()
    assert parser.parse_args(["models", "--json"]).json is True
    assert parser.parse_args(["models"]).json is False
    assert cli.build_parser() is not cli.build_parser()


def run_module(*args, cwd, stdout=subprocess.PIPE, env=None):
    """``python -m probunitary args`` in a fresh interpreter, with ``env``
    added to the environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "probunitary", *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})},
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


def test_python_m_probunitary(tmp_path):
    listed = run_module("models", "--json", cwd=tmp_path)
    assert listed.returncode == EXIT_OK
    assert json.loads(listed.stdout) == json.loads(json.dumps(models.MODEL_CATALOGUE))

    bad = run_module("decompose", "--model", "amplitude-damping", "--dt", "0",
                     "--out", str(tmp_path / "run"), cwd=tmp_path)
    assert bad.returncode == EXIT_VALIDATION
    lines = bad.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in bad.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_1_silently(tmp_path, unbuffered):
    # stdout is a pipe with no reader; buffered or not, the write fails in main
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module("models", "--json", cwd=tmp_path, stdout=write_end,
                          env={"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 1
    assert proc.stderr == ""
