import json

import numpy as np
import pytest

from probunitary import io
from probunitary.cli import EXIT_OK, EXIT_VALIDATION, main


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
