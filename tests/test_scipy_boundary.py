"""Where the package meets scipy: on the test side only.

No subcommand loads scipy.  The assignment that pairs channel branches
and matches branches at a crossing is the package's own kernel, which
each calling module reaches through its own module-level
``linear_sum_assignment``, one call per assignment; the polar factor of a
degenerate cluster comes from numpy's SVD, and ``--model lindblad``'s
propagators from ``linalg.expm``.  scipy is the oracle here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import polar

import probunitary
from probunitary import channel, decomposition, io
from probunitary.decomposition import Trajectory, _polar, align_eigenframes

from conftest import random_density_matrix, random_unitary


def scipy_modules_after(tmp_path, *argvs):
    """Sorted scipy modules loaded by a fresh interpreter that imports
    probunitary.cli and runs ``main`` on each argv, each of which must
    exit 0."""
    code = (
        "import json, sys\n"
        "import probunitary.cli as cli\n"
        f"codes = [cli.main(argv) for argv in {list(argvs)!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    src = str(Path(probunitary.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, check=True,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    codes, loaded = json.loads(done.stdout)
    assert codes == [0] * len(argvs), done.stderr
    return loaded


def test_closed_form_models_load_no_scipy(tmp_path):
    out = str(tmp_path / "run")
    assert scipy_modules_after(
        tmp_path,
        ["simulate", "--model", "amplitude-damping", "--horizon", "0.05",
         "--trajectories", "5", "--out", out],
        ["decompose", "--model", "jc", "--horizon", "0.1", "--out", out],
    ) == []


def test_assignments_load_no_scipy(tmp_path, rng):
    # the channel pairing and a crossing's alignment each solve an assignment
    rho_in, rho_out = tmp_path / "in.json", tmp_path / "out.json"
    io.write_matrix_file(rho_in, random_density_matrix(rng, 3))
    io.write_matrix_file(rho_out, random_density_matrix(rng, 3))
    trajectory = tmp_path / "crossing.json"
    io.write_trajectory(trajectory, crossing_samples(0.1 / 1.01, rng))
    out = str(tmp_path / "run")
    assert scipy_modules_after(
        tmp_path,
        ["channel", "--rho-in", str(rho_in), "--rho-out", str(rho_out), "--out", out],
        ["decompose", "--input", str(trajectory), "--out", out],
    ) == []


def test_lindblad_loads_scipy_linalg_only(tmp_path):
    # scipy.linalg's expm was the one scipy module a Lindblad run loaded;
    # linalg.expm replaces it, so none loads now
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "hamiltonian": io.matrix_to_json(np.diag([0.5, -0.5])),
        "jump_ops": [{"operator": io.matrix_to_json(np.array([[0, 1], [1, 0]])),
                      "gamma": 0.5}],
        "rho0": io.matrix_to_json(np.diag([0.7, 0.3])),
    }))
    assert scipy_modules_after(
        tmp_path,
        ["decompose", "--model", "lindblad", "--lindblad-spec", str(spec),
         "--horizon", "0.05", "--out", str(tmp_path / "run")],
    ) == []


@pytest.fixture
def assignment_calls(monkeypatch):
    """Counts of the calls to each module's linear_sum_assignment; each
    counting stand-in calls through to the module's own function."""
    calls = {}
    for module in (channel, decomposition):
        name = module.__name__
        calls[name] = 0

        def counted(cost, name=name, solve=module.linear_sum_assignment):
            calls[name] += 1
            return solve(cost)

        monkeypatch.setattr(module, "linear_sum_assignment", counted)
    return calls


def test_channel_solves_one_assignment_per_pair(assignment_calls, rng):
    pairs = 0
    for d in range(2, 7):
        for _ in range(4):  # both orders of a pair: majorized or not
            a = random_density_matrix(rng, d, min_gap=1e-2)
            b = random_density_matrix(rng, d, min_gap=1e-2)
            for rho_in, rho_out in ((a, b), (b, a)):
                channel.decompose_channel(rho_in, rho_out)
                pairs += 1
                assert assignment_calls["probunitary.channel"] == pairs
    assert assignment_calls["probunitary.decomposition"] == 0


def crossing_samples(slope, rng):
    """u diag(0.45 - slope t, 0.35 + slope t, 0.2) u^dag on 101 points of
    [0, 1]; slope 0.1 / 1.01 crosses the first two populations between
    t = 0.50 and t = 0.51."""
    u = random_unitary(rng, 3)
    times = np.linspace(0.0, 1.0, 101)
    return Trajectory(times, np.stack([
        (u * [0.45 - slope * t, 0.35 + slope * t, 0.2]) @ u.conj().T for t in times
    ]))


def test_branch_crossing_calls_the_alignment_assignment(assignment_calls, rng):
    frames = align_eigenframes(crossing_samples(0.1 / 1.01, rng))
    assert assignment_calls["probunitary.decomposition"] == 1
    assert assignment_calls["probunitary.channel"] == 0
    # the branches follow the populations through the crossing
    a = 0.1 / 1.01
    np.testing.assert_allclose(frames.eigenvalues[-1], [0.45 - a, 0.35 + a, 0.2], atol=1e-12)


def test_no_crossing_needs_no_assignment(assignment_calls, rng):
    align_eigenframes(crossing_samples(0.02, rng))
    assert assignment_calls == {"probunitary.channel": 0, "probunitary.decomposition": 0}


def polar_blocks(rng):
    """Random, rank-deficient and exactly degenerate complex blocks of
    sizes 1 to 5."""
    for d in range(1, 6):
        yield np.zeros((d, d), dtype=complex)                      # rank 0
        for _ in range(5):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            yield a
            low = a.copy()
            low[:, -1] = 0
            yield low @ random_unitary(rng, d)                     # rank d - 1
            yield 0.5 * random_unitary(rng, d)                     # s all equal
            yield random_unitary(rng, d) * np.r_[2.0, np.ones(d - 1)]  # s repeated


def test_polar_factor_matches_scipy(rng):
    for a in polar_blocks(rng):
        w = _polar(a)
        assert np.abs(w - polar(a)[0]).max() <= 1e-12
        assert np.abs(w.conj().T @ w - np.eye(len(a))).max() <= 1e-12
