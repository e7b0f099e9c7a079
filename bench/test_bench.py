"""Tests of the benchmark itself: python3 -m pytest bench

They check that inputs are a pure function of the seed, that the printed
metric names are the ones BENCHMARK.json declares, and that every
correctness check rejects a deliberately corrupted output.
"""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import calibration
import run
import workloads
from checks import (
    CheckFailed,
    check_channel,
    check_decompose,
    check_ensemble,
    lindblad_reference,
)
from tracing import Tracer

CLI = run.load_cli()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


# -- determinism -----------------------------------------------------------


def test_generators_are_deterministic():
    a, b = workloads.unital_spec(7), workloads.unital_spec(7)
    for key in a:
        assert np.array_equal(a[key], b[key])
    assert not np.array_equal(a["hamiltonian"], workloads.unital_spec(8)["hamiltonian"])
    pa, pb = workloads.channel_pairs(7, n=25), workloads.channel_pairs(7, n=25)
    for (ia, oa), (ib, ob) in zip(pa, pb):
        assert np.array_equal(ia, ib) and np.array_equal(oa, ob)
    assert workloads.simulate_seed(7, 3) == workloads.simulate_seed(7, 3)
    assert workloads.simulate_seed(7, 3) != workloads.simulate_seed(7, 4)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_input_files_depend_only_on_seed(tmp_path, name):
    texts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        workloads.WORKLOADS[name](11, tmp_path / sub)
        texts.append({p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()})
    assert texts[0] == texts[1]


def test_channel_pairs_are_valid_mixed_unitary_inputs():
    for rho_in, rho_out in workloads.channel_pairs(3, n=50):
        p = np.linalg.eigvalsh(rho_in)
        assert np.diff(p).min() > workloads.CHANNEL_MIN_GAP
        assert abs(np.trace(rho_out) - 1) < 1e-12
        # a mixture of conjugations has a spectrum majorized by the input's
        q = np.linalg.eigvalsh(rho_out)
        assert np.all(np.cumsum(q[::-1])[:-1] <= np.cumsum(p[::-1])[:-1] + 1e-12)


# -- metric names ------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    assert run.END_TO_END_UNITS == declared("end_to_end")
    assert run.PER_LAYER_UNITS == declared("per_layer")
    assert set(SPEC["paths"]) == {"bench"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_printed_end_to_end_metrics(tmp_path):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "channel-pairs",
         "--seed", "1", "--seconds", "0.05", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_metrics_and_self_time_accounting(tmp_path):
    workload = workloads.WORKLOADS["channel-pairs"](2, tmp_path)
    workload.distinct_calls = 4
    attempted, failed, metrics, trace, hashes = run.run_traced(CLI, workload, tmp_path)
    assert (attempted, failed) == (8, 0)
    assert set(metrics) | {"setup.import_s"} == set(declared("per_layer"))
    assert metrics["linalg.rate_solve_calls"] == 1.0
    assert metrics["channel.assignment_calls"] == 1.0
    assert metrics["io.bytes_written"] > 0
    assert set(hashes) == {"probabilities"}
    # the per-layer self times add up to the traced wall time of a call
    layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layer_self == pytest.approx(np.mean(trace["traced_s"]), rel=0.05)
    # every span of a request sits inside its root span
    roots = {s[2]: s for s in trace["spans"] if s[1] is None}
    assert len(roots) == 4
    for _, _, request, _, start, end in trace["spans"]:
        assert roots[request][4] <= start <= end <= roots[request][5]


def test_slowdown_is_reference_time_over_nominal():
    nominal = calibration.NOMINAL_S
    slow = calibration.slowdowns([nominal, 3 * nominal, 2 * nominal])
    np.testing.assert_allclose(slow, [2.0, 2.5])
    assert calibration.reference_s() > 0


def test_tracer_restores_every_patched_name():
    import probunitary.channel as channel
    import probunitary.cli as cli
    before = (cli.io, cli.decompose_channel, channel.linear_sum_assignment)
    tracer = Tracer()
    tracer.install()
    assert cli.decompose_channel is not before[1]
    tracer.uninstall()
    assert (cli.io, cli.decompose_channel, channel.linear_sum_assignment) == before


def test_missing_program_exits_nonzero_without_result(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "bench").mkdir(parents=True)
    for path in run.ROOT.joinpath("bench").glob("*.py"):
        (bare / "bench" / path.name).write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ensemble-ad",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- checks reject corrupted outputs -----------------------------------------


def _rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def ensemble_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ens") / "run")
    argv = ["simulate", "--model", "amplitude-damping", "--dt", "1e-3",
            "--horizon", "0.1", "--trajectories", "2000", "--seed", "5", "--out", out]
    assert CLI.main(argv) == 0
    return out + ".ensemble.csv"


def _ensemble_check(path):
    return check_ensemble(path, 1.0, 1e-3, 0.1)


def test_ensemble_check_passes_and_rejects_corruption(ensemble_out, tmp_path):
    assert _ensemble_check(ensemble_out)["max_trace_distance"] > 0
    header = None

    def shift_population(rows):
        nonlocal header
        header = rows[0]
        col = header.index("mean_00_re")
        rows[-1][col] = repr(float(rows[-1][col]) + 0.05)
        return rows

    def shift_consistently(rows):
        # move the state and its reported distance together, so only the
        # stderr bound can catch it
        rows = shift_population(rows)
        c11, td = header.index("mean_11_re"), header.index("trace_distance_to_exact")
        rows[-1][c11] = repr(float(rows[-1][c11]) - 0.05)
        t = float(rows[-1][0])
        exact = np.exp(-t)
        m00 = float(rows[-1][header.index("mean_00_re")])
        m01 = complex(float(rows[-1][header.index("mean_01_re")]),
                      float(rows[-1][header.index("mean_01_im")]))
        diff = np.array([[m00 - exact, m01], [np.conj(m01), exact - m00]])
        rows[-1][td] = repr(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
        return rows

    for edit in (shift_population, shift_consistently, lambda rows: rows[:-3]):
        path = tmp_path / "bad.csv"
        path.write_bytes(open(ensemble_out, "rb").read())
        _rewrite_csv(path, edit)
        with pytest.raises(CheckFailed):
            _ensemble_check(path)


@pytest.fixture(scope="module")
def decompose_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dec")
    # seed 2 has unflagged grid points from t = 0 on
    workload = workloads.WORKLOADS["decompose-unital6"](2, tmp)
    out = str(tmp / "run")
    argv = workload.argv(0, out)
    argv[argv.index("--horizon") + 1] = "0.3"
    assert CLI.main(argv) == 0
    return out, lindblad_reference(workload.spec, workloads.UNITAL_DT, 301)


def _copy_outputs(src, dst):
    for suffix in (".rates.csv", ".hamiltonians.json"):
        open(dst + suffix, "wb").write(open(src + suffix, "rb").read())


def test_decompose_check_passes_and_rejects_corruption(decompose_case, tmp_path):
    out, ref = decompose_case
    good = check_decompose(out, ref, workloads.UNITAL_DT)
    assert 0 < good["rhs_residual_max"] <= 1e-4
    flags = np.array(list(csv.reader(open(out + ".rates.csv"))))[1:, 7:9].astype(int)
    k = 1 + int(np.flatnonzero(flags[1:-1].sum(axis=1) == 0)[0])

    def bump_rate(rows):
        rows[k + 1][2] = repr(float(rows[k + 1][2]) + 0.05)
        return rows

    for edit in (lambda rows: rows[:-1], bump_rate):
        bad = str(tmp_path / "bad")
        _copy_outputs(out, bad)
        _rewrite_csv(bad + ".rates.csv", edit)
        with pytest.raises(CheckFailed):
            check_decompose(bad, ref, workloads.UNITAL_DT)

    bad = str(tmp_path / "badh")
    _copy_outputs(out, bad)
    doc = json.loads(open(bad + ".hamiltonians.json").read())
    doc["hamiltonians"][k][0][1][0] += 0.05
    doc["hamiltonians"][k][1][0][0] += 0.05
    open(bad + ".hamiltonians.json", "w").write(json.dumps(doc))
    with pytest.raises(CheckFailed):
        check_decompose(bad, ref, workloads.UNITAL_DT)


def test_channel_check_passes_and_rejects_corruption(tmp_path):
    workload = workloads.WORKLOADS["channel-pairs"](9, tmp_path)
    out = str(tmp_path / "run")
    assert CLI.main(workload.argv(0, out)) == 0
    path = out + ".channel.json"
    rho_in, rho_out = workload.pairs[0]
    assert workload.check(0, out)["residual"] <= 1e-8

    perturbed = rho_out + 1e-6 * np.diag(np.arange(rho_out.shape[0]) - (rho_out.shape[0] - 1) / 2)
    with pytest.raises(CheckFailed):
        check_channel(path, rho_in, perturbed)

    doc = json.loads(open(path).read())

    def bad_probabilities(d):
        d["probabilities"][0] += 1e-6
        d["probabilities"][1] -= 1e-6

    def bad_kraus(d):
        d["kraus_like"][0]["kbar"][0][0][0] += 1e-3

    def flipped_label(d):
        d["classification"] = (
            "quasi_probability" if d["classification"] == "mixed_unitary" else "mixed_unitary"
        )

    for corrupt in (bad_probabilities, bad_kraus, flipped_label, lambda d: d.pop("kraus_like")):
        bad = json.loads(json.dumps(doc))
        corrupt(bad)
        open(path, "w").write(json.dumps(bad))
        with pytest.raises(CheckFailed):
            check_channel(path, rho_in, rho_out)
