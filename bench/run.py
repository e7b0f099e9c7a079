"""Benchmark of the probunitary CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One process drives
``probunitary.cli.main`` in process from a single caller in a closed loop
(the next call starts when the previous one returns), on inputs generated
from ``--seed``, and checks every output.  ``--trace 0`` prints the
end-to-end metrics, measured over ``--seconds`` seconds of calls.
``--trace 1`` makes each of the workload's distinct calls once untraced and
once traced, whatever ``--seconds`` says, and prints the per-layer metrics.
The last line of standard output is one JSON object; the exit code is 1 when
a check failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import os
import sys


def current_cpu() -> int:
    """The CPU this process runs on (field 39 of /proc/self/stat)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return min(os.sched_getaffinity(0))


# stay on one CPU, so that the reference timings of calibration.py see the
# host speed the calls and setup probes (which inherit this) saw; cap BLAS
# threads at the CPUs this process may use, before numpy loads
os.sched_setaffinity(0, {current_cpu()})
BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from calibration import reference_s, slowdowns  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7

# times at nominal host speed (see calibration.py)
END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# the per-layer metrics, read off the spans of the traced pass and the
# checks of its outputs; times and counts are per CLI call
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "models.sample_s": "s",
    "models.integrate_s": "s",
    "models.integrate_steps": "count",
    "decomposition.align_s": "s",
    "decomposition.decompose_self_s": "s",
    "decomposition.assignment_calls": "count",
    "decomposition.stored_mb": "MB",
    "decomposition.rhs_residual_max": "1",
    "decomposition.flagged_share": "1",
    "linalg.rate_solve_calls": "count",
    "linalg.rate_solve_s": "s",
    "linalg.eigh_s": "s",
    "montecarlo.run_ensemble_s": "s",
    "montecarlo.max_trace_distance": "1",
    "montecarlo.max_stderr": "1",
    "channel.decompose_p50_s": "s",
    "channel.decompose_p99_s": "s",
    "channel.kraus_s": "s",
    "channel.residual_max": "1",
    "channel.assignment_calls": "count",
    "channel.mislabel_share": "1",
    **{f"io.{fn}_s": "s" for fn in (
        "write_hamiltonians", "write_rate_report", "write_flags",
        "write_ensemble_csv", "write_channel_json", "read_matrix_file")},
    "io.bytes_written": "B",
}

KEEP = ("decomposition.decompose_trajectory", "montecarlo.run_ensemble",
        "channel.decompose_channel", "models.integrate")


def load_cli():
    """Import probunitary.cli from this checkout's src/, or None."""
    if not (SRC / "probunitary" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    try:
        import probunitary.cli as cli
    except ImportError:
        traceback.print_exc()
        return None
    if SRC not in Path(cli.__file__).resolve().parents:
        return None
    return cli


def setup_times(argv):
    """Medians over fresh interpreters of (setup_s, import_s): seconds from
    process start until probunitary.cli is imported and argv is parsed, and
    until the import alone is done, both at nominal host speed."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import probunitary.cli as cli\n"
        "imported = time.time()\n"
        f"cli.build_parser().parse_args({argv!r})\n"
        "print(imported, time.time())\n"
    )
    setups, imports, refs = [], [], [reference_s()]
    for _ in range(SETUP_PROBES):
        start = time.time()
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
            text=True, timeout=120, check=True,
        )
        refs.append(reference_s())
        imported, parsed = map(float, done.stdout.split())
        imports.append(imported - start)
        setups.append(parsed - start)
    slow = slowdowns(refs)
    return statistics.median(setups / slow), statistics.median(imports / slow)


def call(main, argv) -> bool:
    """One CLI call; False when it exits non-zero or raises."""
    try:
        return main(argv) == 0
    except Exception:  # the loop must go on: count it and keep the traceback
        traceback.print_exc()
        return False


def output_prefix(workdir, tag) -> str:
    """A fresh directory for one call's outputs; returns the --out prefix."""
    calldir = workdir / "calls" / tag
    calldir.mkdir(parents=True)
    return str(calldir / "out")


def check(workload, i, ok, out):
    """(passed, accuracy dict) of call i, which returned ``ok``; its output
    directory is removed."""
    try:
        if ok:
            return True, workload.check(i, out)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
    except Exception:  # a malformed output counts as failed, it does not end the run
        traceback.print_exc()
    finally:
        shutil.rmtree(Path(out).parent)
    return False, {}


def bytes_written(out) -> int:
    return sum(p.stat().st_size for p in Path(out).parent.iterdir())


def run_untraced(cli, workload, workdir, seconds):
    """One untimed warm-up call, then calls for ``seconds`` of wall time,
    each between two reference timings."""
    out = output_prefix(workdir, "warmup")
    warm_ok = call(cli.main, workload.warmup_argv(out))
    shutil.rmtree(Path(out).parent)
    latencies, oks, outs, refs = [], [], [], [reference_s()]
    begin = time.perf_counter()
    i = 0
    while True:
        out = output_prefix(workdir, str(i))
        argv = workload.argv(i, out)
        start = time.perf_counter()
        oks.append(call(cli.main, argv))
        end = time.perf_counter()
        refs.append(reference_s())
        latencies.append(end - start)
        outs.append(out)
        i += 1
        if end - begin >= seconds:
            break
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failed = not warm_ok
    for i, (ok, out) in enumerate(zip(oks, outs)):
        failed += not check(workload, i, ok, out)[0]
    slow = slowdowns(refs)
    nominal = np.array(latencies) / slow
    print(
        f"wall call_p50_ms={np.percentile(latencies, 50) * 1e3:.6g} "
        f"call_p90_ms={np.percentile(latencies, 90) * 1e3:.6g} "
        f"host slowdown p10/p50/p90={' '.join(f'{x:.3f}' for x in np.percentile(slow, [10, 50, 90]))}"
    )
    metrics = {
        "work_per_s": len(nominal) * workload.work_per_call / nominal.sum(),
        "call_p50_ms": float(np.percentile(nominal, 50)) * 1e3,
        "call_p90_ms": float(np.percentile(nominal, 90)) * 1e3,
        "peak_rss_mb": peak_rss,
    }
    return 1 + len(latencies), int(failed), metrics


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _stored_mb(series) -> float:
    arrays = [v for v in vars(series).values() if isinstance(v, np.ndarray)]
    frames = getattr(series, "frames", None)
    if frames is not None:
        arrays += [v for v in vars(frames).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays) / 1e6


def _observe(kept) -> dict:
    """Accuracy records and digest inputs from one traced call's returns."""
    seen = {"steps": 0, "stored_mb": 0.0}
    series = kept.get("decomposition.decompose_trajectory")
    if series is not None:
        seen["stored_mb"] = _stored_mb(series)
        seen["rates"] = series.rates
    if "montecarlo.run_ensemble" in kept:
        seen["mean_rho"] = kept["montecarlo.run_ensemble"].mean_rho
    if "channel.decompose_channel" in kept:
        seen["probabilities"] = kept["channel.decompose_channel"].probabilities
    if "models.integrate" in kept:
        seen["steps"] = len(kept["models.integrate"]) - 1
    return seen


def run_traced(cli, workload, workdir):
    """Each distinct call once untraced and once traced, back to back; the
    figures are means per traced call."""
    tracer = Tracer(keep=KEEP)
    root = tracer.span("cli.main", cli.main)
    plain, traced, found, seen = [], [], [], []
    failed = written = 0
    for j in range(workload.distinct_calls):
        out = output_prefix(workdir, "plain")
        start = time.perf_counter()
        ok = call(cli.main, workload.argv(j, out))
        plain.append(time.perf_counter() - start)
        failed += not check(workload, j, ok, out)[0]

        out = output_prefix(workdir, "traced")
        argv = workload.argv(j, out)
        tracer.request = j
        tracer.install()
        try:
            start = time.perf_counter()
            ok = call(root, argv)
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        written += bytes_written(out)
        seen.append(_observe(tracer.kept))
        tracer.kept = {}
        passed, result = check(workload, j, ok, out)
        failed += not passed
        found.append(result)

    def worst(key):
        return max(r.get(key, 0.0) for r in found)

    n = len(traced)
    total, own, calls, durations, layer_self = tracer.summary()
    decompose_durations = durations.get("channel.decompose_channel", [0.0])
    metrics = {
        "trace.overhead_s": (sum(traced) - sum(plain)) / n,
        **{f"{layer}.self_s": layer_self[layer] / n for layer in LAYERS},
        "models.sample_s": own["models.sample_model"] / n,
        "models.integrate_s": total["models.integrate"] / n,
        "models.integrate_steps": sum(r["steps"] for r in seen) / n,
        "decomposition.align_s": total["decomposition.align_eigenframes"] / n,
        "decomposition.decompose_self_s": own["decomposition.decompose_trajectory"] / n,
        "decomposition.assignment_calls": tracer.counts["decomposition.assignment_calls"] / n,
        "decomposition.stored_mb": max(r["stored_mb"] for r in seen),
        "decomposition.rhs_residual_max": worst("rhs_residual_max"),
        "decomposition.flagged_share": statistics.mean(r.get("flagged_share", 0.0) for r in found),
        "linalg.rate_solve_calls": calls["linalg.solve_circulant_rates"] / n,
        "linalg.rate_solve_s": total["linalg.solve_circulant_rates"] / n,
        "linalg.eigh_s": total["linalg.hermitian_eigendecomposition"] / n,
        "montecarlo.run_ensemble_s": total["montecarlo.run_ensemble"] / n,
        "montecarlo.max_trace_distance": worst("max_trace_distance"),
        "montecarlo.max_stderr": worst("max_stderr"),
        "channel.decompose_p50_s": float(np.percentile(decompose_durations, 50)),
        "channel.decompose_p99_s": float(np.percentile(decompose_durations, 99)),
        "channel.kraus_s": total["channel.to_kraus_like"] / n,
        "channel.residual_max": worst("residual"),
        "channel.assignment_calls": tracer.counts["channel.assignment_calls"] / n,
        "channel.mislabel_share": statistics.mean(r.get("mislabeled", False) for r in found),
        **{f"io.{fn}_s": total[f"io.{fn}"] / n for fn in (
            "write_hamiltonians", "write_rate_report", "write_flags",
            "write_ensemble_csv", "write_channel_json", "read_matrix_file")},
        "io.bytes_written": written / n,
    }
    hashes = {}
    for name in ("mean_rho", "rates", "probabilities"):
        arrays = [r[name] for r in seen if name in r]
        if arrays:
            hashes[name] = _digest(arrays)
    trace = {**tracer.dump(), "untraced_s": plain, "traced_s": traced, "sha256": hashes}
    return 2 * n, failed, metrics, trace, hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    if cli is None:
        print(f"error: no probunitary package under {SRC}", file=sys.stderr)
        return 2
    print(
        f"machine nproc={os.cpu_count()} blas_threads={BLAS_THREADS} "
        f"python={platform.python_version()} numpy={np.__version__} scipy={scipy.__version__}"
    )

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s, import_s = setup_times(workload.argv(0, str(workdir / "probe")))
        if args.trace:
            attempted, failed, metrics, trace, hashes = run_traced(cli, workload, workdir)
            metrics["setup.import_s"] = import_s
            units = PER_LAYER_UNITS
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(trace), encoding="utf-8")
            for name, digest in sorted(hashes.items()):
                print(f"sha256 {name} {digest}")
            print(f"spans {len(trace['spans'])} written to {trace_path.relative_to(ROOT)}")
        else:
            attempted, failed, metrics = run_untraced(cli, workload, workdir, args.seconds)
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
