"""weaksparse benchmark: one workload per run, outputs gated, metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {slope,verify,cli} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

With --trace 0 the run measures end-to-end metrics with no tracing; with
--trace 1 it alternates untraced and traced calls of the same input and
reports per-layer metrics, writing every span to a sidecar file under
.perfbench_out/.  Either way the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
carry the provenance stamp and the raw samples.  The exit code is 0 only
when every operation passed its correctness gate.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import resource
import time
import traceback

import numpy

import calibrate
from tracer import Tracer, counts
from workloads import SUITE_CHECKS, WORKLOADS, Slope, child_env, run_child, startup_argv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Set-up samples (child processes) per run, and the least number of
#: start-up probes on workloads whose calls do not start the CLI.  Probes
#: run between calls, so that they sample the whole run, not one moment.
SETUP_SAMPLES = 3
STARTUP_PROBES = 8
#: Calls per run at least, whatever --seconds says.
MIN_CALLS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("time_to_result_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("startup_s", "s"),
)

#: Per-layer statistics reported by the traced run, per layer.
LAYERS = (
    ("sparse.sparse_eval", ("calls", "self_s", "cubes")),
    ("measure.weak_norm", ("calls", "self_s", "cells")),
    ("measure.lp_norm", ("calls", "self_s")),
    ("measure.GridFunction", ("cells",)),
    ("dyadic.level_averages", ("calls", "self_s", "distinct_ratio")),
    ("dyadic.DyadicCube", ("count",)),
    ("dyadic.parent", ("calls",)),
    ("sparse.generate_sparse", ("calls", "self_s", "kept_ratio")),
    ("sparse.verify_sparse", ("calls", "self_s")),
    ("sparse.family_forest", ("self_s",)),
    ("sparse.restrict", ("self_s",)),
    ("stopping.build_stopping", ("calls", "self_s", "selected_ratio")),
    ("stopping.carleson_checks", ("self_s",)),
    ("stopping.bilinear_form_decompose", ("self_s",)),
    ("stopping.stopping_parent", ("calls",)),
    ("testing_conditions.global_weak_quantity", ("self_s",)),
    ("testing_conditions.local_testing_quantity", ("self_s",)),
    ("testing_conditions.local_sigma_testing_ratio", ("self_s",)),
    ("testing_conditions.sparse_sum_norm_ratios", ("self_s",)),
    *((f"verify.{name}", ("total_s",)) for name in SUITE_CHECKS["all"]),
    ("constants.ap_constant", ("calls", "self_s")),
    ("constants.apvec_constant", ("calls", "self_s")),
    ("constants.ainfty_constant", ("calls", "self_s")),
    ("constants.check_constant_inequalities", ("calls", "self_s")),
    ("dyadic.cube_sums", ("calls", "self_s", "cells")),
    ("measure.dual_weight", ("self_s",)),
    ("measure.joint_weight", ("self_s",)),
    ("serialize.load_weight", ("self_s", "bytes")),
    ("serialize.load_grid_function", ("self_s", "bytes")),
    ("serialize.load_sparse_family", ("self_s", "bytes")),
    ("serialize.save_grid_function", ("self_s", "bytes")),
    ("serialize.write_region_csv", ("self_s", "bytes")),
    ("exponents.region_map", ("self_s",)),
    ("exponents.region_svg", ("self_s",)),
    ("families.build_family", ("self_s",)),
    ("experiment.slope_experiment", ("self_s",)),
)

#: Ratio statistics as (numerator, denominator) counts.
RATIOS = {
    "distinct_ratio": ("distinct", "calls"),
    "kept_ratio": ("kept", "scanned"),
    "selected_ratio": ("selected", "candidates"),
}

UNITS = {"calls": "calls", "count": "count", "cells": "cells", "cubes": "cubes",
         "bytes": "bytes", "self_s": "s", "total_s": "s"}

PER_LAYER = (
    *((f"{layer}.{stat}", "ratio" if stat in RATIOS else UNITS[stat])
      for layer, stats in LAYERS for stat in stats),
    *((f"cli.{cmd}.wall_s", "s") for cmd in ("exponents", "region", "constants", "sparse_eval")),
    ("cli.import.numpy_s", "s"),
    ("cli.import.weaksparse_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def _import_weaksparse():
    if not os.path.isfile(os.path.join(SRC, "weaksparse", "__init__.py")):
        raise BenchError(f"no weaksparse sources under {SRC}")
    if "WSL_THREADS" in os.environ:
        raise BenchError("WSL_THREADS is set; the benchmark measures the single-threaded program")
    sys.path.insert(0, SRC)
    import weaksparse

    if os.path.dirname(os.path.dirname(os.path.abspath(weaksparse.__file__))) != SRC:
        raise BenchError(f"imported weaksparse from {weaksparse.__file__}, not from {SRC}")
    return weaksparse


def _workload(args, ws, workdir):
    return WORKLOADS[args.workload](ws, args.seed, args.size, workdir)


# ---------------------------------------------------------------------------
# provenance


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None  # the checkout sits inside some other repository
    return lines[1]


def _src_digest() -> str:
    """Content digest of the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    base = os.path.join(SRC, "weaksparse")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, loadavg) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "argv": sys.argv,
        "loadavg_at_start": list(loadavg),
    }


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def _setup_samples(args, workdir, clock) -> tuple[list[float], str]:
    """Time SETUP_SAMPLES fresh processes from start through input generation.

    Returns the wall times and the work directory of the last sample,
    whose input files the measured calls then use.
    """
    times = []
    for i in range(SETUP_SAMPLES):
        sample_dir = os.path.join(workdir, f"setup{i}")
        os.mkdir(sample_dir)
        argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
                "--workload", args.workload, "--seed", str(args.seed),
                "--size", args.size, "--workdir", sample_dir]
        code, _, wall, _ = run_child(argv, dict(os.environ), sample_dir)
        if code != 0:
            raise BenchError(f"set-up process exited with code {code}")
        times.append(wall)
        clock.tick()
        if i + 1 < SETUP_SAMPLES:
            shutil.rmtree(sample_dir)
    return times, sample_dir


def _startup_probe(ws, workdir) -> float:
    argv = [sys.executable, "-m", "weaksparse", *startup_argv()]
    code, _, wall, _ = run_child(argv, child_env(ws), workdir)
    if code != 0:
        raise BenchError(f"start-up probe exited with code {code}")
    return wall


def trimmed_mean(values: list[float]) -> float:
    """Mean without the smallest and the largest value.

    On a shared host interference comes in bursts, and in stretches that
    slow the host for a minute or more.  Dropping the two extremes keeps
    one burst from moving the figure; of the ten or so calls that remain
    in a run, the mean moves less than the median.
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[1:-1] if len(ordered) >= 3 else ordered)


def measure(args, ws, workdir) -> tuple[dict, dict, int, int]:
    """The untraced run.

    A calibration pass (calibrate.py) precedes the set-up samples and the
    calls and follows each of them.  Every time is reported at reference
    host speed, scaled by the passes of its own phase: set-up by the set-up
    passes, calls and start-up probes (which run between the calls) by the
    call passes.  The samples line keeps every time as measured, beside
    the passes.
    """
    setup_clock = calibrate.Clock()
    setup, inputs_dir = _setup_samples(args, workdir, setup_clock)
    wl = _workload(args, ws, inputs_dir)
    if not wl.inputs_on_disk:
        wl.prepare()
    samples = {"setup_s": setup, "time_to_result_s": [], "cpu_s": [], "rss_mb": [], "startup_s": []}
    # Each cli call starts the CLI with the start-up command itself.
    probe_startup = args.workload != "cli"
    attempted = failed = 0
    clock = calibrate.Clock()
    deadline = time.perf_counter() + args.seconds
    call = 0
    while call < MIN_CALLS or time.perf_counter() < deadline:
        attempted += wl.ops_per_call
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            out, usage = wl.call(call, in_process=False)
        except Exception:
            traceback.print_exc()
            failed += wl.ops_per_call
            call += 1
            continue
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        problems = wl.check(out)
        for p in problems:
            print(f"FAIL call {call}: {p}", file=sys.stderr)
        failed += len(problems)
        samples["time_to_result_s"].append(wall)
        samples["cpu_s"].append(usage.get("cpu_s", cpu))
        if "rss_mb" in usage:
            samples["rss_mb"].append(usage["rss_mb"])
        for key, value in usage.items():
            if key.endswith("_s") and key != "cpu_s":
                samples.setdefault(key, []).append(value)
        if probe_startup:
            samples["startup_s"].append(_startup_probe(ws, workdir))
        clock.tick()
        call += 1
    while probe_startup and len(samples["startup_s"]) < STARTUP_PROBES:
        samples["startup_s"].append(_startup_probe(ws, workdir))
    if not probe_startup:
        samples["startup_s"] = samples.get("exponents_s", [])
    if not samples["rss_mb"]:
        samples["rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    speed = clock.factor()
    samples["calibration_s"] = {"setup": setup_clock.passes, "calls": clock.passes}
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]) * setup_clock.factor(),
        "time_to_result_s": trimmed_mean(samples["time_to_result_s"]) * speed,
        "cpu_s": trimmed_mean(samples["cpu_s"]) * speed,
        "peak_rss_mb": statistics.median(samples["rss_mb"]),
        "ok_ratio": (attempted - failed) / attempted,
        "startup_s": trimmed_mean(samples["startup_s"]) * speed,
    }
    return metrics, samples, attempted, failed


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def _import_times(ws) -> dict:
    """Cumulative import times of numpy and weaksparse from python -X importtime."""
    found: dict[str, list[float]] = {"numpy": [], "weaksparse": []}
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import weaksparse"],
                              capture_output=True, text=True, env=child_env(ws), timeout=120)
        if proc.returncode != 0:
            raise BenchError("python -X importtime -c 'import weaksparse' failed")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {k: statistics.median(v) for k, v in found.items()}


def trace(args, ws, workdir) -> tuple[dict, dict, int, int, dict]:
    wl = _workload(args, ws, workdir)
    wl.prepare()
    tracer = Tracer()
    untraced, traced, runs, commands = [], [], [], {}
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    turn = 0
    while len(traced) < 2 or time.perf_counter() < deadline:
        is_traced = turn % 2 == 1
        attempted += wl.ops_per_call
        if is_traced:
            tracer.install(len(traced))
        t0 = time.perf_counter()
        try:
            out, usage = wl.call(0, in_process=True)
        except Exception:
            traceback.print_exc()
            failed += wl.ops_per_call
            out, usage = None, {}
        wall = time.perf_counter() - t0
        if is_traced:
            stats = tracer.remove()
            traced.append(wall)
            runs.append({"run": len(runs), "wall_s": wall, "stats": stats})
        else:
            untraced.append(wall)
            for key, value in usage.items():
                commands.setdefault(key, []).append(value)
        if out is not None:
            problems = wl.check(out)
            for p in problems:
                print(f"FAIL call {turn}: {p}", file=sys.stderr)
            failed += len(problems)
        turn += 1
    first = counts(runs[0]["stats"])
    for r in runs[1:]:
        if counts(r["stats"]) != first:
            print(f"FAIL traced run {r['run']}: counts differ from traced run 0", file=sys.stderr)
            failed += 1
    metrics = {}
    for layer, stats in LAYERS:
        for stat in stats:
            per_run = [r["stats"].get(layer, {}) for r in runs]
            if stat in RATIOS:
                num, den = RATIOS[stat]
                d = per_run[0].get(den, 0)
                value = per_run[0].get(num, 0) / d if d else 0.0
            elif stat.endswith("_s"):
                value = statistics.median(st.get(stat, 0.0) for st in per_run)
            else:
                value = int(per_run[0].get(stat, 0))
            metrics[f"{layer}.{stat}"] = value
    for cmd in ("exponents", "region", "constants", "sparse_eval"):
        metrics[f"cli.{cmd}.wall_s"] = statistics.median(commands.get(f"{cmd}_s", [0.0]))
    imports = _import_times(ws)
    metrics["cli.import.numpy_s"] = imports["numpy"]
    metrics["cli.import.weaksparse_s"] = imports["weaksparse"]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    samples = {"untraced_s": untraced, "traced_s": traced, **commands}
    sidecar = {"runs": runs, "spans": tracer.span_records()}
    return metrics, samples, attempted, failed, sidecar


# ---------------------------------------------------------------------------
# self-test


def self_test() -> int:
    """Run every workload once at reduced size, then test the gate itself."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in spec["workloads"]:
        for trace_flag in ("0", "1"):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", wl["name"],
                    "--seed", "0", "--seconds", "1", "--trace", trace_flag, "--size", "small"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            label = f"{wl['name']} --trace {trace_flag}"
            before = len(problems)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line\n{proc.stderr}")
                continue
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {proc.returncode}, result {result}\n{proc.stderr}")
            differ = set(printed.items()) ^ set(declared[trace_flag].items())
            if differ:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(differ)}")
            verdict = "ok" if len(problems) == before else "FAILED"
            print(f"self-test {label}: {verdict}", file=sys.stderr)
    ws = _import_weaksparse()
    slope = Slope(ws, 0, "small", OUT)
    slope.prepare()
    res, _ = slope.call(0, in_process=False)
    if slope.check(res):
        problems.append(f"gate rejects the recorded slope result: {slope.check(res)}")
    if not slope.check(Slope.perturbed(res, 1.0 + 1e-6)):
        problems.append("gate accepts a slope row perturbed by 1 + 1e-6")
    for p in problems:
        print(f"SELF-TEST FAIL: {p}", file=sys.stderr)
    print(json.dumps({"self_test": "failed" if problems else "passed", "problems": len(problems)}))
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("slope", "verify", "cli"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="input size; 'small' is the self-test's")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    loadavg = os.getloadavg()
    # Turn SIGTERM into SystemExit, so that children are killed and the
    # work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        ws = _import_weaksparse()
        if args.setup_only:
            _workload(args, ws, args.workdir).prepare()
            return 0
        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
        try:
            stamp = provenance(args, loadavg)
            print(json.dumps({"provenance": stamp}))
            if args.trace == "0":
                metrics, samples, attempted, failed = measure(args, ws, workdir)
                units = dict(END_TO_END)
            else:
                metrics, samples, attempted, failed, sidecar = trace(args, ws, workdir)
                units = dict(PER_LAYER)
                path = os.path.join(OUT, f"trace-{args.workload}-{args.size}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"provenance": stamp, **sidecar}, fh)
                print(json.dumps({"sidecar": os.path.relpath(path, ROOT)}))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"samples": samples}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
