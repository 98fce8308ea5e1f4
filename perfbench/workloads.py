"""The benchmark's three workloads: seeded inputs, one timed call, and its gate.

Every input is generated here from the benchmark seed and handed to the
program; the program never sees the benchmark seed itself.  A workload
object is prepared once per process and then called repeatedly, one
call at a time, by a single client.

The constructor is cheap; ``prepare`` generates the inputs and is the
set-up that setup_s times.  ``call`` returns ``(outputs, usage)``.  ``check`` turns outputs into a
list of failure messages, at most one per operation, so an empty list
means the call's outputs are correct.  ``usage`` carries what the harness
cannot measure around the call itself: for the CLI workload the children's
CPU time, peak memory and per-command wall times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

#: The seed whose outputs are pinned in golden.json.
DEFAULT_SEED = 0

_DELTAS = (0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625, 0.001953125)

#: Input sizes: "full" is the measured benchmark, "small" its self-test.
SIZES = {
    "full": {
        "slope_level": 14,
        "deltas": _DELTAS,
        "suite": "all",
        "weight_level": 20,
        "family_level": 8,
    },
    "small": {
        "slope_level": 8,
        "deltas": _DELTAS[:4],
        "suite": "dyadic",
        "weight_level": 10,
        "family_level": 5,
    },
}

#: Checks that verify.run_suite must report, per suite, in this order.
SUITE_CHECKS = {
    "dyadic": ("dyadic_exhaustive", "measure_properties"),
    "all": (
        "dyadic_exhaustive",
        "measure_properties",
        "dual_transform_identity",
        "joint_constant_inequalities",
        "local_testing_direction",
        "localized_testing_family",
        "sparse_sum_ratio_family",
        "kolmogorov_inequality",
        "reverse_holder",
        "exponent_formulas",
        "region_claims",
        "sparse_generator",
        "stopping_family_checks",
        "bilinear_decomposition",
        "family_monotonicity",
    ),
}

#: Relative tolerance against the values recorded in golden.json.
GOLDEN_RTOL = 1e-9

#: Slope exponents (6, 6): alpha = min(beta, gamma) = 2/3, and acceptance
#: criterion 10 allows the measured weak slope 0.15 above it.
SLOPE_P = (6.0, 6.0)
WEAK_SLOPE_MAX = 2.0 / 3.0 + 0.15

#: Exponents of every CLI command that takes them.
CLI_P = ("2", "3")

#: Sparsity budget of the stored CLI family.  At budget 0.25 the family
#: size swings between about 700 and 6,200 cubes with the seed, which
#: moves sparse_eval_s twofold between seeds; at 0.02 it stays within a
#: few percent of 3,400 cubes, so the seed changes the data, not the work.
FAMILY_BUDGET = 0.02

REGION_RESOLUTION = "200"

#: Constants in the `constants` command's report.
CONSTANTS = ("apvec", "ainfty_v", "ainfty_sigma1", "ainfty_sigma2")

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def golden(size: str) -> dict:
    """Outputs recorded at DEFAULT_SEED for one input size."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)[size]


def _close(got: float, want: float, rtol: float = GOLDEN_RTOL) -> bool:
    return abs(got - want) <= rtol * abs(want)


def _sub_seeds(seed: int, count: int) -> list[int]:
    """Independent program seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, count)]


def child_env(ws) -> dict:
    """Environment in which `python -m weaksparse` imports this same program."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ws.__file__)))


def startup_argv() -> list[str]:
    """The CLI start-up probe: the cheapest command, so its time is start-up."""
    return ["exponents", "--p1", CLI_P[0], "--p2", CLI_P[1]]


def run_child(argv: list[str], env: dict, workdir: str):
    """Run one child to completion; returns (exit code, stdout, wall s, rusage).

    os.wait4 reports the resource usage of exactly this child, so its CPU
    time and peak memory are not mixed with those of other children.
    """
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read())
    return proc.returncode, stdout, wall, usage


# ---------------------------------------------------------------------------
# slope


class Slope:
    """experiment.slope_experiment on the power family with a seeded test set."""

    name = "slope"
    ops_per_call = 1
    inputs_on_disk = False

    def __init__(self, ws, seed: int, size: str, workdir: str):
        self.ws, self.seed, self.size = ws, seed, size

    def prepare(self):
        ws, sz = self.ws, SIZES[self.size]
        self.config = ws.GridConfig(1, sz["slope_level"])
        self.P = ws.ExponentTuple(*SLOPE_P)
        self.spec = ws.WeightFamilySpec("power", sz["deltas"])
        self.family = ws.tower_family(self.config)
        # Indicators of every left dyadic interval plus eight seeded
        # nonnegative functions, as in the paper's experiment.
        cfg = self.config
        fns = [ws.indicator(cfg, ws.DyadicCube(k, (0,))) for k in range(cfg.finest_level + 1)]
        rng = np.random.default_rng(self.seed)
        fns += [ws.GridFunction(cfg, rng.uniform(0.0, 2.0, cfg.cell_count)) for _ in range(8)]
        self.functions = fns

    def call(self, rep: int, in_process: bool):
        res = self.ws.slope_experiment(self.spec, self.P, self.config, self.family, self.functions)
        return res, {}

    def check(self, res) -> list[str]:
        rows = res.rows
        bad = []
        if len(rows) != len(self.spec.deltas):
            return [f"slope: {len(rows)} rows, expected {len(self.spec.deltas)}"]
        if any(not b.apvec > a.apvec for a, b in zip(rows, rows[1:])):
            bad.append("slope: apvec not strictly increasing")
        if any(not 0.0 < r.weak <= r.strong for r in rows):
            bad.append("slope: some row violates 0 < weak <= strong")
        if not res.weak_slope <= WEAK_SLOPE_MAX:
            bad.append(f"slope: weak slope {res.weak_slope} above {WEAK_SLOPE_MAX}")
        if self.seed == DEFAULT_SEED:
            want = golden(self.size)["slope"]["rows"]
            got = [[r.apvec, r.weak, r.strong] for r in rows]
            if not all(_close(g, w) for gr, wr in zip(got, want) for g, w in zip(gr, wr)):
                bad.append("slope: rows differ from golden.json")
        return bad[:1]

    @staticmethod
    def perturbed(res, factor: float):
        """The result with one row's weak value scaled, for the gate self-test."""
        rows = list(res.rows)
        rows[-1] = replace(rows[-1], weak=rows[-1].weak * factor)
        return replace(res, rows=tuple(rows))


# ---------------------------------------------------------------------------
# verify


class Verify:
    """verify.run_suite, with a fresh derived suite seed per call.

    The suite's cost depends on its seed (random grid sizes and family
    sizes move it by about 10 %), so successive calls cycle through seeds
    derived from the benchmark seed and the reported median averages
    that out.  The traced run repeats call 0 so that counts can be compared.
    """

    name = "verify"
    ops_per_call = 1
    inputs_on_disk = False

    def __init__(self, ws, seed: int, size: str, workdir: str):
        self.ws, self.seed = ws, seed
        self.suite = SIZES[size]["suite"]

    def prepare(self):
        self.seeds = _sub_seeds(self.seed, 64)

    def call(self, rep: int, in_process: bool):
        seed = self.seeds[rep % len(self.seeds)]
        return self.ws.run_suite(self.suite, seed), {}

    def check(self, report) -> list[str]:
        names = tuple(c["name"] for c in report["checks"])
        if names != SUITE_CHECKS[self.suite]:
            return [f"verify: checks {names} differ from {SUITE_CHECKS[self.suite]}"]
        if report["passed"] is not True:
            failed = [c["name"] for c in report["checks"] if not c["pass"]]
            return [f"verify: seed {report['seed']} failed {failed}"]
        return []


# ---------------------------------------------------------------------------
# cli


def _level_means(cells: np.ndarray, level: int, dimension: int) -> np.ndarray:
    """Means over the level-`level` cubes of a square cell array."""
    n, m = 1 << level, cells.shape[0] >> level
    if dimension == 1:
        return cells.reshape(n, m).mean(axis=1)
    return cells.reshape(n, m, n, m).mean(axis=(1, 3))


def sparse_image(cubes, f1: np.ndarray, f2: np.ndarray, dimension: int, level: int) -> np.ndarray:
    """Independent reference for sparse-eval: sum_Q <f1>_Q <f2>_Q 1_Q on the cells."""
    shape = (1 << level,) * dimension
    g1, g2 = f1.reshape(shape), f2.reshape(shape)
    out = np.zeros(shape)
    by_level: dict[int, list] = {}
    for q in cubes:
        by_level.setdefault(q["level"], []).append(q["coords"])
    for k, coords in by_level.items():
        idx = tuple(np.array(coords).T)
        coef = np.zeros((1 << k,) * dimension)
        coef[idx] = (_level_means(g1, k, dimension) * _level_means(g2, k, dimension))[idx]
        for axis in range(dimension):
            coef = np.repeat(coef, 1 << (level - k), axis=axis)
        out += coef
    return out.ravel()


class Cli:
    """Four CLI commands, one child process at a time, on stored input files.

    The traced run passes the same argv to weaksparse.cli.main in this
    process instead.
    """

    name = "cli"
    ops_per_call = 4
    #: prepare() writes the input files; a later process may call them as they are.
    inputs_on_disk = True
    commands = ("exponents", "region", "constants", "sparse_eval")
    _outputs = ("region.csv", "region.svg", "image.json")

    def __init__(self, ws, seed: int, size: str, workdir: str):
        self.ws, self.seed, self.size, self.workdir = ws, seed, size, workdir
        self.env = child_env(ws)
        self.argvs = {
            "exponents": startup_argv(),
            "region": [
                "region", "--resolution", REGION_RESOLUTION,
                "--csv", self._path("region.csv"), "--svg", self._path("region.svg"),
            ],
            "constants": [
                "constants", "--weights", self._path("w1.json") + "," + self._path("w2.json"),
                "--p1", CLI_P[0], "--p2", CLI_P[1],
            ],
            "sparse_eval": [
                "sparse-eval", "--family", self._path("family.json"),
                "--f1", self._path("f1.json"), "--f2", self._path("f2.json"),
                "--out", self._path("image.json"),
            ],
        }
        self._reference = None

    def prepare(self):
        from weaksparse import serialize

        ws, sz = self.ws, SIZES[self.size]
        s_w1, s_w2, s_fam, s_fn = _sub_seeds(self.seed, 4)
        wcfg = ws.GridConfig(1, sz["weight_level"])
        serialize.save_grid_function(ws.random_weight(wcfg, s_w1, 0.6), self._path("w1.json"))
        serialize.save_grid_function(ws.random_weight(wcfg, s_w2, 0.6), self._path("w2.json"))
        fcfg = ws.GridConfig(2, sz["family_level"])
        family = ws.generate_sparse(fcfg, s_fam, FAMILY_BUDGET)
        serialize.save_sparse_family(family, self._path("family.json"))
        rng = np.random.default_rng(s_fn)
        for name in ("f1.json", "f2.json"):
            values = rng.uniform(0.0, 2.0, fcfg.cell_count)
            serialize.save_grid_function(ws.GridFunction(fcfg, values), self._path(name))

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def call(self, rep: int, in_process: bool):
        for name in self._outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._path(name))
        outputs = {}
        usage = {} if in_process else {"cpu_s": 0.0, "rss_mb": 0.0}
        for cmd in self.commands:
            if in_process:
                start = time.perf_counter()
                code, stdout = self._in_process(self.argvs[cmd])
                usage[cmd + "_s"] = time.perf_counter() - start
            else:
                argv = [sys.executable, "-m", "weaksparse", *self.argvs[cmd]]
                code, stdout, usage[cmd + "_s"], ru = run_child(argv, self.env, self.workdir)
                usage["cpu_s"] += ru.ru_utime + ru.ru_stime
                usage["rss_mb"] = max(usage["rss_mb"], ru.ru_maxrss / 1024.0)
            outputs[cmd] = {"code": code, "stdout": stdout}
        return outputs, usage

    @staticmethod
    def _in_process(argv):
        from weaksparse import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    def _reference_image(self) -> np.ndarray:
        if self._reference is None:
            docs = {}
            for name in ("family.json", "f1.json", "f2.json"):
                with open(self._path(name), encoding="utf-8") as fh:
                    docs[name] = json.load(fh)
            f1, f2 = docs["f1.json"], docs["f2.json"]
            self._reference = sparse_image(
                docs["family.json"],
                np.asarray(f1["values"], dtype=np.float64),
                np.asarray(f2["values"], dtype=np.float64),
                f1["dimension"],
                f1["finest_level"],
            )
        return self._reference

    def check(self, outputs) -> list[str]:
        want = golden(self.size)["cli"]
        bad = []
        for cmd in self.commands:
            out = outputs[cmd]
            if out["code"] != 0:
                bad.append(f"cli {cmd}: exit code {out['code']}")
                continue
            problem = getattr(self, "_check_" + cmd)(out["stdout"], want)
            if problem:
                bad.append(f"cli {cmd}: {problem}")
        return bad

    def _check_exponents(self, stdout, want):
        report, expected = json.loads(stdout), want["exponents"]
        if report.keys() != expected.keys():
            return "report keys differ from golden.json"
        for key, value in expected.items():
            same = report[key] == value if isinstance(value, bool) else _close(report[key], value)
            if not same:
                return f"{key} differs from golden.json"
        return None

    def _check_region(self, stdout, want):
        if json.loads(stdout) != want["region"]["report"]:
            return "summary differs from golden.json"
        for ext in ("csv", "svg"):
            with open(self._path("region." + ext), "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != want["region"][ext + "_sha256"]:
                    return f"{ext.upper()} bytes differ from golden.json"
        return None

    def _check_constants(self, stdout, want):
        report = json.loads(stdout)
        if report.get("inequalities_pass") is not True:
            return "inequalities_pass is not true"
        values = [report[k] for k in CONSTANTS]
        # Each of these constants is at least 1 (Hoelder and Jensen).
        if not all(np.isfinite(v) and v >= 1.0 - 1e-9 for v in values):
            return f"constants not finite and >= 1: {values}"
        if self.seed == DEFAULT_SEED and not all(
            _close(report[k], v) for k, v in want["constants"].items()
        ):
            return "values differ from golden.json"
        return None

    def _check_sparse_eval(self, stdout, want):
        with open(self._path("image.json"), encoding="utf-8") as fh:
            got = np.asarray(json.load(fh)["values"], dtype=np.float64)
        ref = self._reference_image()
        if got.shape != ref.shape or not np.allclose(got, ref, rtol=GOLDEN_RTOL, atol=0.0):
            return "image differs from the reference evaluation"
        if self.seed == DEFAULT_SEED:
            expected = want["sparse_eval"]
            if not _close(float(got.sum()), expected["sum"]):
                return "image sum differs from golden.json"
            if not _close(float(got.max()), expected["max"]):
                return "image maximum differs from golden.json"
        return None


WORKLOADS = {w.name: w for w in (Slope, Verify, Cli)}
