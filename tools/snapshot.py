"""Write every user-visible output of the program into one directory.

Usage, from the root of a checkout:

    python3 tools/snapshot.py DIR

Runs the CLI and the demos of this checkout (its src/ on PYTHONPATH) on
fixed inputs and writes their stdout and result files under DIR.  The
inputs come from numpy's default_rng, one fixed-seed generate_sparse
family and a grid of the grid writer's edge values, so two checkouts give
byte-identical directories exactly when their outputs agree; compare them
with `diff -r DIR1 DIR2`.  Commands that
fail on purpose (ERRORS) leave their error line and exit code in a .err
file; they name their inputs by paths relative to DIR, so the messages do
not depend on where DIR is.  Takes about half a minute and a few hundred
MB (the K = 20 runs dominate).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

VERIFY_SEEDS = (20260809, 1, 7, 12345)

#: (p1, p2) of the exponents runs: alpha = beta = gamma = 1 at (4, 4);
#: min(p1, p2) > 4 alone at (4.5, 4.5); p >= (3 + sqrt 5)/2 alone at
#: (3, 30); both conditions for alpha < 1 at (6, 6); p near 1 at (1.05, 40).
EXPONENTS = (("2", "3"), ("4", "4"), ("6", "6"), ("4.5", "4.5"), ("3", "30"), ("1.05", "40"))

#: (name, slope flags) of the experiment runs.
SLOPES = (
    ("power_6_6_K14", ["--p1", "6", "--p2", "6", "--finest-level", "14"]),
    ("power_6_6_K20", ["--p1", "6", "--p2", "6", "--finest-level", "20"]),
    ("power_2_3_K12", ["--p1", "2", "--p2", "3", "--finest-level", "12"]),
)

#: (name, CLI arguments run from DIR) of the commands that end in an error.
ERRORS = (
    (
        "constants_overflow",
        ["constants", "--weights", "inputs/huge.json,inputs/huge.json",
         "--p1", "2", "--p2", "3"],
    ),
    (
        "constants_two_grids",
        ["constants", "--weights", "inputs/line.json,inputs/plane.json",
         "--p1", "2", "--p2", "3"],
    ),
    (
        "constants_malformed",
        ["constants", "--weights", "inputs/malformed.json,inputs/line.json",
         "--p1", "2", "--p2", "3"],
    ),
    (
        "constants_undecodable",
        ["constants", "--weights", "inputs/undecodable.json,inputs/line.json",
         "--p1", "2", "--p2", "3"],
    ),
    (
        "constants_zero_weight",
        ["constants", "--weights", "inputs/line.json,inputs/zero.json",
         "--p1", "2", "--p2", "3"],
    ),
    (
        "sparse_eval_undecodable",
        ["sparse-eval", "--family", "inputs/undecodable.json", "--f1", "inputs/f1.json",
         "--f2", "inputs/f2.json", "--out", "inputs/unwritten.json"],
    ),
    (
        "sparse_eval_out_of_range",
        ["sparse-eval", "--family", "inputs/out_of_range.json", "--f1", "inputs/f1.json",
         "--f2", "inputs/f2.json", "--out", "inputs/unwritten.json"],
    ),
    ("verify_negative_seed", ["verify", "--seed", "-1"]),
    (
        "slope_three_points",
        ["experiment", "slope", "--p1", "2", "--p2", "3", "--finest-level", "6",
         "--deltas", "0.5,0.25,0.125"],
    ),
    (
        "slope_no_dynamic_range",
        ["experiment", "slope", "--p1", "2", "--p2", "3", "--finest-level", "6",
         "--deltas", "1,1,1,1"],
    ),
    (
        "slope_not_increasing",
        ["experiment", "slope", "--p1", "2", "--p2", "3", "--finest-level", "6",
         "--deltas", "0.5,0.5,0.25,0.125"],
    ),
)


def _env() -> dict:
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def _run(argv, out: Path, cwd: Path) -> None:
    """Run argv, write its stdout to out; stderr and the exit code go in out.err."""
    proc = subprocess.run(argv, cwd=cwd, env=_env(), capture_output=True)
    out.write_bytes(proc.stdout)
    if proc.returncode or proc.stderr:
        out.with_suffix(out.suffix + ".err").write_bytes(
            f"exit {proc.returncode}\n".encode() + proc.stderr
        )


def _cli(args, out: Path, cwd: Path) -> None:
    _run([sys.executable, "-m", "weaksparse", *args], out, cwd)


def _write_inputs(d: Path) -> None:
    """Weights, functions and a family, in this checkout's file formats."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    from weaksparse.dyadic import GridConfig
    from weaksparse.measure import GridFunction, Weight
    from weaksparse.serialize import save_grid_function, save_sparse_family
    from weaksparse.sparse import generate_sparse

    rng = np.random.default_rng(20261019)
    deep = GridConfig(1, 20)
    for name in ("w1", "w2"):
        values = np.exp(rng.uniform(-1.5, 1.5, deep.cell_count))
        save_grid_function(GridFunction(deep, values), d / f"{name}.json")
    plane = GridConfig(2, 8)
    for name in ("f1", "f2"):
        values = rng.uniform(0.0, 2.0, plane.cell_count)
        save_grid_function(GridFunction(plane, values), d / f"{name}.json")
    save_sparse_family(generate_sparse(plane, 3, 0.02), d / "family.json")
    # the grid writer's edge cases: every power of two and its neighbours,
    # subnormals, signed zeros, integral values past 2^53 and the neighbours
    # of 1e-4 and 1e16, where repr turns to scientific notation
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    edge = np.concatenate([
        np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf),
        np.ldexp(np.arange(1.0, 65.0), -1074), [0.0, 2.2250738585072009e-308],
        2.0**53 + 2.0 * np.arange(-8, 8),
        np.nextafter([1e-4, 1e16], 0.0), [1e-4, 1e16], np.nextafter([1e-4, 1e16], np.inf),
    ])
    edge = edge[np.isfinite(edge)]
    line = GridConfig(1, 14)
    edge = np.resize(np.concatenate([edge, -edge]), line.cell_count)
    save_grid_function(GridFunction(line, edge), d / "edge.json")
    # inputs of ERRORS: 16 cells on two grids, 1e+-150 values, a zero
    # weight, a cut-off file, one that is not UTF-8, -16 or -32 text, and a
    # family entry off its level
    huge = Weight(GridConfig(1, 2), [1e-150, 1e150, 1e-150, 1e150])
    save_grid_function(huge, d / "huge.json")
    for name, cfg in (("line", GridConfig(1, 4)), ("plane", GridConfig(2, 2))):
        save_grid_function(Weight(cfg, rng.uniform(0.5, 2.0, 16)), d / f"{name}.json")
    (d / "malformed.json").write_bytes(b'{"dimension": 1, "finest_level": 4, "values": [1.0,')
    save_grid_function(GridFunction(GridConfig(1, 4), np.zeros(16)), d / "zero.json")
    (d / "undecodable.json").write_bytes(b'{"dimension": 1, "finest_level": 4, "values": [\xff]}')
    (d / "out_of_range.json").write_text(
        '[{"level": 0, "coords": [0, 0]}, {"level": 1, "coords": [0, 5]}]'
    )


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.stderr.write("usage: snapshot.py DIR\n")
        return 2
    out = Path(args[0]).resolve()
    inputs = out / "inputs"
    demos = out / "demos"
    for d in (out, inputs, demos):
        d.mkdir(parents=True, exist_ok=True)
    _write_inputs(inputs)

    for seed in VERIFY_SEEDS:
        verify = ["verify", "--suite", "all", "--seed", str(seed)]
        _cli(verify, out / f"verify_{seed}.json", out)
    _cli(["verify", "--suite", "all", "--out", "verify_out.json"], out / "verify_out.stdout", out)
    for p1, p2 in EXPONENTS:
        _cli(["exponents", "--p1", p1, "--p2", p2], out / f"exponents_{p1}_{p2}.json", out)
    for name, args in ERRORS:
        _cli(args, out / f"error_{name}.stdout", out)
    weights = f"{inputs / 'w1.json'},{inputs / 'w2.json'}"
    constants = ["constants", "--weights", weights, "--p1", "2", "--p2", "3"]
    _cli(constants, out / "constants.json", out)
    for name, flags in SLOPES:
        slope = ["experiment", "slope", *flags, "--out", str(out / f"slope_{name}.csv")]
        _cli(slope, out / f"slope_{name}.json", out)
    region = ["region", "--resolution", "200"]
    region += ["--csv", str(out / "region.csv"), "--svg", str(out / "region.svg")]
    _cli(region, out / "region.json", out)
    _cli(
        [
            "sparse-eval",
            "--family", str(inputs / "family.json"),
            "--f1", str(inputs / "f1.json"),
            "--f2", str(inputs / "f2.json"),
            "--out", str(out / "sparse_eval.json"),
        ],
        out / "sparse_eval.stdout",
        out,
    )
    for demo in sorted((ROOT / "demos").glob("*.py")):
        _run([sys.executable, str(demo)], demos / f"{demo.stem}.txt", demos)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
