"""Command-line interface.

Subcommands: exponents, region, constants, sparse-eval, verify, and
experiment slope (along the power family, on the corner tower).  All
outputs are deterministic given flags and seeds.  A ValueError,
OSError, OverflowError or MemoryError ends in one "weaksparse: error:"
line and exit code 2; one about an input file names the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import constants as wc
from . import exponents as we
from . import serialize as wio
from . import verify as wv
from .dyadic import GridConfig
from .experiment import slope_experiment
from .families import WeightFamilySpec
from .measure import ExponentTuple
from .sparse import sparse_eval, tower_family


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _cmd_exponents(args) -> int:
    rep = we.alpha(ExponentTuple(args.p1, args.p2))
    _emit(asdict(rep))
    return 0


def _cmd_region(args) -> int:
    table = we.region_map(args.resolution)
    if args.csv:
        wio.write_region_csv(table, args.csv)
    if args.svg:
        wio.write_region_svg(table, args.svg)
    _emit(
        {
            "resolution": args.resolution,
            "points": len(table),
            "weak_strictly_better": int(table.weak_strictly_better.sum()),
            "alpha_lt_1": int(table.alpha_lt_1.sum()),
        }
    )
    return 0


def _cmd_constants(args) -> int:
    paths = args.weights.split(",")
    if len(paths) != 2:
        raise ValueError("--weights expects two comma-separated files")
    w1 = wio.load_weight(paths[0])
    w2 = wio.load_weight(paths[1])
    if w1.config != w2.config:
        raise ValueError("weight files live on different grids")
    pair = wc.pair_weights(w1, w2, ExponentTuple(args.p1, args.p2))
    # A_infty first: its walk needs under three cell arrays of its own, and
    # the inequalities leave s1, s2 and v holding their level averages,
    # three more; the other order peaks 4 MB higher at 2^20 cells.
    sigma1, sigma2, v = pair.ainfty
    inequalities = wc.check_constant_inequalities(pair)
    report = {
        "apvec": inequalities.apvec,
        "ainfty_v": v.value,
        "ainfty_sigma1": sigma1.value,
        "ainfty_sigma2": sigma2.value,
        "inequalities_pass": inequalities.passed,
    }
    _emit(report)
    return 0


def _cmd_sparse_eval(args) -> int:
    f1 = wio.load_grid_function(args.f1)
    f2 = wio.load_grid_function(args.f2)
    if f1.config != f2.config:
        raise ValueError("input functions live on different grids")
    family = wio.load_sparse_family(args.family, f1.config)
    wio.save_grid_function(sparse_eval(family, f1, f2), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = wv.run_suite(args.suite, args.seed)
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        wio._write_text(args.out, text)
    return 0 if report["passed"] else 1


def _cmd_experiment_slope(args) -> int:
    deltas = tuple(float(tok) for tok in args.deltas.split(","))
    config = GridConfig(1, args.finest_level)
    P = ExponentTuple(args.p1, args.p2)
    spec = WeightFamilySpec("power", deltas)
    result = slope_experiment(spec, P, config, tower_family(config))
    if args.out:
        wio.write_experiment_csv(result.rows, args.out)
    rep = we.alpha(P)
    _emit(
        {
            "weak_slope": result.weak_slope,
            "strong_slope": result.strong_slope,
            "alpha": rep.alpha,
            "gamma": rep.gamma,
            "points": len(result.rows),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weaksparse",
        description="Dyadic sparse-operator laboratory for weighted norm inequalities",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="weak/strong exponent report for (p1, p2)")
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.set_defaults(fn=_cmd_exponents)

    p = sub.add_parser("region", help="exponent region table as CSV/SVG")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--csv")
    p.add_argument("--svg")
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("constants", help="weight constants for a stored pair")
    p.add_argument("--weights", required=True, help="w1.json,w2.json")
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("sparse-eval", help="apply a stored sparse family")
    p.add_argument("--family", required=True)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sparse_eval)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(wv.SUITES), default="all")
    p.add_argument("--seed", type=int, default=wv._DEFAULT_SEED)
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("experiment", help="measurement experiments")
    esub = p.add_subparsers(dest="experiment", required=True)
    ps = esub.add_parser("slope", help="empirical exponent along a weight family")
    ps.add_argument("--p1", type=float, required=True)
    ps.add_argument("--p2", type=float, required=True)
    ps.add_argument("--finest-level", type=int, required=True)
    ps.add_argument(
        "--deltas",
        default="0.25,0.125,0.0625,0.03125,0.015625,0.0078125,0.00390625,0.001953125",
        help="comma-separated list in (0, 1]",
    )
    ps.add_argument("--out", help="write per-delta rows as CSV")
    ps.set_defaults(fn=_cmd_experiment_slope)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, OverflowError, MemoryError) as e:
        if isinstance(e, OverflowError):
            why = f"a value overflowed: {e}"
        elif isinstance(e, MemoryError):
            why = f"out of memory: {e}"
        else:
            why = e
        sys.stderr.write(f"weaksparse: error: {why}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
