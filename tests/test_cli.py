import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import weaksparse
from weaksparse import experiment, families
from weaksparse import exponents as we
from weaksparse import verify as wv
from weaksparse.cli import main
from weaksparse.constants import check_constant_inequalities, pair_weights
from weaksparse.dyadic import GridConfig
from weaksparse.families import WeightFamilySpec
from weaksparse.measure import ExponentTuple, Weight, constant
from weaksparse.serialize import (
    load_grid_function,
    save_grid_function,
    save_sparse_family,
)
from weaksparse.sparse import generate_sparse, sparse_eval, tower_family


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_exponents_command(capsys):
    code, out = run_cli(capsys, "exponents", "--p1", "2", "--p2", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["beta"] == pytest.approx(1.5)
    assert doc["gamma"] == pytest.approx(5 / 3)
    assert doc["alpha"] == pytest.approx(1.5)
    assert doc["weak_strictly_better"] is True
    assert doc["alpha_lt_1"] is False


@pytest.mark.parametrize("p1, p2", [(2, 3), (4, 4), (6, 6), (4.5, 4.5), (3, 30), (1.05, 40)])
def test_exponents_stdout_is_the_report_in_floats_and_bools(capsys, p1, p2):
    """The report's fields are Python floats and bools, not numpy scalars
    (json.dumps refuses np.bool_, and np.float64 would pass it unseen)."""
    code, out = run_cli(capsys, "exponents", "--p1", str(p1), "--p2", str(p2))
    assert code == 0
    doc = json.loads(out)
    report = dataclasses.asdict(we.alpha(ExponentTuple(float(p1), float(p2))))
    assert doc == report
    flags = ("weak_strictly_better", "alpha_lt_1")
    types = {k: bool if k in flags else float for k in report}
    assert {k: type(v) for k, v in report.items()} == types
    assert {k: type(v) for k, v in doc.items()} == types


def test_region_command_writes_csv_and_svg(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    svg = tmp_path / "r.svg"
    code, out = run_cli(
        capsys, "region", "--resolution", "16",
        "--csv", str(csv), "--svg", str(svg),
    )
    assert code == 0
    assert csv.exists() and svg.exists()
    doc = json.loads(out)
    assert doc["points"] == sum(1 for i in range(16) for j in range(16) if i + j + 1 < 16)


def test_constants_command(tmp_path, capsys):
    cfg = GridConfig(1, 4)
    w1 = Weight(cfg, np.linspace(1.0, 3.0, cfg.cell_count))
    w2 = Weight(cfg, np.linspace(2.0, 0.5, cfg.cell_count))
    p1, p2 = tmp_path / "w1.json", tmp_path / "w2.json"
    save_grid_function(w1, p1)
    save_grid_function(w2, p2)
    code, out = run_cli(
        capsys, "constants", "--weights", f"{p1},{p2}", "--p1", "2", "--p2", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "apvec",
        "ainfty_v",
        "ainfty_sigma1",
        "ainfty_sigma2",
        "inequalities_pass",
    }
    assert doc["inequalities_pass"] is True
    assert doc["apvec"] >= 1.0


def test_sparse_eval_command(tmp_path, capsys):
    cfg = GridConfig(1, 4)
    rng = np.random.default_rng(5)
    f1 = Weight(cfg, rng.uniform(0.5, 2.0, cfg.cell_count))
    f2 = Weight(cfg, rng.uniform(0.5, 2.0, cfg.cell_count))
    fam = tower_family(cfg)
    pf1, pf2, pfam, pout = (
        tmp_path / "f1.json",
        tmp_path / "f2.json",
        tmp_path / "fam.json",
        tmp_path / "out.json",
    )
    save_grid_function(f1, pf1)
    save_grid_function(f2, pf2)
    save_sparse_family(fam, pfam)
    code, _ = run_cli(
        capsys, "sparse-eval", "--family", str(pfam),
        "--f1", str(pf1), "--f2", str(pf2), "--out", str(pout),
    )
    assert code == 0
    expected = sparse_eval(fam, f1, f2)
    assert np.array_equal(load_grid_function(pout).values, expected.values)


def test_verify_command_quick_suite(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, text = run_cli(capsys, "verify", "--suite", "dyadic", "--out", str(out))
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} == {
        "dyadic_exhaustive",
        "measure_properties",
    }
    assert json.loads(out.read_text()) == doc


def test_experiment_slope_command(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, text = run_cli(
        capsys, "experiment", "slope", "--p1", "6", "--p2", "6",
        "--finest-level", "8", "--deltas", "0.5,0.25,0.125,0.0625",
        "--out", str(out),
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["points"] == 4
    assert doc["alpha"] == pytest.approx(2 / 3)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "delta,apvec,weak,strong,ratio_weak,ratio_strong"
    assert len(lines) == 5


def test_experiment_slope_has_only_its_five_options(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "slope", "-h"])
    options = re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, re.M)
    assert options == ["--p1", "--p2", "--finest-level", "--deltas", "--out"]


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus"])
    suites = ", ".join(repr(name) for name in sorted(wv.SUITES))
    assert f"(choose from {suites})" in capsys.readouterr().err


def test_negative_seed_is_one_line_error(capsys):
    """A negative seed is bad input, exit 2, not a report of failed checks."""
    code = main(["verify", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "weaksparse: error: seed must be a non-negative integer, got -1\n"
    )


SPARSE_EVAL = (
    "sparse-eval", "--family", "{tmp}/doc.json", "--f1", "{tmp}/f.json",
    "--f2", "{tmp}/f.json", "--out", "{tmp}/out.json",
)
CONSTANTS = (
    "constants", "--weights", "{tmp}/doc.json,{tmp}/f.json", "--p1", "2", "--p2", "3",
)


@pytest.mark.parametrize(
    "template, doc, message",
    [
        (
            ("constants", "--weights", "{tmp}/a.json,{tmp}/b.json", "--p1", "2", "--p2", "3"),
            None,
            "No such file or directory",
        ),
        (
            SPARSE_EVAL,
            [{"level": 0, "coords": [0]}, [1, 0]],
            "cube entry 1: expected a JSON object",
        ),
        (
            SPARSE_EVAL,
            [{"level": 0, "coords": [0]}, {"level": 1}],
            "cube entry 1: needs 'level' and 'coords'",
        ),
        (
            SPARSE_EVAL,
            [{"level": 1.5, "coords": [0]}],
            "cube entry 0: level and coords must be integers",
        ),
        (SPARSE_EVAL, [{"level": 1, "coords": [0, 1]}], "cube dimension does not match grid"),
        (("exponents", "--p1", "1", "--p2", "3"), None, "p1 must satisfy 1 < p1 < inf"),
        (
            ("constants", "--weights", "{tmp}/f.json", "--p1", "2", "--p2", "3"),
            None,
            "--weights expects two comma-separated files",
        ),
        (
            (
                "constants", "--weights", "{tmp}/doc.json,{tmp}/f.json",
                "--p1", "2", "--p2", "3",
            ),
            {"dimension": 1.7, "finest_level": 3.9, "values": [1.0] * 8},
            "doc.json: field 'dimension' must be an integer",
        ),
        (CONSTANTS, {"dimension": 3, "finest_level": 3, "values": [1.0] * 8},
         "doc.json: dimension must be 1 or 2"),
        (CONSTANTS, {"dimension": 1, "finest_level": 3, "values": [0.0] * 8},
         "doc.json: weights must be strictly positive"),
        (
            CONSTANTS,
            '{"dimension": 1, "finest_level": 3, "values": [1e999, 1, 1, 1, 1, 1, 1, 1]}',
            "doc.json: cell values must be finite",
        ),
        (
            ("sparse-eval", "--family", "{tmp}/fam.json", "--f1", "{tmp}/doc.json",
             "--f2", "{tmp}/f.json", "--out", "{tmp}/out.json"),
            {"dimension": 1, "finest_level": 3, "values": [float("nan")] + [1.0] * 7},
            "doc.json: cell values must be finite",
        ),
        (
            SPARSE_EVAL,
            [{"level": 0, "coords": [0]}, {"level": 1, "coords": [5]}],
            "doc.json: cube entry 1: coords (5,) out of range at level 1",
        ),
        (
            SPARSE_EVAL,
            [{"level": 0, "coords": [0]}] + [{"level": 1, "coords": [c]} for c in (0, 1)],
            "doc.json: not canonically sparse",
        ),
        (SPARSE_EVAL, [{"level": 4, "coords": [0]}], "doc.json: cube entry 0: level must be in [0, 3]"),
        (CONSTANTS, {"dimension": 1, "finest_level": 2, "values": [1.0] * 4},
         "weight files live on different grids"),
        (
            ("sparse-eval", "--family", "{tmp}/fam.json", "--f1", "{tmp}/doc.json",
             "--f2", "{tmp}/f.json", "--out", "{tmp}/out.json"),
            {"dimension": 1, "finest_level": 2, "values": [1.0] * 4},
            "input functions live on different grids",
        ),
        (
            ("experiment", "slope", "--p1", "2", "--p2", "3", "--finest-level", "6",
             "--deltas", "0.5,0.5,0.25,0.125"),
            None,
            "family constants not strictly increasing",
        ),
    ],
    ids=[
        "missing_file", "non_object", "no_coords", "fractional_level",
        "wrong_dimension", "p1_one", "one_weight_file", "fractional_grid_header",
        "three_dimensions", "zero_weight", "infinite_weight", "nan_function",
        "coords_out_of_range", "not_sparse", "level_out_of_range", "weights_on_two_grids",
        "functions_on_two_grids", "constants_not_increasing",
    ],
)
def test_misuse_ends_in_one_line_error(tmp_path, capsys, template, doc, message):
    """Each error names the file at fault, and the family entry where one is."""
    cfg = GridConfig(1, 3)
    save_grid_function(Weight(cfg, np.ones(cfg.cell_count)), tmp_path / "f.json")
    (tmp_path / "fam.json").write_text('[{"level": 0, "coords": [0]}]')
    if doc is not None:
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (tmp_path / "doc.json").write_text(text)
    code = main([arg.format(tmp=tmp_path) for arg in template])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("weaksparse: error: ")
    assert captured.err.count("\n") == 1 and message in captured.err


def test_overflow_ends_in_one_line_error(tmp_path, capsys, monkeypatch):
    """A float that overflows inside a command is one error line, exit 2,
    that names the quantity; the library calls themselves still raise
    OverflowError."""
    cfg = GridConfig(1, 2)
    P = ExponentTuple(2, 3)
    w = Weight(cfg, [1e-150, 1e150, 1e-150, 1e150])
    for name in ("a", "b"):
        save_grid_function(w, tmp_path / f"{name}.json")
    with pytest.raises(OverflowError, match="joint constant .* raised to p1'/p"):
        check_constant_inequalities(pair_weights(w, Weight(cfg, w.values), P))

    def family(spec, P, config):
        """Weights 1e+-t for growing t, up to those above: the joint
        constant's power gamma overflows before its power alpha does."""
        for d, t in zip(sorted(spec.deltas, reverse=True), (1, 50, 100, 150)):
            wt = Weight(config, w.values ** (t / 150))
            yield d, pair_weights(wt, Weight(config, wt.values), P)

    monkeypatch.setattr(experiment, "build_family", family)
    spec = WeightFamilySpec("power", (0.5, 0.25, 0.125, 0.0625))
    gamma = "joint constant .* raised to gamma = 1.66667$"
    with np.errstate(over="ignore"), pytest.raises(OverflowError, match=gamma):
        # the sweep's norms overflow first, to inf
        experiment.slope_experiment(spec, P, cfg, tower_family(cfg))

    pair = f"{tmp_path}/a.json,{tmp_path}/b.json"
    code = main(["constants", "--weights", pair, "--p1", "2", "--p2", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("weaksparse: error: a value overflowed")
    assert captured.err.count("\n") == 1
    assert "a value overflowed: the joint constant " in captured.err
    assert captured.err.endswith(" raised to p1'/p = 1.66667\n")


def test_huge_exponents_end_in_one_stderr_line():
    """At p1 = p2 = 1e6 the test functions' powers overflow before the power
    weight underflows; stderr holds the error line, which names the power
    weight and its exponent, and no numpy warning."""
    src = os.path.dirname(os.path.dirname(weaksparse.__file__))
    argv = ["experiment", "slope", "--p1", "1e6", "--p2", "1e6", "--finest-level", "4"]
    out = subprocess.run(
        [sys.executable, "-m", "weaksparse", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == (
        "weaksparse: error: power weight x^a with a = 749999.25 underflows to 0 on 15 of 16 cells\n"
    )


def test_joint_constant_past_the_largest_double_ends_in_one_stderr_line(tmp_path):
    """On 1e+-200 weights at (2, 3) the level-1 joint product is about 1e479:
    stderr holds the refusal alone, without numpy's overflow warning, and
    stdout holds no report with an Infinity in it."""
    src = os.path.dirname(os.path.dirname(weaksparse.__file__))
    w = Weight(GridConfig(1, 2), [1e-200, 1e200, 1e-200, 1e200])
    save_grid_function(w, tmp_path / "w.json")
    argv = ["constants", "--weights", "w.json,w.json", "--p1", "2", "--p2", "3"]
    out = subprocess.run(
        [sys.executable, "-m", "weaksparse", *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "weaksparse: error: joint constant at level 1 is not finite\n"


def _write_past_the_doubles_inputs(d):
    """Two 1D K = 10 weights with values in [0.36, 3.5], and a 2D K = 4
    family with f = 1e200, whose coefficients <f>_Q^2 are past the largest
    double."""
    cfg = GridConfig(1, 10)
    for name, seed in (("a", 1), ("b", 2)):
        save_grid_function(families.random_weight(cfg, seed, 0.6), d / f"{name}.json")
    plane = GridConfig(2, 4)
    save_sparse_family(generate_sparse(plane, 1, 0.25), d / "family.json")
    save_grid_function(constant(plane, 1e200), d / "big.json")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["constants", "--weights", "a.json,b.json", "--p1", "1.0000001", "--p2", "1e9"],
            "dual weight w^(1 - p') at p = 1.0000001: cell values must be finite",
        ),
        (
            ["constants", "--weights", "a.json,b.json", "--p1", "1.001", "--p2", "1.5e3"],
            "dual weight w^(1 - p') at p = 1.001: weights must be strictly positive",
        ),
        (
            ["sparse-eval", "--family", "family.json", "--f1", "big.json", "--f2", "big.json",
             "--out", "image.json"],
            "cell values must be finite",
        ),
    ],
    ids=["dual_weight_overflows", "dual_weight_underflows", "sparse_eval_overflows"],
)
def test_powers_past_the_doubles_end_in_one_stderr_line(tmp_path, argv, message):
    """A dual weight whose power over- or underflows is refused by name, not
    as the user's weight; an image past the largest double is refused as
    before; stderr holds that line alone, without numpy's warning."""
    _write_past_the_doubles_inputs(tmp_path)
    src = os.path.dirname(os.path.dirname(weaksparse.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "weaksparse", *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == f"weaksparse: error: {message}\n"
    assert not (tmp_path / "image.json").exists()


def test_failed_suite_still_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(wv, "run_suite", lambda suite, seed: {"passed": False})
    code, _ = run_cli(capsys, "verify", "--suite", "dyadic")
    assert code == 1


def test_out_of_memory_ends_in_one_line_error(monkeypatch, capsys):
    """A request too large for memory is one error line, exit 2.  region_map
    is replaced by one that raises, so nothing is allocated."""

    def too_large(resolution):
        raise MemoryError(f"Unable to allocate 7.28 TiB at resolution {resolution}")

    monkeypatch.setattr(we, "region_map", too_large)
    code = main(["region", "--resolution", "1000000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "weaksparse: error: out of memory: "
        "Unable to allocate 7.28 TiB at resolution 1000000\n"
    )
