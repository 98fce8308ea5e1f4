import json

import numpy as np
import pytest

from weaksparse import exponents as we
from weaksparse import verify as wv
from weaksparse.cli import main
from weaksparse.constants import check_constant_inequalities, pair_weights
from weaksparse.dyadic import GridConfig
from weaksparse.measure import ExponentTuple, Weight
from weaksparse.serialize import (
    load_grid_function,
    save_grid_function,
    save_sparse_family,
)
from weaksparse.sparse import sparse_eval, tower_family


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


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus"])


def test_negative_seed_is_one_line_error(capsys):
    """A negative seed is bad input, exit 2, not a report of failed checks."""
    code = main(["verify", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "weaksparse: error: seed must be a non-negative integer, got -1\n"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
        (["--roughness", "nan"], "roughness must be finite"),
    ],
    ids=["seed", "roughness"],
)
@pytest.mark.parametrize("family", ["power", "random_ap"])
def test_bad_family_input_is_one_line_error(capsys, family, flags, message):
    """A bad --seed or --roughness of experiment slope names its option,
    whichever family reads it, in one error line with exit 2."""
    argv = ["experiment", "slope", "--p1", "2", "--p2", "3", "--finest-level", "6"]
    code = main(argv + ["--family", family] + flags)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"weaksparse: error: {message}\n"


SPARSE_EVAL = (
    "sparse-eval", "--family", "{tmp}/doc.json", "--f1", "{tmp}/f.json",
    "--f2", "{tmp}/f.json", "--out", "{tmp}/out.json",
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
    ],
    ids=[
        "missing_file", "non_object", "no_coords", "fractional_level",
        "wrong_dimension", "p1_one", "one_weight_file", "fractional_grid_header",
    ],
)
def test_misuse_ends_in_one_line_error(tmp_path, capsys, template, doc, message):
    cfg = GridConfig(1, 3)
    save_grid_function(Weight(cfg, np.ones(cfg.cell_count)), tmp_path / "f.json")
    if doc is not None:
        (tmp_path / "doc.json").write_text(json.dumps(doc))
    code = main([arg.format(tmp=tmp_path) for arg in template])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("weaksparse: error: ")
    assert captured.err.count("\n") == 1 and message in captured.err


def test_overflow_ends_in_one_line_error(tmp_path, capsys):
    """A float that overflows inside a command is one error line, exit 2,
    that names the quantity; the library call itself still raises
    OverflowError."""
    cfg = GridConfig(1, 2)
    w = Weight(cfg, [1e-150, 1e150, 1e-150, 1e150])
    for name in ("a", "b"):
        save_grid_function(w, tmp_path / f"{name}.json")
    with pytest.raises(OverflowError, match="joint constant .* raised to p1'/p"):
        check_constant_inequalities(
            pair_weights(w, Weight(cfg, w.values), ExponentTuple(2, 3))
        )
    pair = f"{tmp_path}/a.json,{tmp_path}/b.json"
    for argv, quantity in (
        (["constants", "--weights", pair, "--p1", "2", "--p2", "3"], "p1'/p = 1.66667"),
        (
            [
                "experiment", "slope", "--p1", "2", "--p2", "3", "--finest-level", "8",
                "--family", "random_ap", "--roughness", "250",
            ],
            "gamma = 1.66667",
        ),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("weaksparse: error: a value overflowed")
        assert captured.err.count("\n") == 1
        assert "a value overflowed: the joint constant " in captured.err
        assert captured.err.endswith(f" raised to {quantity}\n")


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
