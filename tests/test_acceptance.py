"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time

import numpy as np
import pytest

import weaksparse as wsl
from weaksparse import pair_weights
from weaksparse.cli import main as cli_main
from weaksparse.dyadic import GridConfig, all_cubes, cube
from weaksparse.exponents import region_map
from weaksparse.families import WeightFamilySpec, power_weight
from weaksparse.measure import ExponentTuple, Weight, dual_weight
from weaksparse.serialize import save_grid_function, save_sparse_family
from weaksparse.sparse import generate_sparse, restrict, tower_family, verify_sparse
from weaksparse.stopping import (
    bilinear_form_decompose,
    build_stopping,
    carleson_checks,
    stopping_parent,
)
from weaksparse.verify import (
    _DEFAULT_SEED,
    _random_exponents,
    _random_nonneg,
    _random_weight,
)

SEED = 987654321


def _report(num, ok, detail=""):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def _rng():
    return np.random.default_rng(SEED)


def test_acceptance_01_exponent_formulas():
    cases = {
        (2.0, 3.0): (1.5, 5.0 / 3.0, 1.5),
        (6.0, 6.0): (2.0 / 3.0, 1.0, 2.0 / 3.0),
        (4.0, 4.0): (1.0, 1.0, 1.0),
    }
    worst = 0.0
    for (p1, p2), (eb, eg, ea) in cases.items():
        rep = wsl.alpha(ExponentTuple(p1, p2))
        worst = max(
            worst, abs(rep.beta - eb), abs(rep.gamma - eg), abs(rep.alpha - ea)
        )
    _report(1, worst <= 1e-12, f"max deviation {worst:.2e}")


def test_acceptance_02_region_reproduction():
    start = time.perf_counter()
    t = region_map(200)
    golden_bad = int(np.sum(t.p_ge_golden & ~t.alpha_lt_1))
    minp_bad = int(np.sum(t.min_gt_4 & ~t.alpha_lt_1))
    elapsed = time.perf_counter() - start
    _report(
        2,
        golden_bad == 0 and minp_bad == 0 and elapsed < 1.0,
        f"exceptions {golden_bad}+{minp_bad}, {elapsed:.3f}s on {len(t)} points",
    )


def test_acceptance_03_dual_transform_exactness():
    start = time.perf_counter()
    rng = _rng()
    cfg = GridConfig(1, 6)
    worst_cube = 0.0
    worst_const = 0.0
    for _ in range(50):
        P = _random_exponents(rng)
        w1 = _random_weight(rng, cfg)
        w2 = _random_weight(rng, cfg)
        pair = pair_weights(w1, w2, P)
        dual, err = wsl.dualize_first_entry(pair)
        worst_cube = max(worst_cube, err)
        a = wsl.apvec_constant(pair).value
        b = wsl.apvec_constant(dual).value
        worst_const = max(worst_const, abs(b - a ** (P.p1_prime / P.p)) / b)
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst_cube <= 1e-10 and worst_const <= 1e-9 and elapsed < 10.0,
        f"per-cube {worst_cube:.2e}, constant {worst_const:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_04_constant_inequalities():
    rng = _rng()
    cfg = GridConfig(1, 6)
    all_pass = True
    for _ in range(50):
        P = _random_exponents(rng)
        rep = wsl.check_constant_inequalities(
            pair_weights(_random_weight(rng, cfg), _random_weight(rng, cfg), P)
        )
        all_pass &= rep.passed
    cfg_pow = GridConfig(1, 12)
    P66 = ExponentTuple(6.0, 6.0)
    for delta in [2.0**-k for k in range(2, 10)]:
        w1 = power_weight((1 - delta) * 5.0, cfg_pow)
        w2 = power_weight((1 - delta) * 5.0, cfg_pow)
        all_pass &= wsl.check_constant_inequalities(pair_weights(w1, w2, P66)).passed
    _report(4, all_pass, "random suite + power family to delta=2^-9")


def test_acceptance_05_kolmogorov():
    rng = _rng()
    cfg = GridConfig(1, 6)
    all_pass = True
    for _ in range(100):
        f = _random_nonneg(rng, cfg)
        for p in (0.3, 0.5, 0.8):
            _, _, ok = wsl.kolmogorov_check(f, cube(0, 0), p)
            all_pass &= ok
    _report(5, all_pass, "100 functions x p in {0.3, 0.5, 0.8}")


def test_acceptance_06_reverse_holder():
    rng = _rng()
    all_pass = True
    worst = 0.0
    cfg = GridConfig(1, 10)
    for a in (-0.9, -0.5, 0.5, 1.0, 2.0):
        ratio, ok = wsl.reverse_holder_check(power_weight(a, cfg))
        all_pass &= ok
        worst = max(worst, ratio)
    cfg8 = GridConfig(1, 8)
    for _ in range(20):
        sigma = dual_weight(_random_weight(rng, cfg8), rng.uniform(1.3, 4.0))
        ratio, ok = wsl.reverse_holder_check(sigma)
        all_pass &= ok
        worst = max(worst, ratio)
    _report(6, all_pass, f"worst ratio {worst:.6f} <= 2")


def test_acceptance_07_stopping_machinery():
    rng = _rng()
    failures = 0
    done = 0
    while done < 200:
        dim = 1 if rng.random() < 0.8 else 2
        K = int(rng.integers(2, 10)) if dim == 1 else int(rng.integers(2, 5))
        cfg = GridConfig(dim, K)
        S = generate_sparse(
            cfg, int(rng.integers(0, 2**31)), float(rng.uniform(0.1, 0.5))
        )
        if len(S) == 0:
            continue
        f = _random_nonneg(rng, cfg)
        w = _random_weight(rng, cfg)
        p = float(rng.uniform(1.2, 4.0))
        fam = build_stopping(S, f, w)
        rep = carleson_checks(fam, p)
        if not (rep.child_mass_ok and rep.passed):
            failures += 1
        for j, q in enumerate(S.cubes):
            if fam.wavg[j] > 2.0 * fam.wavg[S.position(stopping_parent(fam, q))]:
                failures += 1
        done += 1
    _report(7, failures == 0, f"200 instances, {failures} failures")


def test_acceptance_08_two_family_partition():
    rng = _rng()
    worst = 0.0
    done = 0
    while done < 100:
        dim = 1 if rng.random() < 0.8 else 2
        K = int(rng.integers(2, 9)) if dim == 1 else int(rng.integers(2, 5))
        cfg = GridConfig(dim, K)
        S = generate_sparse(
            cfg, int(rng.integers(0, 2**31)), float(rng.uniform(0.1, 0.5))
        )
        if len(S) == 0:
            continue
        Sp = restrict(S, S.cubes[int(rng.integers(0, len(S)))])
        P = _random_exponents(rng)
        w1 = _random_weight(rng, cfg)
        w2 = _random_weight(rng, cfg)
        i1, i2, total = bilinear_form_decompose(
            Sp,
            _random_nonneg(rng, cfg),
            _random_nonneg(rng, cfg),
            pair_weights(w1, w2, P),
        )
        worst = max(worst, abs(i1 + i2 - total) / max(abs(total), 1e-300))
        done += 1
    _report(8, worst <= 1e-12, f"100 instances, worst partition dev {worst:.2e}")


def test_acceptance_09_sparsity():
    rng = _rng()
    ok = True
    for _ in range(20):
        cfg = GridConfig(int(rng.integers(1, 3)), int(rng.integers(2, 7)))
        fam = generate_sparse(
            cfg, int(rng.integers(0, 2**31)), float(rng.uniform(0.1, 0.5))
        )
        passed, _ = verify_sparse(fam.cubes, cfg)
        ok &= passed
    cfg6 = GridConfig(1, 6)
    rejected, _ = verify_sparse(list(all_cubes(cfg6)), cfg6)
    ok &= not rejected
    tower = tower_family(cfg6)
    for q in tower.cubes:
        expected = cfg6.cells_per_cube(q.level)
        if q.level < cfg6.finest_level:
            ok &= 2 * tower.witness[q].size == expected
    _report(9, ok, "generator verified, full tree rejected, tower exact")


def test_acceptance_10_slope_experiment():
    start = time.perf_counter()
    cfg = GridConfig(1, 14)
    P = ExponentTuple(6.0, 6.0)
    spec = WeightFamilySpec("power", tuple(2.0**-k for k in range(2, 10)))
    res = wsl.slope_experiment(spec, P, cfg, tower_family(cfg))
    elapsed = time.perf_counter() - start
    bound = 2.0 / 3.0 + 0.15
    ok = (
        res.weak_slope <= bound
        and res.weak_slope <= res.strong_slope + 0.05
        and elapsed < 120.0
    )
    _report(
        10,
        ok,
        f"weak {res.weak_slope:.4f} <= {bound:.4f}, "
        f"strong {res.strong_slope:.4f}, {elapsed:.1f}s",
    )


def test_acceptance_11_ratio_guards():
    from weaksparse.verify import (
        check_localized_testing_family,
        check_sparse_sum_ratio_family,
    )

    loc = check_localized_testing_family(_DEFAULT_SEED)
    sums = check_sparse_sum_ratio_family(_DEFAULT_SEED)
    s_loc = loc["slope"]
    s_r1, s_r2 = sums["slope_product_sum"], sums["slope_mixed_sum"]
    golden = {
        "localized": 1.9839924789405023,
        "product_sum": 1.1179276942582035,
        "mixed_sum": 1.560053124447643,
    }
    maxima = {
        "localized": loc["max_ratio"],
        "product_sum": sums["max_ratios"][0],
        "mixed_sum": sums["max_ratios"][1],
    }
    slopes_ok = max(s_loc, s_r1, s_r2) <= 0.05
    golden_ok = all(
        abs(maxima[k] - golden[k]) <= 1e-9 * golden[k] for k in golden
    )
    _report(
        11,
        slopes_ok and golden_ok,
        f"slopes ({s_loc:.3f}, {s_r1:.3f}, {s_r2:.3f}) <= 0.05, maxima pinned",
    )


def test_acceptance_12_cli_determinism(tmp_path, capsys):
    cfg = GridConfig(1, 5)
    rng = _rng()
    w1 = Weight(cfg, np.exp(rng.uniform(-1, 1, cfg.cell_count)))
    w2 = Weight(cfg, np.exp(rng.uniform(-1, 1, cfg.cell_count)))
    save_grid_function(w1, tmp_path / "w1.json")
    save_grid_function(w2, tmp_path / "w2.json")
    save_sparse_family(tower_family(cfg), tmp_path / "fam.json")

    def run(tag):
        d = tmp_path / tag
        d.mkdir()
        outputs = {}
        cli_main(["exponents", "--p1", "2.5", "--p2", "3.5"])
        outputs["exponents"] = capsys.readouterr().out
        cli_main(
            ["region", "--resolution", "24", "--csv", str(d / "r.csv"),
             "--svg", str(d / "r.svg")]
        )
        outputs["region_out"] = capsys.readouterr().out
        outputs["region_csv"] = (d / "r.csv").read_bytes()
        outputs["region_svg"] = (d / "r.svg").read_bytes()
        cli_main(
            ["constants", "--weights",
             f"{tmp_path / 'w1.json'},{tmp_path / 'w2.json'}",
             "--p1", "2", "--p2", "3"]
        )
        outputs["constants"] = capsys.readouterr().out
        cli_main(
            ["sparse-eval", "--family", str(tmp_path / "fam.json"),
             "--f1", str(tmp_path / "w1.json"), "--f2", str(tmp_path / "w2.json"),
             "--out", str(d / "g.json")]
        )
        capsys.readouterr()
        outputs["sparse_eval"] = (d / "g.json").read_bytes()
        cli_main(["verify", "--suite", "dyadic", "--seed", "11"])
        outputs["verify"] = capsys.readouterr().out
        cli_main(
            ["experiment", "slope", "--p1", "6", "--p2", "6",
             "--finest-level", "7", "--deltas", "0.5,0.25,0.125,0.0625",
             "--out", str(d / "rows.csv")]
        )
        outputs["experiment"] = capsys.readouterr().out
        outputs["experiment_csv"] = (d / "rows.csv").read_bytes()
        return outputs

    first = run("a")
    second = run("b")
    mismatched = [k for k in first if first[k] != second[k]]
    _report(12, not mismatched, f"mismatched outputs: {mismatched or 'none'}")
