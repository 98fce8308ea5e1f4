"""Verification driver: every module's property suite behind one entry point.

run_suite (suite "all", or a named subset) returns a JSON-serializable
report with one entry per check, including measured extremes, and never
raises on a failing property; unexpected exceptions are also folded into
the report.  Suites:

  dyadic    grid geometry exhaustives and measure-module properties
  lemmas    constant inequalities, transform identity, testing ratios,
            Kolmogorov, reverse Hoelder, exponent formulas and region
  stopping  sparse generator, stopping families, bilinear decomposition
  all       everything above
"""

from __future__ import annotations

import numpy as np

from . import constants as wc
from . import dyadic as wd
from . import exponents as we
from . import families as wf
from . import measure as wm
from . import sparse as ws
from . import stopping as wst
from . import testing_conditions as wtc
from .experiment import fit_loglog_slope

#: Local-vs-global testing comparison factor, pinned from first-run
#: measurements (observed max local/global = 1.17 across the seeded suites).
LOCAL_GLOBAL_FACTOR = 4.0

#: Adjacent-sample continuity constant for the exponent surface, pinned
#: from first-run measurements (observed max |d alpha| = 10.7 * step).
CONTINUITY_C = 16.0

_RATIO_SLOPE_TOL = 0.05

_DEFAULT_SEED = 20260809


# ---------------------------------------------------------------------------
# random instance helpers


def _random_exponents(rng) -> wm.ExponentTuple:
    x = rng.uniform(0.08, 0.80)
    y = rng.uniform(0.08, 0.92 - x)
    return wm.ExponentTuple(1.0 / x, 1.0 / y)


def _random_weight(rng, cfg) -> wm.Weight:
    return wm.Weight(cfg, np.exp(rng.uniform(-1.5, 1.5, cfg.cell_count)))


def _random_nonneg(rng, cfg, zeros=0.25) -> wm.GridFunction:
    vals = rng.uniform(0.0, 3.0, cfg.cell_count)
    vals *= rng.random(cfg.cell_count) > zeros
    return wm.GridFunction(cfg, vals)


def _random_family(rng, cfg) -> ws.SparseFamily:
    seed = int(rng.integers(0, 2**31))
    budget = float(rng.uniform(0.1, 0.5))
    return ws.generate_sparse(cfg, seed, budget)


def _random_families(rng, count, top_1d):
    """count nonempty random families, four in five on a 1D grid with K in
    [2, top_1d), the others on a 2D grid with K in [2, 5)."""
    while count:
        dim = 1 if rng.random() < 0.8 else 2
        K = int(rng.integers(2, top_1d)) if dim == 1 else int(rng.integers(2, 5))
        S = _random_family(rng, wd.GridConfig(dim, K))
        if len(S):
            count -= 1
            yield S


# ---------------------------------------------------------------------------
# checks


def check_dyadic_exhaustive(seed):
    failures = 0
    for dim, K in ((1, 4), (2, 3)):
        cfg = wd.GridConfig(dim, K)
        cubes = list(wd.all_cubes(cfg))
        cells = {q: set(wd.cells_of(q, cfg).tolist()) for q in cubes}
        for q in cubes:
            for r in cubes:
                rel = wd.relation(q, r)
                if q == r:
                    expect = wd.Relation.EQUAL
                elif cells[q] < cells[r]:
                    expect = wd.Relation.Q_INSIDE_R
                elif cells[r] < cells[q]:
                    expect = wd.Relation.R_INSIDE_Q
                elif cells[q].isdisjoint(cells[r]):
                    expect = wd.Relation.DISJOINT
                else:
                    expect = None  # partial overlap must never happen
                if rel is not expect:
                    failures += 1
        for k in range(K + 1):
            level = [q for q in cubes if q.level == k]
            union = set().union(*(cells[q] for q in level))
            total = sum(len(cells[q]) for q in level)
            if union != set(range(cfg.cell_count)) or total != cfg.cell_count:
                failures += 1
        for q in cubes:
            if q.level < K:
                for c in wd.children(q, cfg):
                    if wd.parent(c) != q:
                        failures += 1
    return {"pass": failures == 0, "failures": failures}


def check_measure_properties(seed):
    rng = np.random.default_rng(seed)
    worst_holder = 0.0
    worst_involution = 0.0
    failures = 0
    # weighted average with unit weight equals the plain average, exhaustively
    for dim, K in ((1, 4), (2, 3)):
        cfg = wd.GridConfig(dim, K)
        f = _random_nonneg(rng, cfg, zeros=0.0)
        one = wm.Weight(cfg, np.ones(cfg.cell_count))
        for q in wd.all_cubes(cfg):
            if abs(wm.weighted_average(f, one, q) - wm.average(f, q)) > 1e-12:
                failures += 1
    cfg = wd.GridConfig(1, 6)
    for _ in range(50):
        w = _random_weight(rng, cfg)
        f = wm.GridFunction(cfg, rng.normal(0.0, 2.0, cfg.cell_count))
        g = wm.GridFunction(cfg, rng.normal(0.0, 2.0, cfg.cell_count))
        s = rng.uniform(1.2, 4.0)
        t = rng.uniform(1.2, 4.0)
        r = 1.0 / (1.0 / s + 1.0 / t)
        lhs = wm.lp_norm(f * g, w, r)
        rhs = wm.lp_norm(f, w, s) * wm.lp_norm(g, w, t)
        worst_holder = max(worst_holder, lhs - rhs)
        if lhs > rhs * (1.0 + 1e-10):
            failures += 1
        p = rng.uniform(0.5, 4.0)
        if wm.weak_norm(f, w, p) > wm.lp_norm(f, w, p) * (1.0 + 1e-12):
            failures += 1
        pi = rng.uniform(1.2, 5.0)
        back = wm.dual_weight(wm.dual_weight(w, pi), wm._conjugate(pi))
        dev = float(np.max(np.abs(back.values - w.values) / w.values))
        worst_involution = max(worst_involution, dev)
        if dev > 1e-12:
            failures += 1
    return {
        "pass": failures == 0,
        "failures": failures,
        "max_holder_excess": worst_holder,
        "max_involution_dev": worst_involution,
    }


def check_kolmogorov(seed):
    rng = np.random.default_rng(seed)
    cfg = wd.GridConfig(1, 6)
    worst = 0.0
    failures = 0
    cubes = [wd.cube(0, 0), wd.cube(1, 0), wd.cube(2, 3)]
    for _ in range(100):
        f = _random_nonneg(rng, cfg)
        for p in (0.3, 0.5, 0.8):
            for q in cubes:
                lhs, rhs, ok = wm.kolmogorov_check(f, q, p)
                if not ok:
                    failures += 1
                if rhs > 0:
                    worst = max(worst, lhs / rhs)
    return {"pass": failures == 0, "failures": failures, "max_lhs_over_rhs": worst}


def check_joint_constant_inequalities(seed):
    rng = np.random.default_rng(seed)
    failures = 0
    worst_margin = np.inf
    cfg = wd.GridConfig(1, 6)
    suites = []
    for _ in range(50):
        P = _random_exponents(rng)
        suites.append((P, _random_weight(rng, cfg), _random_weight(rng, cfg)))
    cfg_pow = wd.GridConfig(1, 12)
    P_pow = wm.ExponentTuple(6.0, 6.0)
    for d in (2.0**-k for k in range(2, 10)):
        w = wf.power_weight((1.0 - d) * (P_pow.p1 - 1.0), cfg_pow)
        suites.append((P_pow, w, w))
    for P, w1, w2 in suites:
        rep = wc.check_constant_inequalities(wc.pair_weights(w1, w2, P))
        if not rep.passed:
            failures += 1
        worst_margin = min(
            worst_margin,
            rep.joint_bound - rep.joint_ap,
            rep.sigma1_bound - rep.sigma1_ap,
            rep.sigma2_bound - rep.sigma2_ap,
        )
    return {"pass": failures == 0, "failures": failures, "min_margin": worst_margin}


def check_dual_transform_identity(seed):
    rng = np.random.default_rng(seed)
    cfg = wd.GridConfig(1, 6)
    worst_percube = 0.0
    worst_constant = 0.0
    failures = 0
    for _ in range(50):
        P = _random_exponents(rng)
        w1 = _random_weight(rng, cfg)
        w2 = _random_weight(rng, cfg)
        pair = wc.pair_weights(w1, w2, P)
        dual, err = wc.dualize_first_entry(pair)
        worst_percube = max(worst_percube, err)
        orig = pair.apvec.value
        new = dual.apvec.value
        dev = abs(new - orig ** (P.p1_prime / P.p)) / new
        worst_constant = max(worst_constant, dev)
        if err > 1e-10 or dev > 1e-9:
            failures += 1
    return {
        "pass": failures == 0,
        "failures": failures,
        "max_percube_error": worst_percube,
        "max_constant_error": worst_constant,
    }


def check_reverse_holder(seed):
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    cfg = wd.GridConfig(1, 10)
    for a in (-0.9, -0.5, 0.5, 1.0, 2.0):
        ratio, ok = wc.reverse_holder_check(wf.power_weight(a, cfg))
        worst = max(worst, ratio)
        if not ok:
            failures += 1
    cfg8 = wd.GridConfig(1, 8)
    for _ in range(20):
        w = _random_weight(rng, cfg8)
        pi = rng.uniform(1.2, 5.0)
        ratio, ok = wc.reverse_holder_check(wm.dual_weight(w, pi))
        worst = max(worst, ratio)
        if not ok:
            failures += 1
    return {"pass": failures == 0, "failures": failures, "max_ratio": worst}


def check_sparse_generator(seed):
    rng = np.random.default_rng(seed)
    failures = 0
    sizes = []
    for _ in range(25):
        cfg = wd.GridConfig(int(rng.integers(1, 3)), int(rng.integers(2, 7)))
        fam = _random_family(rng, cfg)
        if ws._first_thin_cube(fam) is not None:  # verify_sparse's verdict
            failures += 1
        sizes.append(len(fam))
    cfg6 = wd.GridConfig(1, 6)
    ok, offender = ws.verify_sparse(list(wd.all_cubes(cfg6)), cfg6)
    if ok or offender is None:
        failures += 1  # the full tree must be rejected
    tower = ws.tower_family(cfg6)
    for q, cells in tower.witness.items():  # half of each cube, all of the finest
        kept = cells.size * (2 if q.level < cfg6.finest_level else 1)
        failures += kept != cfg6.cells_per_cube(q.level)
    return {"pass": failures == 0, "failures": failures, "sizes": sizes}


def check_stopping_families(seed):
    rng = np.random.default_rng(seed)
    failures = 0
    for S in _random_families(rng, 200, 10):
        cfg, K = S.config, S.config.finest_level
        f = _random_nonneg(rng, cfg)
        w = _random_weight(rng, cfg)
        p = float(rng.uniform(1.2, 4.0))
        fam = wst.build_stopping(S, f, w)
        rep = wst.carleson_checks(fam, p)
        if not (rep.child_mass_ok and rep.passed):
            failures += 1
        # a child's stopping parent is its ancestor's top; any cube's is its top
        gen, top, avg = fam.generation, fam.top, fam.wavg
        kids = np.flatnonzero(gen > 0)
        parents = top[ws.family_forest(S)[kids]]
        failures += int(np.count_nonzero(~(avg[kids] > 2.0 * avg[parents])))
        failures += int(np.count_nonzero(gen > K + 1) + np.count_nonzero(avg > 2.0 * avg[top]))
    return {"pass": failures == 0, "failures": failures, "instances": 200}


def check_bilinear_decomposition(seed):
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for S in _random_families(rng, 100, 9):
        cfg = S.config
        Sp = ws.restrict(S, S.cube_at(int(rng.integers(0, len(S)))))
        P = _random_exponents(rng)
        pair = wc.pair_weights(_random_weight(rng, cfg), _random_weight(rng, cfg), P)
        f2 = _random_nonneg(rng, cfg)
        h = _random_nonneg(rng, cfg)
        i1, i2, total = wst.bilinear_form_decompose(Sp, f2, h, pair)
        scale = max(abs(total), 1e-300)
        dev = abs(i1 + i2 - total) / scale
        worst = max(worst, dev)
        if dev > 1e-12:
            failures += 1
    return {"pass": failures == 0, "failures": failures, "max_partition_dev": worst}


def check_local_testing_direction(seed):
    rng = np.random.default_rng(seed)
    cfg = wd.GridConfig(1, 6)
    indicators = [wm.indicator(cfg, wd.cube(k, 0)) for k in range(0, cfg.finest_level, 2)]
    worst = 0.0
    failures = 0
    for _ in range(12):
        P = _random_exponents(rng)
        w1 = _random_weight(rng, cfg)
        w2 = _random_weight(rng, cfg)
        S = _random_family(rng, cfg)
        if len(S) == 0:
            continue
        fns = [*indicators, _random_nonneg(rng, cfg, zeros=0.0)]
        glob, loc = wtc.testing_sweep(S, wc.pair_weights(w1, w2, P), fns)
        glob, loc = float(glob.max()), float(loc.max())
        worst = max(worst, loc / glob)
        if loc > LOCAL_GLOBAL_FACTOR * glob:
            failures += 1
    return {"pass": failures == 0, "failures": failures, "max_local_over_global": worst}


def _delta_family():
    """Degeneration family of the localized and aggregate ratio checks: the
    power family at P = (2, 3) on the 1D K = 10 grid and the corner tower,
    returned as (tower, build_family's stream of (delta, pair))."""
    cfg = wd.GridConfig(1, 10)
    P = wm.ExponentTuple(2.0, 3.0)
    spec = wf.WeightFamilySpec("power", tuple(2.0**-k for k in range(1, 9)))
    return ws.tower_family(cfg), wf.build_family(spec, P, cfg)


def check_localized_testing_family(seed):
    rng = np.random.default_rng(seed)
    S, family = _delta_family()
    cfg = S.config
    qt = wd.cube(0, 0)
    f2s = [
        wm.indicator(cfg, wd.cube(cfg.finest_level, 0)),
        wm.indicator(cfg, wd.cube(5, 0)),
        wm.indicator(cfg, qt),
        _random_nonneg(rng, cfg, zeros=0.0),
    ]
    apv, loc = [], []
    for _, pair in family:
        apv.append(pair.apvec.value)
        loc.append(max(wtc.local_sigma_testing_ratio(S, pair, f2, qt).ratio for f2 in f2s))
    slope = fit_loglog_slope(apv, loc)
    return {
        "pass": slope <= _RATIO_SLOPE_TOL,
        "slope": slope,
        "max_ratio": max(loc),
    }


def check_sparse_sum_ratio_family(seed):
    S, family = _delta_family()
    apv, ratios = [], []
    for _, pair in family:
        apv.append(pair.apvec.value)
        ratios.append([r.ratio for r in wtc.sparse_sum_norm_ratios(S, pair)])
    s1 = fit_loglog_slope(apv, [r[0] for r in ratios])
    s2 = fit_loglog_slope(apv, [r[1] for r in ratios])
    return {
        "pass": s1 <= _RATIO_SLOPE_TOL and s2 <= _RATIO_SLOPE_TOL,
        "slope_product_sum": s1,
        "slope_mixed_sum": s2,
        "max_ratios": [max(r[0] for r in ratios), max(r[1] for r in ratios)],
    }


def check_exponent_formulas(seed):
    failures = 0
    cases = [
        ((2.0, 3.0), (1.5, 5.0 / 3.0, 1.5)),
        ((6.0, 6.0), (2.0 / 3.0, 1.0, 2.0 / 3.0)),
        ((4.0, 4.0), (1.0, 1.0, 1.0)),
    ]
    for (p1, p2), (eb, eg, ea) in cases:
        rep = we.alpha(wm.ExponentTuple(p1, p2))
        if (
            abs(rep.beta - eb) > 1e-12
            or abs(rep.gamma - eg) > 1e-12
            or abs(rep.alpha - ea) > 1e-12
        ):
            failures += 1
    rng = np.random.default_rng(seed)
    for _ in range(200):
        P = _random_exponents(rng)
        rep = we.alpha(P)
        swp = we.alpha(P.swapped())
        if abs(rep.beta - swp.beta) > 1e-15 or abs(rep.gamma - swp.gamma) > 1e-15:
            failures += 1
        if not rep.beta < 1.0 + 1.0 / P.p:
            failures += 1
        if rep.alpha > rep.beta or rep.alpha > rep.gamma:
            failures += 1
    return {"pass": failures == 0, "failures": failures}


def check_region_claims(seed):
    table = we.region_map(200)
    golden_bad = int(np.sum(table.p_ge_golden & ~table.alpha_lt_1))
    minp_bad = int(np.sum(table.min_gt_4 & ~table.alpha_lt_1))
    # continuity of alpha between adjacent samples
    res = 100
    t = we.region_map(res)
    grid = np.full((res, res), np.nan)
    grid[t.i, t.j] = t.alpha
    dx = np.abs(np.diff(grid, axis=0))
    dy = np.abs(np.diff(grid, axis=1))
    max_jump = float(max(np.nanmax(dx), np.nanmax(dy)))
    cont_ok = max_jump <= CONTINUITY_C / res
    small = we.region_map(3)
    row = np.nonzero((small.i == 0) & (small.j == 0))[0][0]
    alpha_ok = abs(small.alpha[row] - 2.0 / 3.0) < 1e-12
    return {
        "pass": golden_bad == 0 and minp_bad == 0 and cont_ok and alpha_ok,
        "golden_exceptions": golden_bad,
        "min_gt_4_exceptions": minp_bad,
        "max_adjacent_jump_times_res": max_jump * res,
    }


def check_family_monotonicity(seed):
    cfg = wd.GridConfig(1, 14)
    P = wm.ExponentTuple(6.0, 6.0)
    spec = wf.WeightFamilySpec("power", tuple(2.0**-k for k in range(2, 10)))
    consts = [pair.apvec.value for _, pair in wf.build_family(spec, P, cfg)]
    return {
        "pass": all(b > a for a, b in zip(consts, consts[1:])),
        "power_constants": [consts[0], consts[-1]],
    }


# ---------------------------------------------------------------------------
# driver

_CHECKS = {
    "dyadic_exhaustive": check_dyadic_exhaustive,
    "measure_properties": check_measure_properties,
    "kolmogorov_inequality": check_kolmogorov,
    "joint_constant_inequalities": check_joint_constant_inequalities,
    "dual_transform_identity": check_dual_transform_identity,
    "reverse_holder": check_reverse_holder,
    "local_testing_direction": check_local_testing_direction,
    "localized_testing_family": check_localized_testing_family,
    "sparse_sum_ratio_family": check_sparse_sum_ratio_family,
    "exponent_formulas": check_exponent_formulas,
    "region_claims": check_region_claims,
    "sparse_generator": check_sparse_generator,
    "stopping_family_checks": check_stopping_families,
    "bilinear_decomposition": check_bilinear_decomposition,
    "family_monotonicity": check_family_monotonicity,
}

SUITES = {
    "dyadic": ("dyadic_exhaustive", "measure_properties"),
    "lemmas": (
        "dual_transform_identity",
        "joint_constant_inequalities",
        "local_testing_direction",
        "localized_testing_family",
        "sparse_sum_ratio_family",
        "kolmogorov_inequality",
        "reverse_holder",
        "exponent_formulas",
        "region_claims",
    ),
    "stopping": (
        "sparse_generator",
        "stopping_family_checks",
        "bilinear_decomposition",
    ),
}
SUITES["all"] = SUITES["dyadic"] + SUITES["lemmas"] + SUITES["stopping"] + (
    "family_monotonicity",
)


def _jsonable(value):
    """Fold numpy scalars/arrays into plain Python so reports serialize."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def run_suite(suite: str = "all", seed: int = _DEFAULT_SEED) -> dict:
    if suite not in SUITES:
        raise ValueError(f"unknown suite '{suite}'; choose from {sorted(SUITES)}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    checks = []
    for name in SUITES[suite]:
        try:
            result = _jsonable(_CHECKS[name](seed))
        except Exception as e:  # report, never throw
            result = {"pass": False, "error": f"{type(e).__name__}: {e}"}
        result["pass"] = bool(result["pass"])
        checks.append({"name": name, **result})
    return {
        "suite": suite,
        "seed": seed,
        "passed": all(c["pass"] for c in checks),
        "checks": checks,
    }
