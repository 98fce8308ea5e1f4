import numpy as np
import pytest

from conftest import random_exponents, random_function, random_weight
from weaksparse.constants import apvec_constant, pair_weights
from weaksparse.dyadic import GridConfig, cube
from weaksparse.experiment import fit_loglog_slope
from weaksparse.families import power_weight
from weaksparse.measure import (
    ExponentTuple,
    Weight,
    constant,
    indicator,
)
from weaksparse.sparse import family_from_cubes, generate_sparse, tower_family
from weaksparse.testing_conditions import (
    global_strong_quantity,
    global_weak_quantity,
    local_sigma_testing_ratio,
    local_testing_quantity,
    sparse_sum_norm_ratios,
)
from weaksparse import testing_conditions as wtc  # a bare testing_sweep is collected

CFG = GridConfig(1, 6)
P23 = ExponentTuple(2.0, 3.0)


def _ones(cfg):
    return Weight(cfg, np.ones(cfg.cell_count))


def _power_pair(P, cfg, delta):
    return (
        power_weight((1 - delta) * (P.p1 - 1), cfg),
        power_weight((1 - delta) * (P.p2 - 1), cfg),
    )


# --- global quantity ---------------------------------------------------------


def test_global_weak_trivial_instance():
    S = family_from_cubes(CFG, [cube(0, 0)])
    pair = pair_weights(_ones(CFG), _ones(CFG), P23)
    f = constant(CFG, 1.0)
    assert global_weak_quantity(S, pair, f, f) == pytest.approx(1.0)
    assert global_strong_quantity(S, pair, f, f) == pytest.approx(1.0)


def test_global_weak_homogeneous(rng):
    S = tower_family(CFG)
    w1 = random_weight(rng, CFG)
    w2 = random_weight(rng, CFG)
    f1 = random_function(rng, CFG)
    f2 = random_function(rng, CFG)
    pair = pair_weights(w1, w2, P23)
    base = global_weak_quantity(S, pair, f1, f2)
    scaled = global_weak_quantity(S, pair, 5.0 * f1, 0.25 * f2)
    assert scaled == pytest.approx(base, rel=1e-10)


def test_global_weak_monotone_in_family(rng):
    small = family_from_cubes(CFG, [cube(0, 0)])
    big = tower_family(CFG)
    w1 = random_weight(rng, CFG)
    w2 = random_weight(rng, CFG)
    f = constant(CFG, 1.0)
    pair = pair_weights(w1, w2, P23)
    assert global_weak_quantity(big, pair, f, f) >= global_weak_quantity(
        small, pair, f, f
    ) * (1 - 1e-12)


def test_global_weak_rejects_zero_function():
    S = tower_family(CFG)
    pair = pair_weights(_ones(CFG), _ones(CFG), P23)
    with pytest.raises(ValueError, match="vanish"):
        global_weak_quantity(S, pair, constant(CFG, 0.0), constant(CFG, 1.0))


# --- local testing quantity --------------------------------------------------


def test_local_trivial_instance():
    S = family_from_cubes(CFG, [cube(0, 0)])
    pair = pair_weights(_ones(CFG), _ones(CFG), P23)
    f = constant(CFG, 1.0)
    assert local_testing_quantity(S, pair, f, f, cube(0, 0)) == pytest.approx(1.0)


def test_local_requires_family_cube():
    S = tower_family(CFG)
    pair = pair_weights(_ones(CFG), _ones(CFG), P23)
    f = constant(CFG, 1.0)
    with pytest.raises(ValueError, match="family"):
        local_testing_quantity(S, pair, f, f, cube(1, 1))


def test_local_restriction_consistency(rng):
    # with the data masked to q, cubes disjoint from q contribute nothing:
    # dropping them from the family leaves the local quantity unchanged
    from weaksparse.dyadic import Relation, relation
    from weaksparse.sparse import SparseFamily

    w1 = random_weight(rng, CFG)
    w2 = random_weight(rng, CFG)
    S = generate_sparse(CFG, seed=21, budget=0.35)
    q = S.cubes[len(S) // 2]
    f = random_function(rng, CFG)
    comparable = tuple(
        c for c in S.cubes if relation(c, q) is not Relation.DISJOINT
    )
    sub = SparseFamily(CFG, comparable)
    pair = pair_weights(w1, w2, P23)
    full = local_testing_quantity(S, pair, f, f, q)
    reduced = local_testing_quantity(sub, pair, f, f, q)
    assert full == pytest.approx(reduced, rel=1e-12)


def test_local_bounded_by_global_times_factor(rng):
    for _ in range(10):
        P = random_exponents(rng)
        w1 = random_weight(rng, CFG)
        w2 = random_weight(rng, CFG)
        S = generate_sparse(CFG, int(rng.integers(0, 2**31)), 0.35)
        fns = [indicator(CFG, cube(k, 0)) for k in (0, 2, 4)]
        fns.append(random_function(rng, CFG, signed=False))
        pair = pair_weights(w1, w2, P)
        glob = max(global_weak_quantity(S, pair, fa, fb) for fa in fns for fb in fns)
        loc = max(
            local_testing_quantity(S, pair, fa, fb, q)
            for fa in fns
            for fb in fns
            for q in S.cubes
        )
        # pinned comparison factor; observed max ratio is ~1.7
        assert loc <= 4.0 * glob


# --- batched sweep against the cellwise quantities --------------------------


def _cellwise(S, pair, fns):
    glob = [[global_weak_quantity(S, pair, a, b) for b in fns] for a in fns]
    loc = [
        [[local_testing_quantity(S, pair, a, b, q) for q in S.cubes] for b in fns]
        for a in fns
    ]
    return np.array(glob), np.array(loc)


def _sweep_functions(rng, cfg):
    corner = (0,) * cfg.dimension
    fns = [indicator(cfg, cube(k, *corner)) for k in (0, cfg.finest_level // 2)]
    return fns + [random_function(rng, cfg), random_function(rng, cfg, signed=False)]


def _assert_sweep_is_cellwise(rng, S):
    cfg = S.config
    P = random_exponents(rng)
    w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
    fns = _sweep_functions(rng, cfg)
    pair = pair_weights(w1, w2, P)
    glob, loc = wtc.testing_sweep(S, pair, fns)
    want_glob, want_loc = _cellwise(S, pair, fns)
    assert np.array_equal(glob, want_glob)
    assert loc.shape == (len(fns), len(fns), len(S))
    assert np.array_equal(loc, want_loc)


@pytest.mark.parametrize(
    "dim, K", [(1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 2), (2, 3), (2, 4)]
)
def test_sweep_matches_cellwise_bit_for_bit(dim, K):
    cfg = GridConfig(dim, K)
    for seed in range(3):
        rng = np.random.default_rng(100 * K + 10 * dim + seed)
        budget = float(rng.uniform(0.1, 0.5))
        S = generate_sparse(cfg, int(rng.integers(0, 2**31)), budget)
        _assert_sweep_is_cellwise(rng, S if len(S) else tower_family(cfg))


@pytest.mark.parametrize("cfg", [GridConfig(1, 6), GridConfig(2, 3)], ids=["1d", "2d"])
def test_sweep_on_shuffled_unverified_family_with_duplicate(cfg):
    # not necessarily sparse; the constructor sorts the
    # shuffled picks and drops the repeat
    from weaksparse.dyadic import all_cubes
    from weaksparse.sparse import SparseFamily

    rng = np.random.default_rng(cfg.dimension)
    pool = list(all_cubes(cfg))
    for _ in range(4):
        cubes = [pool[i] for i in rng.choice(len(pool), size=9, replace=False)]
        S = SparseFamily(cfg, tuple(cubes + [cubes[4]]))
        _assert_sweep_is_cellwise(rng, S)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_sweep_raises_like_the_cellwise_quantities():
    S = tower_family(CFG)
    pair = pair_weights(_ones(CFG), _ones(CFG), P23)
    q = S.cubes[2]
    zero, unit = constant(CFG, 0.0), constant(CFG, 1.0)
    for call in (
        lambda: wtc.testing_sweep(S, pair, [unit, zero]),
        lambda: global_weak_quantity(S, pair, unit, zero),
        lambda: local_testing_quantity(S, pair, zero, unit, q),
    ):
        with pytest.raises(ValueError, match="must not vanish identically"):
            call()
    huge = constant(CFG, 1e200)  # finite slots whose image overflows
    for call in (
        lambda: wtc.testing_sweep(S, pair, [unit, huge]),
        lambda: global_weak_quantity(S, pair, huge, huge),
        lambda: local_testing_quantity(S, pair, huge, huge, q),
    ):
        with pytest.raises(ValueError, match="cell values must be finite"):
            call()


# --- localized saturated-slot ratio -------------------------------------------


def test_localized_ratio_trivial_instance():
    S = family_from_cubes(CFG, [cube(0, 0)])
    pair = pair_weights(_ones(CFG), _ones(CFG), P23)
    rep = local_sigma_testing_ratio(S, pair, constant(CFG, 1.0), cube(0, 0))
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs_without_constant == pytest.approx(1.0)
    assert rep.ratio == pytest.approx(1.0)
    assert np.isfinite(rep.ratio)


def test_localized_ratio_rejects_support_violation():
    S = tower_family(CFG)
    pair = pair_weights(_ones(CFG), _ones(CFG), P23)
    with pytest.raises(ValueError, match="localization"):
        local_sigma_testing_ratio(S, pair, constant(CFG, 1.0), cube(1, 0))


def test_localized_ratio_refuses_data_from_another_grid():
    S = tower_family(CFG)
    one, f2 = _ones(CFG), constant(CFG, 1.0)
    for other in (GridConfig(1, 8), GridConfig(2, 3)):  # more cells, as many cells
        w, g = _ones(other), constant(other, 1.0)
        for w1, w2, h in ((one, one, g), (w, one, f2), (one, w, f2)):
            for qt in (cube(0, 0), cube(7, 0)):  # before the cube check
                with pytest.raises(ValueError, match="grid mismatch"):
                    local_sigma_testing_ratio(S, pair_weights(w1, w2, P23), h, qt)


def test_localized_ratio_golden_pin():
    cfg = GridConfig(1, 8)
    w1, w2 = _power_pair(P23, cfg, 0.25)
    S = tower_family(cfg)
    f2 = indicator(cfg, cube(8, 0))
    rep = local_sigma_testing_ratio(S, pair_weights(w1, w2, P23), f2, cube(0, 0))
    assert rep.ratio == pytest.approx(0.78264268602174381, rel=1e-9)


def test_localized_ratio_no_growth_along_degeneration():
    cfg = GridConfig(1, 10)
    S = tower_family(cfg)
    f2 = indicator(cfg, cube(10, 0))
    apvs, ratios = [], []
    for delta in [2.0**-k for k in range(1, 9)]:
        w1, w2 = _power_pair(P23, cfg, delta)
        pair = pair_weights(w1, w2, P23)
        apvs.append(apvec_constant(pair).value)
        ratios.append(local_sigma_testing_ratio(S, pair, f2, cube(0, 0)).ratio)
    assert fit_loglog_slope(apvs, ratios) <= 0.05


# --- aggregate sparse-sum ratios ----------------------------------------------


def test_sparse_sum_ratios_trivial_instance():
    S = family_from_cubes(CFG, [cube(0, 0)])
    r1, r2 = sparse_sum_norm_ratios(S, pair_weights(_ones(CFG), _ones(CFG), P23))
    assert r1.ratio == pytest.approx(1.0)
    assert r2.ratio == pytest.approx(1.0)


def test_sparse_sum_ratios_golden_pin():
    cfg = GridConfig(1, 8)
    w1, w2 = _power_pair(P23, cfg, 0.25)
    r1, r2 = sparse_sum_norm_ratios(tower_family(cfg), pair_weights(w1, w2, P23))
    assert r1.ratio == pytest.approx(0.97459516792973189, rel=1e-9)
    assert r2.ratio == pytest.approx(1.4937507813739488, rel=1e-9)


def test_sparse_sum_ratios_bounded_over_random_families(rng):
    cfg = GridConfig(1, 8)
    w1, w2 = _power_pair(P23, cfg, 0.25)
    pair = pair_weights(w1, w2, P23)
    worst = 0.0
    for seed in range(10):
        S = generate_sparse(cfg, seed, 0.35)
        r1, r2 = sparse_sum_norm_ratios(S, pair)
        assert np.isfinite(r1.ratio) and np.isfinite(r2.ratio)
        worst = max(worst, r1.ratio, r2.ratio)
    # pinned first-run maximum over this seeded suite
    assert worst == pytest.approx(1.4439004492283722, rel=1e-9)


def test_sparse_sum_ratios_no_growth_along_degeneration():
    cfg = GridConfig(1, 10)
    S = tower_family(cfg)
    apvs, rr1, rr2 = [], [], []
    for delta in [2.0**-k for k in range(1, 9)]:
        w1, w2 = _power_pair(P23, cfg, delta)
        pair = pair_weights(w1, w2, P23)
        apvs.append(apvec_constant(pair).value)
        r1, r2 = sparse_sum_norm_ratios(S, pair)
        rr1.append(r1.ratio)
        rr2.append(r2.ratio)
    assert fit_loglog_slope(apvs, rr1) <= 0.05
    assert fit_loglog_slope(apvs, rr2) <= 0.05


def test_all_ratios_finite_positive(rng):
    for _ in range(10):
        P = random_exponents(rng)
        w1 = random_weight(rng, CFG)
        w2 = random_weight(rng, CFG)
        S = generate_sparse(CFG, int(rng.integers(0, 2**31)), 0.3)
        r1, r2 = sparse_sum_norm_ratios(S, pair_weights(w1, w2, P))
        assert r1.ratio > 0 and np.isfinite(r1.ratio)
        assert r2.ratio > 0 and np.isfinite(r2.ratio)
