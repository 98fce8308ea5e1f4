import numpy as np
import pytest

from conftest import random_exponents, random_function, random_weight
from test_family_oracles import _sparse_eval_oracle
from weaksparse import experiment
from weaksparse import testing_conditions as wtc
from weaksparse.constants import pair_weights
from weaksparse.dyadic import DyadicCube, GridConfig, all_cubes, cube
from weaksparse.experiment import (
    _pair_sweep,
    default_test_functions,
    fit_loglog_slope,
    slope_experiment,
)
from weaksparse.families import WeightFamilySpec, build_family
from weaksparse.measure import (
    ExponentTuple,
    Weight,
    constant,
    dual_weight,
    indicator,
)
from weaksparse.sparse import (
    SparseFamily,
    generate_sparse,
    tower_family,
)
from weaksparse.testing_conditions import (
    _slot_powers,
    global_strong_quantity,
    global_weak_quantity,
)

CFG = GridConfig(1, 8)
P66 = ExponentTuple(6.0, 6.0)


def test_fit_recovers_exact_power_law():
    x = np.array([1.0, 2.0, 5.0, 20.0, 100.0])
    y = 3.0 * x**0.42
    assert fit_loglog_slope(x, y) == pytest.approx(0.42, abs=1e-12)


def test_default_test_functions_shape():
    fns = default_test_functions(CFG, seed=1)
    assert len(fns) == CFG.finest_level + 1 + 8
    assert all(f.values.min() >= 0 for f in fns)
    again = default_test_functions(CFG, seed=1)
    assert all(
        np.array_equal(a.values, b.values) for a, b in zip(fns, again)
    )


# --- atom evaluation against the cellwise oracle ----------------------------


def _oracle_family(rng, seed):
    """1D / 2D generated families, towers, and unverified cube sets."""
    kind = seed % 4
    cfg = GridConfig(1, 6) if seed % 8 < 4 else GridConfig(2, 3)
    if kind == 0:
        return generate_sparse(cfg, seed=seed, budget=0.35)
    if kind == 1:
        return generate_sparse(cfg, seed=seed, budget=0.2)
    if kind == 2:
        return tower_family(cfg)
    # not necessarily sparse; the constructor sorts the
    # shuffled picks and drops the repeat
    pool = list(all_cubes(cfg))
    picks = rng.choice(len(pool), size=8, replace=False)
    cubes = [pool[i] for i in picks]
    return SparseFamily(cfg, tuple(cubes + [cubes[3]]))


def _oracle_functions(rng, cfg):
    fns = [
        indicator(cfg, DyadicCube(k, (0,) * cfg.dimension))
        for k in range(cfg.finest_level + 1)
    ]
    return fns + [random_function(rng, cfg) for _ in range(3)]


@pytest.mark.parametrize("seed", range(24))
def test_pair_sweep_matches_cellwise_oracle(monkeypatch, seed):
    # the cellwise quantities evaluate with the per-cube loop, not the sweep
    monkeypatch.setattr(wtc, "sparse_eval", _sparse_eval_oracle)
    rng = np.random.default_rng(seed)
    S = _oracle_family(rng, seed)
    cfg = S.config
    w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
    P = random_exponents(rng)
    fns = _oracle_functions(rng, cfg)

    pair = pair_weights(w1, w2, P)
    weak, strong = _pair_sweep(S, pair, *_slot_powers(fns, cfg, P))
    pairs = [(a, b) for a in fns for b in fns]
    assert weak == pytest.approx(
        max(global_weak_quantity(S, pair, a, b) for a, b in pairs), rel=1e-12
    )
    assert strong == pytest.approx(
        max(global_strong_quantity(S, pair, a, b) for a, b in pairs), rel=1e-12
    )

    s1, s2 = dual_weight(w1, P.p1), dual_weight(w2, P.p2)
    g1 = [abs(f) * s1 for f in fns]
    g2 = [abs(f) * s2 for f in fns]
    c1 = np.array([S.sums(f) for f in g1]) / S.cells
    c2 = np.array([S.sums(f) for f in g2]) / S.cells
    images = S.images(c1[:, None, :] * c2[None, :, :])
    assert not images[:, :, len(S)].any()  # zero off the union
    for i, a in enumerate(g1):
        for j, b in enumerate(g2):
            cellwise = _sparse_eval_oracle(S, a, b).values
            assert np.array_equal(images[i, j][S.paint[0]], cellwise)


def test_pair_sweep_keeps_ties_at_full_mass():
    # {root, both children}: the root atom is empty and the two child atoms
    # carry the same value, so weak_norm's last-of-run mass must be used
    cfg = GridConfig(1, 2)
    S = SparseFamily(cfg, (cube(0, 0), cube(1, 0), cube(1, 1)))
    one = Weight(cfg, np.ones(cfg.cell_count))
    P = ExponentTuple(3.0, 3.0)
    fns = [constant(cfg, 1.0)]
    c = S.sums(fns[0]) / S.cells
    images = S.images(c * c)
    assert images[1] == images[2] == 2.0
    assert S.masses(one)[0] == 0.0
    pair = pair_weights(one, one, P)
    weak, strong = _pair_sweep(S, pair, *_slot_powers(fns, cfg, P))
    assert weak == global_weak_quantity(S, pair, fns[0], fns[0]) == 2.0
    assert strong == global_strong_quantity(S, pair, fns[0], fns[0]) == 2.0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_pair_sweep_keeps_empty_atoms_out_of_an_overflowing_norm():
    # the root and [0, 1/2) are covered by their children, so their atoms
    # have no cells; at p = 40 the image 2 c^2 on [0, 1/2) overflows to
    # inf, and inf times its zero mass would make the strong norm nan
    cfg = GridConfig(1, 2)
    S = SparseFamily(cfg, (cube(0, 0), cube(1, 0), cube(1, 1), cube(2, 0), cube(2, 1)))
    one = Weight(cfg, np.ones(cfg.cell_count))
    P = ExponentTuple(80.0, 80.0)
    f = constant(cfg, 6000.0)  # |f|^80 stays finite
    assert S.images(np.ones(len(S)))[:2].tolist() == [0.0, 0.0]
    pair = pair_weights(one, one, P)
    weak, strong = _pair_sweep(S, pair, *_slot_powers([f], cfg, P))
    assert strong == global_strong_quantity(S, pair, f, f) == np.inf
    assert weak == global_weak_quantity(S, pair, f, f)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_pair_sweep_raises_like_the_oracle():
    cfg = GridConfig(1, 4)
    S = tower_family(cfg)
    one = Weight(cfg, np.ones(cfg.cell_count))
    P = ExponentTuple(3.0, 3.0)
    huge = constant(cfg, 1e200)  # finite slots whose image overflows
    pair = pair_weights(one, one, P)
    with pytest.raises(ValueError, match="cell values must be finite"):
        global_weak_quantity(S, pair, huge, huge)
    with pytest.raises(ValueError, match="cell values must be finite"):
        _pair_sweep(S, pair, *_slot_powers([huge], cfg, P))
    zero = constant(cfg, 0.0)
    with pytest.raises(ValueError, match="must not vanish identically"):
        _pair_sweep(S, pair, *_slot_powers([constant(cfg, 1.0), zero], cfg, P))
    tiny = Weight(cfg, np.full(cfg.cell_count, 1e-300))  # dual weight 1e150
    pair = pair_weights(tiny, one, P)
    with pytest.raises(ValueError, match="cell values must be finite"):
        global_weak_quantity(S, pair, huge, huge)
    with pytest.raises(ValueError, match="cell values must be finite"):
        # the slot product overflows
        _pair_sweep(S, pair, *_slot_powers([huge], cfg, P))


def _small_spec(deltas=(0.5, 0.25, 0.125, 0.0625)):
    return WeightFamilySpec("power", deltas)


def test_slope_experiment_small_run():
    res = slope_experiment(_small_spec(), P66, CFG, tower_family(CFG))
    assert len(res.rows) == 4
    deltas = [r.delta for r in res.rows]
    assert deltas == sorted(deltas, reverse=True)
    consts = [r.apvec for r in res.rows]
    assert all(b > a for a, b in zip(consts, consts[1:]))
    for r in res.rows:
        assert 0 < r.weak <= r.strong  # weak quasi-norm under the strong norm
    assert np.isfinite(res.weak_slope) and np.isfinite(res.strong_slope)


def test_slope_experiment_deterministic():
    a = slope_experiment(_small_spec(), P66, CFG, tower_family(CFG))
    b = slope_experiment(_small_spec(), P66, CFG, tower_family(CFG))
    assert a == b


def test_slope_experiment_rejects_degenerate_family():
    with pytest.raises(ValueError, match="at least 4 points"):
        slope_experiment(_small_spec((1.0,)), P66, CFG, tower_family(CFG))
    # a family of trivial pairs has constant apvec: no dynamic range
    with pytest.raises(ValueError, match="no dynamic range"):
        slope_experiment(
            _small_spec((1.0, 1.0, 1.0, 1.0)), P66, CFG, tower_family(CFG)
        )
    with pytest.raises(ValueError, match="strictly increasing|dynamic range"):
        slope_experiment(
            _small_spec((1.0, 0.9999999, 0.9999998, 0.9999997)),
            P66,
            CFG,
            tower_family(CFG),
        )


def test_slope_experiment_refuses_a_short_family_before_building_a_pair(monkeypatch):
    built = []

    def family(spec, P, config):
        for point in build_family(spec, P, config):
            built.append(point)
            yield point

    monkeypatch.setattr(experiment, "build_family", family)
    message = "^family must have at least 4 points for a slope fit$"
    for deltas in ((0.5,), (0.5, 0.25, 0.125)):
        with pytest.raises(ValueError, match=message):
            slope_experiment(_small_spec(deltas), P66, CFG, tower_family(CFG))
    assert built == []


def test_slope_experiment_ratio_columns():
    res = slope_experiment(_small_spec(), P66, CFG, tower_family(CFG))
    from weaksparse.exponents import alpha

    rep = alpha(P66)
    for r in res.rows:
        assert r.ratio_weak == pytest.approx(r.weak / r.apvec**rep.alpha, rel=1e-12)
        assert r.ratio_strong == pytest.approx(
            r.strong / r.apvec**rep.gamma, rel=1e-12
        )
