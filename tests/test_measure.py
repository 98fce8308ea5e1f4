import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_function, random_weight
from weaksparse.constants import pair_weights
from weaksparse import measure as wm
from weaksparse.dyadic import GridConfig, all_cubes, cube, cube_sums, level_averages
from weaksparse.measure import (
    ExponentTuple,
    GridFunction,
    Weight,
    average,
    constant,
    dual_weight,
    indicator,
    joint_weight,
    kolmogorov_check,
    lp_norm,
    weak_norm,
    weighted_average,
    weighted_measure,
)
from weaksparse.sparse import SparseFamily, sparse_eval, sparse_split_eval, tower_family
from weaksparse.stopping import bilinear_form_decompose, build_stopping
from weaksparse.testing_conditions import (
    _slot_sums,
    local_sigma_testing_ratio,
    sparse_sum_norm_ratios,
)


# --- construction -----------------------------------------------------------


def test_gridfunction_validation():
    cfg = GridConfig(1, 2)
    with pytest.raises(ValueError):
        GridFunction(cfg, [1.0, 2.0])
    with pytest.raises(ValueError):
        GridFunction(cfg, [1.0, np.inf, 0.0, 0.0])
    with pytest.raises(ValueError):
        Weight(cfg, [1.0, 0.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "cfg,q,message",
    [
        (GridConfig(1, 3), cube(1, 0, 1), "cube dimension does not match grid"),
        (GridConfig(2, 3), cube(1, 1), "cube dimension does not match grid"),
        (GridConfig(1, 3), cube(4, 0), "cube is finer than the grid"),
    ],
)
def test_indicator_rejects_cube_from_another_grid(cfg, q, message):
    with pytest.raises(ValueError, match=message):
        indicator(cfg, q)


def test_gridfunction_values_frozen():
    f = constant(GridConfig(1, 1), 2.0)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_exponent_tuple_validation():
    P = ExponentTuple(2.0, 3.0)
    assert P.p == pytest.approx(1.2, abs=1e-15)
    assert P.p1_prime == pytest.approx(2.0)
    assert P.p2_prime == pytest.approx(1.5)
    assert 1 / P.p + 1 / P.p_prime == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        ExponentTuple(2.0, 2.0)  # p = 1 violates the hypothesis
    with pytest.raises(ValueError):
        ExponentTuple(1.0, 3.0)


# --- averages ---------------------------------------------------------------


def test_average_examples():
    cfg = GridConfig(1, 2)
    f = indicator(cfg, cube(1, 0))
    assert average(f, cube(0, 0)) == pytest.approx(0.5)
    assert average(constant(cfg, 3.25), cube(1, 1)) == pytest.approx(3.25)
    assert average(GridFunction(cfg, [4, 1, 1, 1]), cube(0, 0)) == pytest.approx(7 / 4)


def test_weighted_average_example():
    cfg = GridConfig(1, 1)
    f = GridFunction(cfg, [2.0, 0.0])
    w = Weight(cfg, [1.0, 3.0])
    assert weighted_average(f, w, cube(0, 0)) == pytest.approx(0.5)
    assert weighted_measure(w, cube(0, 0)) == pytest.approx(2.0)


def test_weighted_average_with_unit_weight_is_average(rng):
    for cfg in (GridConfig(1, 4), GridConfig(2, 3)):
        one = Weight(cfg, np.ones(cfg.cell_count))
        f = random_function(rng, cfg, signed=True)
        for q in all_cubes(cfg):
            assert weighted_average(f, one, q) == pytest.approx(
                average(f, q), rel=1e-12, abs=1e-13
            )


def test_weighted_average_of_constant_is_constant(rng):
    cfg = GridConfig(1, 5)
    w = random_weight(rng, cfg)
    for q in (cube(0, 0), cube(3, 5)):
        assert weighted_average(constant(cfg, 2.5), w, q) == pytest.approx(2.5)


# --- dual and joint weights -------------------------------------------------


def test_dual_weight_power_law():
    cfg = GridConfig(1, 2)
    w = constant(cfg, 3.0)
    sigma = dual_weight(Weight(cfg, w.values), 1.5)  # conjugate exponent 3
    assert np.allclose(sigma.values, 3.0**-2)


def test_dual_weight_involution(rng):
    cfg = GridConfig(1, 6)
    w = random_weight(rng, cfg)
    for pi in (1.3, 2.0, 4.7):
        back = dual_weight(dual_weight(w, pi), pi / (pi - 1.0))
        assert np.max(np.abs(back.values - w.values) / w.values) < 1e-12


def test_trivial_weights_have_trivial_duals():
    cfg = GridConfig(1, 3)
    one = Weight(cfg, np.ones(cfg.cell_count))
    P = ExponentTuple(2.0, 3.0)
    assert np.all(dual_weight(one, 2.0).values == 1.0)
    assert np.all(joint_weight(one, one, P).values == 1.0)


# --- kept level averages ----------------------------------------------------

_AVERAGE_GRIDS = [GridConfig(1, 1), GridConfig(1, 7), GridConfig(2, 1), GridConfig(2, 4)]


@pytest.mark.parametrize(
    "cfg", _AVERAGE_GRIDS, ids=lambda c: f"{c.dimension}d-K{c.finest_level}"
)
def test_weight_averages_are_level_averages_bit_for_bit(cfg):
    w = random_weight(np.random.default_rng(cfg.cell_count), cfg)
    got, want = w.averages, level_averages(w.values, cfg)
    assert isinstance(got, tuple) and len(got) == len(want) == cfg.finest_level + 1
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_weight_averages_pool_once_per_weight(monkeypatch):
    calls = []
    real = wm.level_averages

    def counted(values, config):
        calls.append(values)
        return real(values, config)

    monkeypatch.setattr(wm, "level_averages", counted)
    cfg = GridConfig(1, 5)
    w = random_weight(np.random.default_rng(0), cfg)
    first = w.averages
    assert w.averages is first and len(calls) == 1
    other = Weight(cfg, w.values)  # equal values, its own pyramid
    assert other.averages is not first and len(calls) == 2


@pytest.mark.parametrize(
    "cfg", _AVERAGE_GRIDS, ids=lambda c: f"{c.dimension}d-K{c.finest_level}"
)
def test_weight_averages_are_read_only(cfg):
    w = random_weight(np.random.default_rng(1), cfg)
    for level in w.averages:
        assert not level.flags.writeable
        with pytest.raises(ValueError):
            level[0] = 1.0


@pytest.mark.parametrize(
    "cfg", _AVERAGE_GRIDS, ids=lambda c: f"{c.dimension}d-K{c.finest_level}"
)
def test_finest_level_is_the_cell_values_uncopied(cfg):
    w = random_weight(np.random.default_rng(2), cfg)
    assert np.shares_memory(w.averages[-1], w.values)
    values = np.linspace(1.0, 2.0, cfg.cell_count)
    levels = level_averages(values, cfg)
    assert np.shares_memory(levels[-1], values)
    # the same bits as the cube sums divided by the one cell per cube
    assert levels[-1].tobytes() == (cube_sums(values, cfg)[-1] / 1).tobytes()
    assert not any(np.shares_memory(level, values) for level in levels[:-1])


# --- norms ------------------------------------------------------------------


def test_lp_norm_examples():
    cfg = GridConfig(1, 2)
    one = Weight(cfg, np.ones(4))
    assert lp_norm(constant(cfg, 1.0), one, 2.0) == pytest.approx(1.0)
    f = indicator(cfg, cube(2, 0))
    assert lp_norm(f, one, 2.0) == pytest.approx(0.5)


@settings(max_examples=50, deadline=None)
@given(
    vals=st.lists(
        st.floats(-50, 50, allow_nan=False), min_size=8, max_size=8
    ),
    c=st.floats(-10, 10, allow_nan=False),
    p=st.floats(0.4, 5.0),
)
def test_norm_scaling_and_weak_domination(vals, c, p):
    cfg = GridConfig(1, 3)
    f = GridFunction(cfg, vals)
    w = Weight(cfg, np.ones(8))
    assert lp_norm(c * f, w, p) == pytest.approx(
        abs(c) * lp_norm(f, w, p), rel=1e-12, abs=1e-12
    )
    assert weak_norm(f, w, p) <= lp_norm(f, w, p) * (1 + 1e-12)


def test_weak_norm_examples(rng):
    cfg = GridConfig(1, 2)
    one = Weight(cfg, np.ones(4))
    f = GridFunction(cfg, [2.0, 1.0, 1.0, 1.0])
    assert weak_norm(f, one, 2.0) == pytest.approx(1.0)
    # indicators: weak norm equals the measure to the 1/p
    w = random_weight(rng, cfg)
    g = indicator(cfg, cube(1, 1))
    for p in (0.7, 1.0, 2.0):
        expected = weighted_measure(w, cube(1, 1)) ** (1 / p)
        assert weak_norm(g, w, p) == pytest.approx(expected, rel=1e-12)
        assert lp_norm(g, w, p) == pytest.approx(expected, rel=1e-12)
    assert weak_norm(constant(cfg, 0.0), one, 1.5) == 0.0


def test_weak_norm_brute_force(rng):
    cfg = GridConfig(1, 5)
    for _ in range(25):
        f = random_function(rng, cfg, signed=True)
        w = random_weight(rng, cfg)
        p = rng.uniform(0.5, 3.0)
        a = np.abs(f.values)
        mass = w.values * cfg.cell_volume
        brute = max(
            (t * ((mass[a >= t]).sum()) ** (1 / p) for t in np.unique(a[a > 0])),
            default=0.0,
        )
        assert weak_norm(f, w, p) == pytest.approx(brute, rel=1e-12, abs=1e-300)


def test_holder_consistency(rng):
    cfg = GridConfig(1, 6)
    for _ in range(50):
        f = random_function(rng, cfg, signed=True)
        g = random_function(rng, cfg, signed=True)
        w = random_weight(rng, cfg)
        s, t = rng.uniform(1.2, 4.0, 2)
        r = 1.0 / (1.0 / s + 1.0 / t)
        assert lp_norm(f * g, w, r) <= lp_norm(f, w, s) * lp_norm(g, w, t) * (
            1 + 1e-10
        )


# --- the low-exponent weak-L1 inequality ------------------------------------


def test_kolmogorov_constant_at_half():
    assert (1 / 0.5 + 1 / 0.5) ** (1 / 0.5) == pytest.approx(16.0)


def test_kolmogorov_indicator_example():
    cfg = GridConfig(1, 1)
    f = indicator(cfg, cube(1, 0))
    lhs, rhs, ok = kolmogorov_check(f, cube(0, 0), 0.5)
    assert lhs == pytest.approx(0.25)
    assert rhs == pytest.approx(8.0)
    assert ok


def test_kolmogorov_zero_function():
    cfg = GridConfig(1, 2)
    lhs, rhs, ok = kolmogorov_check(constant(cfg, 0.0), cube(0, 0), 0.5)
    assert lhs == rhs == 0.0 and ok


def test_kolmogorov_requires_small_p():
    cfg = GridConfig(1, 1)
    with pytest.raises(ValueError):
        kolmogorov_check(constant(cfg, 1.0), cube(0, 0), 1.5)


def test_kolmogorov_random_suite(rng):
    cfg = GridConfig(1, 6)
    for _ in range(100):
        f = random_function(rng, cfg)
        for p in (0.3, 0.5, 0.8):
            _, _, ok = kolmogorov_check(f, cube(0, 0), p)
            assert ok


# --- the one grid check -----------------------------------------------------


def _grid_check_sites():
    """(name, function, make, positions) of every function that checks its
    arguments' grids with measure._same_grid.

    make(cfg) gives arguments on cfg that would fail every later check of
    the function too (a negative f, a cube of the other dimension, a
    vanishing test function, two maximal cubes), so the grid mismatch must
    be raised before any other error.
    """
    P = ExponentTuple(3.0, 3.0)

    def fns(cfg):
        n = cfg.cell_count
        S = tower_family(cfg)
        w = Weight(cfg, np.linspace(1.0, 2.0, n))
        neg = GridFunction(cfg, -np.ones(n))
        other_dim = cube(0, *(0,) * (3 - cfg.dimension))
        return S, w, neg, other_dim

    def two_tops(cfg):
        tail = (0,) * (cfg.dimension - 1)
        return SparseFamily(cfg, [cube(1, 0, *tail), cube(1, 1, *tail)])

    def mul(cfg):
        return [GridFunction(cfg, np.ones(cfg.cell_count))] * 2

    def image(cfg):
        S, _, neg, _ = fns(cfg)
        return [S, neg, neg]

    def split(cfg):
        S, _, neg, qt = fns(cfg)
        return [S, qt, neg, neg]

    def stop(cfg):
        S, w, neg, _ = fns(cfg)
        return [S, neg, w]

    def bilinear(cfg):
        _, w, neg, _ = fns(cfg)
        return [two_tops(cfg), neg, neg, pair_weights(w, w, P)]

    def slot_sums(cfg):
        S, w, _, _ = fns(cfg)
        zero = np.zeros(cfg.cell_count)
        return [S, w, w, P, [zero], ([zero], [zero])]

    def sigma_ratio(cfg):
        S, w, neg, qt = fns(cfg)
        return [S, w, w, P, neg, qt]

    def sum_ratios(cfg):
        S, w, _, _ = fns(cfg)
        return [S, w, w, P]

    def paired(fn):
        """fn with (w1, w2, P) in place of its pair, built inside the call."""
        return lambda S, w1, w2, P, *rest: fn(S, pair_weights(w1, w2, P), *rest)

    return [
        ("GridFunction.__mul__", lambda a, b: a * b, mul, (0, 1)),
        ("sparse_eval", sparse_eval, image, (0, 1, 2)),
        ("sparse_split_eval", sparse_split_eval, split, (0, 2, 3)),
        ("build_stopping", build_stopping, stop, (0, 1, 2)),
        ("bilinear_form_decompose", bilinear_form_decompose, bilinear, range(4)),
        ("_slot_sums", paired(_slot_sums), slot_sums, (0, 1, 2)),
        (
            "local_sigma_testing_ratio",
            paired(local_sigma_testing_ratio),
            sigma_ratio,
            (0, 1, 2, 4),
        ),
        (
            "sparse_sum_norm_ratios",
            paired(sparse_sum_norm_ratios),
            sum_ratios,
            (0, 1, 2),
        ),
    ]


@pytest.mark.parametrize(
    "name, fn, make, position",
    [
        pytest.param(name, fn, make, i, id=f"{name}-arg{i}")
        for name, fn, make, positions in _grid_check_sites()
        for i in positions
    ],
)
def test_grid_mismatch_comes_before_every_other_error(name, fn, make, position):
    """One argument on a grid with the same cell count but another shape
    (1D K = 4 against 2D K = 2) raises "grid mismatch" first."""
    line, plane = GridConfig(1, 4), GridConfig(2, 2)
    for home, away in ((line, plane), (plane, line)):
        args = make(home)
        args[position] = make(away)[position]
        with pytest.raises(ValueError, match="^grid mismatch$"):
            fn(*args)


def test_sparse_sum_norm_ratios_checks_the_grid_of_a_finer_family():
    """A family on a finer grid than the pair has cubes the pair's level
    averages do not reach; the grid check comes before they are read."""
    fine, coarse = GridConfig(1, 8), GridConfig(1, 4)
    w = Weight(coarse, np.linspace(1.0, 2.0, coarse.cell_count))
    pair = pair_weights(w, w, ExponentTuple(3.0, 3.0))
    with pytest.raises(ValueError, match="^grid mismatch$"):
        sparse_sum_norm_ratios(tower_family(fine), pair)
