"""The diagonal path: one weight object in both slots at p1 == p2.

build_family hands out w2 is w1 for a power family with p1 == p2, and
measure.same_slots lets the dual weights, the joint constant, the slot
sums and the pair sweep compute slot 1 as slot 0.  A distinct copy of the
same weight takes the general path, so each test below runs both and
compares the results bit for bit (as float hex).
"""

import numpy as np
import pytest

from conftest import random_function, random_weight
from weaksparse import constants as wc
from weaksparse import experiment as we
from weaksparse import sparse as ws
from weaksparse import testing_conditions as wtc
from weaksparse.constants import apvec_constant
from weaksparse.dyadic import DyadicCube, GridConfig
from weaksparse.experiment import _pair_sweep, slope_experiment
from weaksparse.families import WeightFamilySpec, build_family
from weaksparse.measure import (
    ExponentTuple,
    GridFunction,
    Weight,
    constant,
    indicator,
    same_slots,
)
from weaksparse.sparse import generate_sparse, tower_family

# p1 = p2 = 2p for the joint exponents p = 1.5, 2, 3, 6 and 40
DIAGONAL = [ExponentTuple(q, q) for q in (3.0, 4.0, 6.0, 12.0, 80.0)]


def _hex(x) -> list[str]:
    return [float(v).hex() for v in np.ravel(x)]


def _copy(w: Weight) -> Weight:
    """Equal values in a distinct object: same_slots is False for it."""
    return Weight(w.config, w.values)


def _families(cfg):
    S = generate_sparse(cfg, cfg.finest_level, 0.3)
    return [S, tower_family(cfg)] if len(S) else [tower_family(cfg)]


def _test_set(rng, cfg, count):
    """Indicators, a signed function, repeats and functions with tied values."""
    corner = (0,) * cfg.dimension
    fns = [indicator(cfg, DyadicCube(k, corner)) for k in (0, cfg.finest_level)]
    fns.append(random_function(rng, cfg, signed=True))
    steps = rng.integers(0, 3, cfg.cell_count) * 0.5  # values 0, 0.5 and 1 only
    fns.append(GridFunction(cfg, steps if steps.any() else np.ones(cfg.cell_count)))
    while len(fns) < count:
        fns.append(random_function(rng, cfg))
    fns += [fns[2], fns[0]]  # repeated rows tie whole pairs
    return [f for f in fns if f.values.any()]


def test_same_slots_needs_one_object_and_equal_exponents():
    cfg = GridConfig(1, 4)
    w = random_weight(np.random.default_rng(0), cfg)
    assert same_slots(w, w, ExponentTuple(6.0, 6.0))
    assert not same_slots(w, _copy(w), ExponentTuple(6.0, 6.0))
    assert not same_slots(w, w, ExponentTuple(6.0, 7.0))


@pytest.mark.parametrize("kind", ["power", "random_ap"])
def test_build_family_shares_the_weight_exactly_on_the_diagonal(kind):
    cfg = GridConfig(1, 8)
    spec = WeightFamilySpec(kind, (0.5, 0.25, 0.125, 0.0625), seed=3)
    for P in (ExponentTuple(6.0, 6.0), ExponentTuple(3.0, 3.0), ExponentTuple(2.0, 3.0)):
        for _, w1, w2, _ in build_family(spec, P, cfg):
            assert (w2 is w1) == (kind == "power" and P.p1 == P.p2)


@pytest.mark.parametrize("K", range(1, 13))
def test_slot_sums_and_pair_sweep_match_the_general_path(K):
    cfg = GridConfig(1, K)
    rng = np.random.default_rng(K)
    # 2^K cells: one chunk holds 2^(15 - K) rows, so K = 11 and 12 take several
    fns = _test_set(rng, cfg, 20)
    for S in _families(cfg):
        w = random_weight(rng, cfg)
        for P in DIAGONAL:
            test_set = wtc._slot_powers(fns, cfg, P)
            shared = wtc._slot_sums(S, w, w, P, *test_set)
            general = wtc._slot_sums(S, w, _copy(w), P, *test_set)
            assert _hex(shared[0].values) == _hex(general[0].values)
            for got, want in zip(shared[1:], general[1:]):
                assert got.shape == want.shape and _hex(got) == _hex(want)
            got = _pair_sweep(S, w, w, P, *test_set)
            want = _pair_sweep(S, w, _copy(w), P, *test_set)
            assert _hex(got) == _hex(want)


@pytest.mark.parametrize("K", [1, 3, 5, 7])
def test_testing_sweep_matches_the_general_path(K):
    cfg = GridConfig(1, K)
    rng = np.random.default_rng(100 + K)
    fns = _test_set(rng, cfg, 5)
    for S in _families(cfg):
        w = random_weight(rng, cfg)
        for P in DIAGONAL:
            got = wtc.testing_sweep(S, w, w, P, fns)
            want = wtc.testing_sweep(S, w, _copy(w), P, fns)
            assert [_hex(x) for x in got] == [_hex(x) for x in want]


@pytest.mark.parametrize("dim, K", [(1, K) for K in range(1, 13)] + [(2, 3), (2, 5)])
def test_apvec_constant_matches_the_general_path(dim, K):
    cfg = GridConfig(dim, K)
    w = random_weight(np.random.default_rng(K), cfg)
    for P in DIAGONAL:
        got, want = apvec_constant(w, w, P), apvec_constant(w, _copy(w), P)
        assert _hex(got.value) == _hex(want.value)
        assert got.argmax_cube == want.argmax_cube
        shared = wc.check_constant_inequalities(w, w, P)
        assert shared == wc.check_constant_inequalities(w, _copy(w), P)


def _unshared_build_family(spec, P, config):
    return [(d, w1, _copy(w2), apv) for d, w1, w2, apv in build_family(spec, P, config)]


@pytest.mark.parametrize("K", [8, 10, 12])
@pytest.mark.parametrize("q", [3.0, 4.0, 6.0])
def test_slope_rows_match_the_general_path(K, q, monkeypatch):
    cfg = GridConfig(1, K)
    P = ExponentTuple(q, q)
    spec = WeightFamilySpec("power", (0.25, 0.125, 0.0625, 0.03125))
    S = tower_family(cfg)
    got = slope_experiment(spec, P, cfg, S)
    monkeypatch.setattr(we, "build_family", _unshared_build_family)
    want = slope_experiment(spec, P, cfg, S)
    assert [_hex(list(vars(r).values())) for r in got.rows] == [
        _hex(list(vars(r).values())) for r in want.rows
    ]
    assert _hex([got.weak_slope, got.strong_slope]) == _hex(
        [want.weak_slope, want.strong_slope]
    )


# --- errors on the shared path --------------------------------------------------


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_shared_path_reports_a_vanishing_function_before_an_overflow():
    cfg = GridConfig(1, 8)
    S = tower_family(cfg)
    tiny = Weight(cfg, np.full(cfg.cell_count, 1e-300))  # dual weight 1e150
    P = ExponentTuple(3.0, 3.0)
    huge, zero = constant(cfg, 1e200), constant(cfg, 0.0)
    for fns, message in (
        ([huge], "cell values must be finite"),
        ([huge, zero], "must not vanish identically"),
        ([zero, huge], "must not vanish identically"),
    ):
        test_set = wtc._slot_powers(fns, cfg, P)
        for w2 in (tiny, _copy(tiny)):
            for sweep in (wtc._slot_sums, _pair_sweep):
                with pytest.raises(ValueError, match=message):
                    sweep(S, tiny, w2, P, *test_set)


def test_shared_path_reports_a_grid_mismatch_first(monkeypatch):
    monkeypatch.setattr(wtc, "_dual_data", None)  # the check comes before the sweep
    cfg = GridConfig(1, 8)
    w = Weight(cfg, np.ones(cfg.cell_count))
    P = ExponentTuple(6.0, 6.0)
    fns = [constant(cfg, 1.0), constant(cfg, 0.0)]  # would vanish
    for other in (GridConfig(2, 4), GridConfig(1, 5)):
        S = tower_family(other)
        for call in (
            lambda: _pair_sweep(S, w, w, P, *wtc._slot_powers(fns, cfg, P)),
            lambda: wtc.testing_sweep(S, w, w, P, fns),
        ):
            with pytest.raises(ValueError, match="grid mismatch"):
                call()


# --- work per family point --------------------------------------------------------


def _counted(monkeypatch, module, name, log):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        log.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _slot_sums_work(monkeypatch, shared: bool) -> list[list[str]]:
    """dual_weight and cube_sums calls inside _slot_sums, one list per point."""
    cfg = GridConfig(1, 14)
    spec = WeightFamilySpec("power", (0.25, 0.125, 0.0625, 0.03125))
    calls, log = [], []
    real = wtc._slot_sums

    def slot_sums(*args):
        log.clear()
        out = real(*args)
        calls.append(list(log))
        return out

    with monkeypatch.context() as m:
        _counted(m, wtc, "dual_weight", log)
        _counted(m, ws, "cube_sums", log)
        m.setattr(we, "_slot_sums", slot_sums)
        if not shared:
            m.setattr(we, "build_family", _unshared_build_family)
        slope_experiment(spec, ExponentTuple(6.0, 6.0), cfg, tower_family(cfg))
    assert len(calls) == len(spec.deltas)
    return calls


def test_diagonal_point_forms_one_dual_and_half_the_cube_sums(monkeypatch):
    shared = _slot_sums_work(monkeypatch, shared=True)
    general = _slot_sums_work(monkeypatch, shared=False)
    # 23 default test functions, 2 rows of 2^14 cells per chunk: 12 chunks a slot
    for got, want in zip(shared, general):
        assert got.count("dual_weight") == 1 and want.count("dual_weight") == 2
        assert 2 * got.count("cube_sums") == want.count("cube_sums") == 24


def test_apvec_constant_forms_one_dual_on_the_diagonal(monkeypatch):
    cfg = GridConfig(1, 10)
    w = random_weight(np.random.default_rng(0), cfg)
    P = ExponentTuple(6.0, 6.0)
    log = []
    _counted(monkeypatch, wc, "dual_weight", log)
    _counted(monkeypatch, wc, "level_averages", log)
    apvec_constant(w, w, P)
    assert sorted(log) == ["dual_weight", "level_averages", "level_averages"]
    log.clear()
    apvec_constant(w, _copy(w), P)
    assert sorted(log) == ["dual_weight"] * 2 + ["level_averages"] * 3
