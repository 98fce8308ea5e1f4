"""A sparse family is a set of cubes held as sorted distinct cube keys.

The SparseFamily constructor checks the cubes against the grid, drops
repeats and sorts.  These tests pin what that gives: families with equal
cube sets compare and hash equal and give the same results bit for bit,
a family rebuilt from its cubes equals it, every producer already hands
over distinct cubes or keys in enumeration order (so that sort changes
no output), a family paints its labels at most once and reads its
witness from them, and a built family is frozen, so that paint cannot go
stale.
"""

from dataclasses import FrozenInstanceError
from functools import cached_property

import numpy as np
import pytest

from conftest import random_exponents, random_function, random_weight, stopping_children
from weaksparse import sparse
from weaksparse import testing_conditions as wtc  # a bare testing_sweep is collected
from weaksparse.constants import pair_weights
from weaksparse.dyadic import DyadicCube, GridConfig, all_cubes, cube, cube_sums
from weaksparse.experiment import _pair_sweep
from weaksparse.measure import ExponentTuple, indicator
from weaksparse.serialize import load_sparse_family, save_sparse_family
from weaksparse.sparse import (
    SparseFamily,
    family_forest,
    family_from_cubes,
    generate_sparse,
    restrict,
    sparse_eval,
    sparse_split_eval,
    tower_family,
    verify_sparse,
)
from weaksparse.stopping import bilinear_form_decompose, build_stopping, carleson_checks
from weaksparse.verify import run_suite

_GRIDS = [GridConfig(1, K) for K in range(1, 9)] + [GridConfig(2, K) for K in range(1, 5)]
_IDS = lambda c: f"{c.dimension}d-K{c.finest_level}"  # noqa: E731


def _families(config):
    """Generated families at three budgets and the corner tower."""
    for seed, budget in ((1, 0.15), (2, 0.3), (3, 0.5)):
        S = generate_sparse(config, seed, budget)
        if len(S):
            yield S
    yield tower_family(config)


def _shuffled_with_repeats(rng, S):
    cubes = list(S.cubes) + [S.cubes[i] for i in rng.integers(0, len(S), 3)]
    rng.shuffle(cubes)
    return tuple(cubes)


def _same_witness(T, S):
    """Both witnesses are None, or they map the same cubes to equal cells."""
    a, b = T.witness, S.witness
    if a is None or b is None:
        return a is b
    return list(a) == list(b) and all(np.array_equal(a[q], b[q]) for q in a)


# --- comparison ----------------------------------------------------------------


def test_equal_cube_sets_give_equal_families(rng):
    cfg = GridConfig(1, 6)
    S = generate_sparse(cfg, 0, 0.25)
    assert S == generate_sparse(cfg, 0, 0.25)  # the witness arrays are not compared
    assert SparseFamily(cfg, _shuffled_with_repeats(rng, S)) == S
    assert SparseFamily(cfg, S.cubes[1:]) != S
    assert SparseFamily(GridConfig(1, 7), S.cubes) != S
    assert "witness" not in repr(S) and "array" not in repr(S)


# --- normalisation -------------------------------------------------------------


@pytest.mark.parametrize("config", _GRIDS, ids=_IDS)
def test_the_witness_is_read_from_the_cube_set(config):
    """Shuffled, repeated copies get the original's witness; a set that is
    not canonically sparse gets None; reading it never changes ==."""
    rng = np.random.default_rng(config.finest_level + 100 * config.dimension)
    for S in _families(config):
        T = SparseFamily(config, _shuffled_with_repeats(rng, S))
        assert T == S and S.witness is not None
        U = SparseFamily(config, S.cubes)  # the round trip through the cubes
        assert U == S and hash(U) == hash(S) and hash(T) == hash(S)
        assert _same_witness(T, S) and T == S and T.witness is T.witness
    dense = SparseFamily(config, all_cubes(config))
    assert dense.witness is None and dense == SparseFamily(config, all_cubes(config))


@pytest.mark.parametrize("config", _GRIDS, ids=_IDS)
def test_shuffled_repeated_cubes_give_the_same_results(config):
    rng = np.random.default_rng(10 * config.finest_level + config.dimension)
    corner = (0,) * config.dimension
    fns = [indicator(config, cube(0, *corner)), random_function(rng, config)]
    for S in _families(config):
        T = SparseFamily(config, _shuffled_with_repeats(rng, S))
        assert _same_witness(T, S) and T.cubes == S.cubes
        assert np.array_equal(family_forest(T), family_forest(S))

        assert np.array_equal(T.paint[0], S.paint[0])
        assert np.array_equal(T.cells, S.cells)
        coef = rng.normal(0.0, 1.0, (2, len(S)))
        assert np.array_equal(T.images(coef), S.images(coef))
        values = rng.normal(0.0, 1.0, (2, config.cell_count))
        assert np.array_equal(T.sums(values), S.sums(values))

        f1, f2 = random_function(rng, config), random_function(rng, config)
        assert np.array_equal(sparse_eval(T, f1, f2).values, sparse_eval(S, f1, f2).values)
        w = random_weight(rng, config)
        a, b = build_stopping(T, f1, w), build_stopping(S, f1, w)
        for x, y in ((a.members, b.members), (a.generation, b.generation)):
            assert np.array_equal(x, y)
        assert stopping_children(a) == stopping_children(b)
        maximal = [np.flatnonzero(x.generation == 0) for x in (a, b)]
        assert np.array_equal(*maximal)
        assert np.array_equal(a.wavg, b.wavg) and np.array_equal(a.top, b.top)

        P = random_exponents(rng)
        w1, w2 = random_weight(rng, config), random_weight(rng, config)
        pair = pair_weights(w1, w2, P)
        got_sweep = wtc.testing_sweep(T, pair, fns)
        for x, y in zip(got_sweep, wtc.testing_sweep(S, pair, fns)):
            assert np.array_equal(x, y)
        powers = wtc._slot_powers(fns, config, P)
        assert _pair_sweep(T, pair, *powers) == _pair_sweep(S, pair, *powers)


def test_producers_hand_the_constructor_sorted_distinct_cubes(monkeypatch, tmp_path):
    """Every family the package builds arrives sorted, so the sort is a no-op:
    the cubes handed to the constructor and the keys handed to _family
    are distinct and in enumeration order."""
    arrived = []
    real_init, real_family = SparseFamily.__init__, sparse._family

    def recording_init(S, config, cubes):
        cubes = tuple(cubes)
        arrived.append([(q.level, q.coords) for q in cubes])
        real_init(S, config, cubes)

    def recording_family(config, keys):
        arrived.append(keys.tolist())
        return real_family(config, keys)

    monkeypatch.setattr(SparseFamily, "__init__", recording_init)
    monkeypatch.setattr(sparse, "_family", recording_family)
    rng = np.random.default_rng(0)
    for config in _GRIDS:
        for S in _families(config):
            path = tmp_path / "family.json"
            save_sparse_family(S, path)
            load_sparse_family(path, config)
            for i in rng.integers(0, len(S), 3):
                qt = S.cubes[i]
                restrict(S, qt)
                f = random_function(rng, config)
                sparse_split_eval(S, qt, f, f.restricted(qt))
    assert len(arrived) > 100
    for order in arrived:
        assert order == sorted(set(order))


# --- cubes only at the boundaries ---------------------------------------------


def _count_cubes(monkeypatch) -> list[DyadicCube]:
    """Record every DyadicCube built from now on."""
    built = []
    real = DyadicCube.__post_init__

    def counted(q):
        built.append(q)
        real(q)

    monkeypatch.setattr(DyadicCube, "__post_init__", counted)
    return built


@pytest.mark.parametrize("config", [GridConfig(1, 7), GridConfig(2, 4)], ids=["1d", "2d"])
def test_family_and_stopping_code_builds_no_cube(monkeypatch, config):
    """Generation, the tower, restriction, both evaluations, the stopping
    construction and its two readers work on keys and positions only."""
    rng = np.random.default_rng(7 + config.dimension)
    runs = []
    for seed, budget in ((0, 0.2), (1, 0.35), (2, 0.5)):
        S = generate_sparse(config, seed, budget)
        qt = S.cubes[int(rng.integers(0, len(S)))]
        f1, f2, h = (random_function(rng, config) for _ in range(3))
        w1, w2 = random_weight(rng, config), random_weight(rng, config)
        pair = pair_weights(w1, w2, random_exponents(rng))
        runs.append((seed, budget, qt, f1, f2.restricted(qt), h, w1, pair))
    built = _count_cubes(monkeypatch)
    for seed, budget, qt, f1, f2, h, w, pair in runs:
        S = generate_sparse(config, seed, budget)
        tower_family(config)
        Sp = restrict(S, qt)
        sparse_split_eval(S, qt, f1, f2)
        sparse_eval(S, f1, h)
        carleson_checks(build_stopping(S, h, w), 2.5)
        bilinear_form_decompose(Sp, f2, h, pair)
    assert built == []


def test_default_suite_builds_few_cubes(monkeypatch):
    """7,323 cubes when families held cubes and stopping families dicts,
    1,348 when each constant built its witness cube, and 946 when two
    verify checks built their fixed cubes once per draw."""
    built = _count_cubes(monkeypatch)
    assert run_suite("all")["passed"]
    assert len(built) < 900


# --- one paint per family ------------------------------------------------------


def _count_paints(monkeypatch) -> list[SparseFamily]:
    """Record every family whose label paint is computed."""
    painted = []
    real = SparseFamily.paint.func

    def counted(S):
        painted.append(S)
        return real(S)

    prop = cached_property(counted)
    prop.__set_name__(SparseFamily, "paint")
    monkeypatch.setattr(SparseFamily, "paint", prop)
    return painted


def test_a_family_paints_once(monkeypatch, rng):
    cfg = GridConfig(2, 4)
    cubes = generate_sparse(cfg, 3, 0.3).cubes
    sub = restrict(family_from_cubes(cfg, cubes), cubes[0]).cubes  # one maximal cube
    f, w = random_function(rng, cfg), random_weight(rng, cfg)
    painted = _count_paints(monkeypatch)
    S = family_from_cubes(cfg, cubes)
    build_stopping(S, f, w)
    sparse_eval(S, f, f)
    Sp = family_from_cubes(cfg, sub)
    build_stopping(Sp, f, w)
    sparse_eval(Sp, f, f)
    bilinear_form_decompose(Sp, f, f, pair_weights(w, w, ExponentTuple(2.0, 3.0)))
    assert [id(x) for x in painted] == [id(S), id(Sp)]


def test_run_suite_paints_each_family_at_most_once(monkeypatch):
    painted = _count_paints(monkeypatch)
    assert run_suite("all", 7)["passed"]
    assert len({id(S) for S in painted}) == len(painted)
    # 979 when each layer painted on its own, and 468 when the generator
    # check rebuilt each of its 25 families from the cubes; the two ratio
    # checks build the K = 10 corner tower one each, so it counts twice
    assert len(painted) == 443


# --- a frozen family -----------------------------------------------------------


def test_a_used_family_cannot_be_reassigned(rng):
    """The paint and level positions are cached on first use, so a family
    keeps the cubes and the grid it was built with."""
    cfg = GridConfig(1, 4)
    S = tower_family(cfg)
    x = random_function(rng, cfg)
    pyramid = cube_sums(x.values, cfg)
    want = [pyramid[k][0] for k in range(5)]
    assert np.array_equal(S.sums(x), want)
    for name, value in (("cubes", S.cubes[::-1]), ("config", GridConfig(1, 5)), ("witness", None)):
        with pytest.raises(FrozenInstanceError):
            setattr(S, name, value)
    assert S.cubes == tuple(cube(k, 0) for k in range(5)) and S.witness is not None
    assert np.array_equal(S.sums(x), want)
    assert family_forest(S).tolist() == [5, 0, 1, 2, 3]
    assert S.paint[0].tolist() == [4, 3, 2, 2] + [1] * 4 + [0] * 8


def test_the_witness_is_a_read_only_mapping():
    """Deleting or assigning a witness entry raises, so every later read
    sees the cells the paint gives; verify_sparse hands out the same kind of
    mapping, and an equal family has an equal witness."""
    cfg = GridConfig(1, 4)
    S = tower_family(cfg)
    q = S.cubes[0]
    for witness in (S.witness, verify_sparse(S.cubes, cfg)[1]):
        assert not hasattr(witness, "pop")
        with pytest.raises(TypeError):
            del witness[q]
        with pytest.raises(TypeError):
            witness[q] = np.arange(cfg.cell_count)
    assert q in S.witness and S.witness[q].tolist() == list(range(8, 16))
    assert _same_witness(tower_family(cfg), S)
    assert SparseFamily(cfg, all_cubes(cfg)).witness is None
