"""The shared front half of the pair sweeps against its per-function oracle.

_slot_powers builds |f|^{p_k} of a test set once, and _slot_sums forms the
slot norms and family-cube sums of every test function in row chunks.
The oracle below is the per-function form they replace: one lp_norm and
one validated GridFunction product per function and slot, and each family
cube's sum read from the whole cube-sum pyramid.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import random_exponents, random_function, random_weight
from weaksparse import testing_conditions as wtc
from weaksparse.constants import pair_weights
from weaksparse.dyadic import DyadicCube, GridConfig, all_cubes, cube_index, cube_sums
from weaksparse.experiment import (
    ExperimentRow,
    _pair_sweep,
    default_test_functions,
    slope_experiment,
)
from weaksparse.exponents import alpha
from weaksparse.families import WeightFamilySpec, build_family
from weaksparse.measure import (
    ExponentTuple,
    GridFunction,
    Weight,
    atom_norms,
    constant,
    dual_weight,
    indicator,
    joint_weight,
    lp_norm,
)
from test_family_oracles import _images_oracle
from weaksparse.sparse import SparseFamily, generate_sparse, tower_family


def _slot_sums_oracle(S, w1, w2, P, fns):
    """The per-function slot norms and family-cube sums (the earlier body)."""
    s1, s2 = dual_weight(w1, P.p1), dual_weight(w2, P.p2)
    v = joint_weight(w1, w2, P)
    slots = ((s1, P.p1), (s2, P.p2))
    norms = np.array([[lp_norm(f, s, p) for f in fns] for s, p in slots])
    if not norms.all():
        raise ValueError("test functions must not vanish identically")

    def family_sums(g):
        pyramid = cube_sums(g.values, g.config)
        return np.array([pyramid[q.level][cube_index(q)] for q in S.cubes])

    sums = np.array([[family_sums(abs(f) * s) for f in fns] for s, _ in slots])
    return v, norms, sums


def _pair_sweep_oracle(S, w1, w2, P, fns):
    v, norms, sums = _slot_sums_oracle(S, w1, w2, P, fns)
    c1, c2 = sums / S.cells
    g = _images_oracle(S, c1[:, None, :] * c2[None, :, :])
    if not np.isfinite(g).all():
        raise ValueError("cell values must be finite")
    strong, weak = atom_norms(g, S.masses(v), P.p)
    scale = norms[0][:, None] * norms[1][None, :]
    return float((weak / scale).max()), float((strong / scale).max())


def _slot_sums(S, w1, w2, P, fns):
    """The pair's joint weight v, then _slot_sums' norms and sums."""
    pair = pair_weights(w1, w2, P)
    return (pair.v, *wtc._slot_sums(S, pair, *wtc._slot_powers(fns, w1.config, P)))


def _assert_slot_sums_match(S, w1, w2, P, fns):
    v, norms, sums = _slot_sums(S, w1, w2, P, fns)
    want_v, want_norms, want_sums = _slot_sums_oracle(S, w1, w2, P, fns)
    assert np.array_equal(v.values, want_v.values)
    assert norms.shape == (2, len(fns)) and np.array_equal(norms, want_norms)
    assert sums.shape == (2, len(fns), len(S)) and np.array_equal(sums, want_sums)


def _families(rng, cfg):
    """A generated family, the corner tower and a shuffled unverified cube set."""
    S = generate_sparse(cfg, int(rng.integers(0, 2**31)), float(rng.uniform(0.1, 0.5)))
    yield S if len(S) else tower_family(cfg)
    yield tower_family(cfg)
    # not necessarily sparse; the constructor sorts the
    # shuffled picks and drops the repeat
    pool = list(all_cubes(cfg))
    picks = rng.choice(len(pool), size=min(9, len(pool)), replace=False)
    cubes = [pool[i] for i in picks]
    yield SparseFamily(cfg, tuple(cubes + [cubes[0]]))


def _functions(rng, cfg, count=3):
    corner = (0,) * cfg.dimension
    fns = [indicator(cfg, DyadicCube(k, corner)) for k in (0, cfg.finest_level)]
    fns.append(random_function(rng, cfg, signed=True))
    fns += [random_function(rng, cfg) for _ in range(count)]
    return [f for f in fns if f.values.any()]  # a coarse grid may draw zeros


@pytest.mark.parametrize(
    "dim, K", [(1, K) for K in range(1, 11)] + [(2, K) for K in range(1, 6)]
)
def test_slot_sums_match_per_function_oracle(dim, K):
    cfg = GridConfig(dim, K)
    rng = np.random.default_rng(10 * K + dim)
    for S in _families(rng, cfg):
        w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
        fns = _functions(rng, cfg)
        P = random_exponents(rng)
        assert P.p1 != P.p2
        _assert_slot_sums_match(S, w1, w2, P, fns)
        q = max(P.p1, P.p2)
        _assert_slot_sums_match(S, w1, w2, ExponentTuple(q, q), fns)


def test_powers_are_built_once_per_distinct_exponent():
    cfg = GridConfig(1, 5)
    fns = _functions(np.random.default_rng(0), cfg)
    values, (a, b) = wtc._slot_powers(fns, cfg, ExponentTuple(6.0, 6.0))
    assert a is b and len(a) == len(fns)
    assert all(x is f.values for x, f in zip(values, fns))  # no copies
    _, (a, b) = wtc._slot_powers(fns, cfg, ExponentTuple(2.0, 3.0))
    assert a is not b
    for f, x, y in zip(fns, a, b):
        assert np.array_equal(x, np.abs(f.values) ** 2.0)
        assert np.array_equal(y, np.abs(f.values) ** 3.0)


def test_rows_of_zeros_and_ones_are_their_own_powers():
    """0^p = 0 and 1^p = 1, so such a row keeps its values array in both slots."""
    cfg = GridConfig(1, 5)
    rng = np.random.default_rng(1)
    fns = [
        indicator(cfg, DyadicCube(2, (1,))),
        constant(cfg, 1.0),
        constant(cfg, 0.0),
        GridFunction(cfg, rng.integers(0, 2, cfg.cell_count)),
        GridFunction(cfg, -indicator(cfg, DyadicCube(1, (0,))).values),  # a -1 row
        GridFunction(cfg, 0.5 * indicator(cfg, DyadicCube(1, (0,))).values),
        random_function(rng, cfg),
    ]
    for P in (ExponentTuple(6.0, 6.0), ExponentTuple(1.5, 4.0), ExponentTuple(3.0, 40.0)):
        values, powers = wtc._slot_powers(fns, cfg, P)
        for k, p in enumerate((P.p1, P.p2)):
            assert [x is v for x, v in zip(powers[k], values)] == [True] * 4 + [False] * 3
            for f, x in zip(fns, powers[k]):
                assert np.array_equal(x, np.abs(f.values) ** p)


def test_slot_sums_over_several_chunks():
    # 1D K = 10 puts 32 rows in a chunk: 75 functions make chunks of 32, 32, 11
    cfg = GridConfig(1, 10)
    assert wtc._CHUNK_CELLS // cfg.cell_count == 32
    rng = np.random.default_rng(5)
    S = generate_sparse(cfg, 5, 0.3)
    fns = [random_function(rng, cfg, signed=bool(i % 2)) for i in range(75)]
    w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
    _assert_slot_sums_match(S, w1, w2, ExponentTuple(2.5, 4.0), fns)
    _assert_slot_sums_match(S, w1, w2, ExponentTuple(3.0, 3.0), fns)


def test_slot_sums_on_a_grid_wider_than_one_chunk():
    cfg = GridConfig(1, 16)  # 2^16 cells: one row per chunk
    assert cfg.cell_count > wtc._CHUNK_CELLS
    rng = np.random.default_rng(16)
    S = generate_sparse(cfg, 16, 0.3)
    fns = _functions(rng, cfg, count=1)
    w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
    _assert_slot_sums_match(S, w1, w2, ExponentTuple(2.0, 3.0), fns)


def _oracle_slope_rows(spec, P, cfg, S, fns):
    report = alpha(P)
    rows = []
    for d, pair in build_family(spec, P, cfg):
        apv = pair.apvec.value
        weak, strong = _pair_sweep_oracle(S, pair.w1, pair.w2, P, fns)
        ratio_weak, ratio_strong = weak / apv**report.alpha, strong / apv**report.gamma
        rows.append(ExperimentRow(d, apv, weak, strong, ratio_weak, ratio_strong))
    return tuple(rows)


@pytest.mark.parametrize("kind", ["power"])
@pytest.mark.parametrize("K, p1, p2", [(8, 6.0, 6.0), (10, 2.0, 3.0), (12, 6.0, 6.0)])
def test_slope_rows_match_oracle_path(kind, K, p1, p2):
    cfg = GridConfig(1, K)
    P = ExponentTuple(p1, p2)
    spec = WeightFamilySpec(kind, (0.25, 0.125, 0.0625, 0.03125))
    S = tower_family(cfg)
    got = slope_experiment(spec, P, cfg, S)
    want = _oracle_slope_rows(spec, P, cfg, S, default_test_functions(cfg, 90210))
    assert got.rows == want


# --- errors -------------------------------------------------------------------

CFG = GridConfig(1, 8)
SPEC = WeightFamilySpec("power", (0.5, 0.25, 0.125, 0.0625))
P66 = ExponentTuple(6.0, 6.0)


def _sweeps(fns, S=None):
    """slope_experiment, _pair_sweep and testing_sweep on the same test set."""
    S = tower_family(CFG) if S is None else S
    one = Weight(CFG, np.ones(CFG.cell_count))
    return (
        lambda: slope_experiment(SPEC, P66, CFG, S, fns),
        lambda: _pair_sweep(
            S, pair_weights(one, one, P66), *wtc._slot_powers(fns, CFG, P66)
        ),
        lambda: wtc.testing_sweep(S, pair_weights(one, one, P66), fns),
    )


def test_every_sweep_refuses_an_empty_test_set():
    for call in _sweeps([]):
        with pytest.raises(ValueError, match="test set must be nonempty"):
            call()


def test_every_sweep_refuses_a_function_from_another_grid():
    # 1D K = 8 and 2D K = 4 both have 256 cells
    other = GridFunction(GridConfig(2, 4), np.ones(CFG.cell_count))
    for call in _sweeps([constant(CFG, 1.0), other]):
        with pytest.raises(ValueError, match="grid mismatch"):
            call()


def test_every_sweep_refuses_a_family_from_another_grid(monkeypatch):
    monkeypatch.setattr(SparseFamily, "sums", None)  # the check comes before the sweep
    # 2D K = 4 has the 256 cells of 1D K = 8; 1D K = 5 has fewer
    for other in (GridConfig(2, 4), GridConfig(1, 5)):
        for call in _sweeps([constant(CFG, 1.0)], tower_family(other)):
            with pytest.raises(ValueError, match="grid mismatch"):
                call()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_vanishing_function_is_reported_before_an_overflowing_product():
    S = tower_family(CFG)
    one = Weight(CFG, np.ones(CFG.cell_count))
    tiny = Weight(CFG, np.full(CFG.cell_count, 1e-300))  # dual weight 1e150
    P = ExponentTuple(3.0, 3.0)
    huge, zero = constant(CFG, 1e200), constant(CFG, 0.0)
    for fns, message in (
        ([huge], "cell values must be finite"),
        ([huge, zero], "must not vanish identically"),
        ([zero, huge], "must not vanish identically"),
    ):
        for sweep in (_slot_sums, _slot_sums_oracle):
            with pytest.raises(ValueError, match=message):
                sweep(S, tiny, one, P, fns)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_infinite_slot_norms_are_refused_like_the_oracle():
    """At p = 2000 a random test function's |f|^p overflows where f > 1.43,
    while every product |f| s stays finite: its slot norms are infinite."""
    cfg = GridConfig(1, 6)
    P = ExponentTuple(2000.0, 2000.0)
    one = Weight(cfg, np.ones(cfg.cell_count))
    pair = pair_weights(one, one, P)
    S = tower_family(cfg)
    fns = default_test_functions(cfg, 1)
    assert lp_norm(fns[-1], one, P.p1) == np.inf
    for call in (
        lambda: wtc._slot_sums(S, pair, *wtc._slot_powers(fns, cfg, P)),
        lambda: _pair_sweep(S, pair, *wtc._slot_powers(fns, cfg, P)),
        lambda: wtc.testing_sweep(S, pair, fns),
        lambda: wtc._slot_norms(pair, fns[-1], fns[0]),
        lambda: wtc._slot_norms(pair, fns[0], fns[-1]),
    ):
        with pytest.raises(ValueError, match="cell values must be finite"):
            call()


# --- memory -------------------------------------------------------------------


def test_slope_experiment_holds_no_stacked_temporaries():
    """Traced peak: the hoisted powers, the weight pairs and a few chunks.

    F test functions on N cells, D weight pairs.  One stacked (F, N)
    temporary is 2 MB here, eight chunks' worth, so bringing one back
    breaks the budget.  The family has two cubes, so the pair images on
    its three atoms (F^2 values each) stay far below one chunk.
    """
    cfg = GridConfig(1, 12)
    F, N = 64, cfg.cell_count
    rng = np.random.default_rng(1)
    fns = [indicator(cfg, DyadicCube(k, (0,))) for k in range(cfg.finest_level + 1)]
    fns += [GridFunction(cfg, rng.uniform(0.0, 2.0, N)) for _ in range(F - len(fns))]
    spec = WeightFamilySpec("power", (0.25, 0.125, 0.0625, 0.03125, 0.015625))
    D = len(spec.deltas)
    S = SparseFamily(cfg, (DyadicCube(0, (0,)), DyadicCube(1, (0,))))
    slope_experiment(spec, P66, cfg, S, fns)  # warm caches and imports
    tracemalloc.start()
    try:
        slope_experiment(spec, P66, cfg, S, fns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk = min(wtc._CHUNK_CELLS // N, F) * N
    budget = 8 * (F * N + 2 * D * N + 5 * chunk)
    assert peak < budget, (peak, budget)
