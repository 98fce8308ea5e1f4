import numpy as np
import pytest

from conftest import (
    member_cubes,
    random_exponents,
    random_function,
    random_weight,
    stopping_children,
)
from weaksparse.constants import pair_weights
from weaksparse.dyadic import GridConfig, all_cubes, cube
from weaksparse.measure import (
    GridFunction,
    Weight,
    constant,
    weighted_average,
    weighted_measure,
)
from weaksparse.sparse import (
    family_from_cubes,
    generate_sparse,
    family_forest,
    restrict,
    tower_family,
)
from weaksparse.stopping import (
    bilinear_form_decompose,
    build_stopping,
    carleson_checks,
    stopping_parent,
)

CFG = GridConfig(1, 6)


def _unverified(cfg):
    # the full tree is not sparse; build the container directly for stress tests
    from weaksparse.sparse import SparseFamily

    return SparseFamily(cfg, tuple(all_cubes(cfg)))


# --- construction -----------------------------------------------------------


def test_constant_f_stops_at_maximal_cubes():
    S = tower_family(CFG)
    fam = build_stopping(S, constant(CFG, 2.0), Weight(CFG, np.ones(CFG.cell_count)))
    assert member_cubes(fam) == frozenset({cube(0, 0)})
    assert fam.generation[S.position(cube(0, 0))] == 0


def test_hand_simulated_recursion():
    cfg = GridConfig(1, 2)
    S = _unverified(cfg)
    f = GridFunction(cfg, [4.0, 1.0, 1.0, 1.0])
    w = Weight(cfg, np.ones(4))
    fam = build_stopping(S, f, w)
    assert member_cubes(fam) == frozenset({cube(0, 0), cube(2, 0)})
    assert fam.generation[S.position(cube(2, 0))] == 1
    assert stopping_parent(fam, cube(1, 1)) == cube(0, 0)
    assert stopping_parent(fam, cube(2, 0)) == cube(2, 0)


def test_exact_doubling_is_not_selected():
    # average exactly 2x the parent must not trigger (strict inequality)
    cfg = GridConfig(1, 1)
    S = _unverified(cfg)
    f = GridFunction(cfg, [2.0, 0.0])  # root average 1, left half average 2
    w = Weight(cfg, np.ones(2))
    fam = build_stopping(S, f, w)
    assert member_cubes(fam) == frozenset({cube(0, 0)})


def test_rejects_negative_f():
    with pytest.raises(ValueError, match="nonnegative"):
        build_stopping(tower_family(CFG), constant(CFG, -1.0), Weight(CFG, np.ones(CFG.cell_count)))


def test_parent_outside_maximal_cubes_errors(rng):
    fam_cubes = [cube(1, 0), cube(2, 0)]
    S = family_from_cubes(CFG, fam_cubes)
    fam = build_stopping(S, constant(CFG, 1.0), Weight(CFG, np.ones(CFG.cell_count)))
    with pytest.raises(ValueError, match="not contained"):
        stopping_parent(fam, cube(1, 1))


def test_stopping_parent_checks_the_cube_against_the_grid():
    """A cube off the grid raises as restrict does, before any climb."""
    cfg = GridConfig(1, 4)
    S = tower_family(cfg)
    fam = build_stopping(S, constant(cfg, 1.0), Weight(cfg, np.ones(cfg.cell_count)))
    for q in (cube(9, 3), cube(1, 0, 1)):
        with pytest.raises(ValueError) as raised:
            stopping_parent(fam, q)
        with pytest.raises(ValueError) as by_restrict:
            restrict(S, q)
        assert str(raised.value) == str(by_restrict.value)
    with pytest.raises(ValueError, match="cube is finer than the grid"):
        stopping_parent(fam, cube(9, 3))
    with pytest.raises(ValueError, match="cube dimension does not match grid"):
        stopping_parent(fam, cube(1, 0, 1))


# --- invariants on random suites --------------------------------------------


def _random_instance(rng, dim=1):
    while True:
        K = int(rng.integers(2, 10)) if dim == 1 else int(rng.integers(2, 5))
        cfg = GridConfig(dim, K)
        S = generate_sparse(
            cfg, int(rng.integers(0, 2**31)), float(rng.uniform(0.1, 0.5))
        )
        if len(S):
            break
    f = random_function(rng, cfg)
    w = random_weight(rng, cfg)
    return cfg, S, f, w


@pytest.mark.parametrize("dim", [1, 2])
def test_stopping_invariants_random(dim, rng):
    for _ in range(40):
        cfg, S, f, w = _random_instance(rng, dim)
        fam = build_stopping(S, f, w)
        # generation 0 is exactly the maximal cubes
        gen0 = np.flatnonzero(fam.generation == 0)
        assert np.array_equal(gen0, np.flatnonzero(family_forest(S) == len(S)))
        for member, kids in stopping_children(fam).items():
            assert fam.generation[member] <= cfg.finest_level
            for child in kids:
                # strict doubling along stopping chains, by construction
                assert fam.wavg[child] > 2.0 * fam.wavg[member]
                assert fam.generation[child] == fam.generation[member] + 1
        for j, q in enumerate(S.cubes):
            pi = S.position(stopping_parent(fam, q))
            assert pi == fam.top[j]
            assert fam.wavg[j] <= 2.0 * fam.wavg[pi]


def test_cached_averages_match_direct(rng):
    cfg, S, f, w = _random_instance(rng)
    fam = build_stopping(S, f, w)
    for j, q in enumerate(S.cubes):
        assert fam.wavg[j] == pytest.approx(weighted_average(f, w, q), rel=1e-12)


# --- Carleson checks ---------------------------------------------------------


def test_carleson_single_generation():
    w = Weight(CFG, np.ones(CFG.cell_count))
    fam = build_stopping(tower_family(CFG), constant(CFG, 3.0), w)
    rep = carleson_checks(fam, 2.0)
    assert rep.child_mass_ok and rep.passed
    assert rep.sum_value == pytest.approx(9.0)


@pytest.mark.parametrize("p", [0.5, 1.0, np.inf, np.nan])
def test_carleson_checks_refuse_p_outside_one_to_infinity(p):
    w = Weight(CFG, np.ones(CFG.cell_count))
    fam = build_stopping(tower_family(CFG), constant(CFG, 3.0), w)
    with pytest.raises(ValueError, match=r"p must be in \(1, inf\)"):
        carleson_checks(fam, p)


def test_carleson_random_suite(rng):
    for _ in range(200):
        dim = 1 if rng.random() < 0.8 else 2
        cfg, S, f, w = _random_instance(rng, dim)
        p = float(rng.uniform(1.2, 4.0))
        fam = build_stopping(S, f, w)
        rep = carleson_checks(fam, p)
        assert rep.child_mass_ok
        assert rep.passed
        # re-verify the mass bound directly
        for member, kids in stopping_children(fam).items():
            if kids:
                assert sum(weighted_measure(w, S.cubes[c]) for c in kids) <= (
                    weighted_measure(w, S.cubes[member]) / 2.0
                )


# --- two-family decomposition -------------------------------------------------


def _decompose_inputs(rng, cfg, S):
    P = random_exponents(rng)
    w1 = random_weight(rng, cfg)
    w2 = random_weight(rng, cfg)
    return pair_weights(w1, w2, P)


def test_decompose_constant_data_has_single_parent_pair(rng):
    S = tower_family(CFG)
    pair = _decompose_inputs(rng, CFG, S)
    f2 = constant(CFG, 1.5)
    h = constant(CFG, 0.5)
    i1, i2, total = bilinear_form_decompose(S, f2, h, pair)
    assert i2 == 0.0
    assert i1 == pytest.approx(total, rel=1e-14)


def test_decompose_zero_function(rng):
    S = tower_family(CFG)
    pair = _decompose_inputs(rng, CFG, S)
    i1, i2, total = bilinear_form_decompose(S, constant(CFG, 0.0), constant(CFG, 1.0), pair)
    assert i1 == i2 == total == 0.0


def test_decompose_partition_identity_random(rng):
    done = 0
    while done < 100:
        dim = 1 if rng.random() < 0.8 else 2
        cfg, S, _, _ = _random_instance(rng, dim)
        qt = S.cubes[int(rng.integers(0, len(S)))]
        Sp = restrict(S, qt)
        pair = _decompose_inputs(rng, cfg, Sp)
        f2 = random_function(rng, cfg)
        h = random_function(rng, cfg)
        i1, i2, total = bilinear_form_decompose(Sp, f2, h, pair)
        scale = max(abs(total), 1e-300)
        assert abs(i1 + i2 - total) <= 1e-12 * scale
        done += 1


def test_decompose_requires_single_maximal_cube(rng):
    cubes = [cube(1, 0), cube(1, 1)]
    S = family_from_cubes(CFG, cubes)
    pair = _decompose_inputs(rng, CFG, S)
    with pytest.raises(ValueError, match="single maximal"):
        bilinear_form_decompose(S, constant(CFG, 1.0), constant(CFG, 1.0), pair)


def test_decompose_requires_nonnegative_data(rng):
    S = tower_family(CFG)
    pair = _decompose_inputs(rng, CFG, S)
    bad = GridFunction(CFG, np.full(CFG.cell_count, -1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        bilinear_form_decompose(S, bad, constant(CFG, 1.0), pair)
