import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_function
from weaksparse.dyadic import (
    GridConfig,
    all_cubes,
    cells_of,
    cube,
    cube_index,
    cube_sums,
    parent,
)
from weaksparse.measure import GridFunction, constant, indicator
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

CFG = GridConfig(1, 6)


# --- verification -----------------------------------------------------------


def test_tower_verifies_with_exact_half_witnesses():
    fam = tower_family(CFG)
    assert len(fam) == CFG.finest_level + 1
    for q in fam.cubes:
        expected = CFG.cells_per_cube(q.level)
        if q.level < CFG.finest_level:
            assert 2 * fam.witness[q].size == expected
        else:
            assert fam.witness[q].size == expected


@pytest.mark.parametrize("K", [1, 3, 6])
def test_full_tree_rejected(K):
    cfg = GridConfig(1, K)
    ok, offender = verify_sparse(list(all_cubes(cfg)), cfg)
    assert not ok
    # internal nodes are fully covered by their children
    assert offender == cube(0, 0)


def test_singleton_family():
    ok, witness = verify_sparse([cube(0, 0)], CFG)
    assert ok
    assert witness[cube(0, 0)].size == CFG.cell_count


def test_witnesses_are_disjoint(rng):
    fam = generate_sparse(CFG, seed=5, budget=0.3)
    cells = np.concatenate(list(fam.witness.values()))
    assert np.unique(cells).size == cells.size


def test_family_checks_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, which would put about 1 MB
    # of module objects in the middle of the first call that verifies a
    # family or evaluates on a fresh one
    code = (
        "import sys, weaksparse as ws\n"
        "cfg = ws.GridConfig(1, 6)\n"
        "ws.generate_sparse(cfg, 5, 0.3)\n"
        "f = ws.constant(cfg, 1.0)\n"
        "ws.sparse_eval(ws.SparseFamily(cfg, ws.tower_family(cfg).cubes), f, f)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    import weaksparse

    src = os.path.dirname(os.path.dirname(weaksparse.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_carleson_packing_of_verified_families(rng):
    for seed in range(8):
        fam = generate_sparse(CFG, seed=seed, budget=0.4)
        total = sum(q.volume for q in fam.cubes)
        union = sum(w.size for w in fam.witness.values()) * CFG.cell_volume
        assert total <= 2 * union + 1e-12
        assert union <= 1.0 + 1e-12


def test_membership_follows_cubes():
    fam = generate_sparse(CFG, seed=4, budget=0.3)
    for q in all_cubes(CFG):
        assert (q in fam) == (q in fam.cubes)
    plain = SparseFamily(CFG, (cube(2, 1), cube(0, 0)))
    assert cube(2, 1) in plain and cube(0, 0) in plain
    assert cube(1, 0) not in plain and cube(2, 1, 0) not in plain


# --- generation -------------------------------------------------------------


def test_generator_deterministic_and_always_sparse():
    for seed in (0, 1, 2, 99):
        a = generate_sparse(CFG, seed=seed, budget=0.25)
        b = generate_sparse(CFG, seed=seed, budget=0.25)
        assert a.cubes == b.cubes
        ok, _ = verify_sparse(a.cubes, CFG)
        assert ok


def test_generator_2d():
    cfg = GridConfig(2, 4)
    fam = generate_sparse(cfg, seed=3, budget=0.35)
    ok, _ = verify_sparse(fam.cubes, cfg)
    assert ok and len(fam) > 1


def test_generator_greedy_budget_is_tower():
    # pinned regression value: the deterministic greedy scan keeps the tower
    fam = generate_sparse(CFG, seed=123, budget=0.5)
    assert len(fam) == 7
    assert fam.cubes == tower_family(CFG).cubes


def test_generator_budget_validation():
    with pytest.raises(ValueError):
        generate_sparse(CFG, seed=0, budget=0.75)


# --- the label paint against the algorithms it replaced ---------------------
#
# The coarse-to-fine label paint answers every "finest family cube above"
# question.  These oracles are the scan generator, the parent-walk forest
# and the cells_of/setdiff1d witness it replaced, plus a per-cell atom
# label that keeps the finest cube.

_KEY = lambda q: (q.level, q.coords)  # noqa: E731


def _forest_oracle(cubes):
    cube_set = set(cubes)
    roots, children = [], {q: [] for q in cube_set}
    for q in sorted(cube_set, key=_KEY):
        a, hit = q, None
        while a.level > 0:
            a = parent(a)
            if a in cube_set:
                hit = a
                break
        if hit is None:
            roots.append(q)
        else:
            children[hit].append(q)
    return roots, children


def _verify_oracle(cubes, config):
    ordered = sorted(set(cubes), key=_KEY)
    _, children = _forest_oracle(ordered)
    witness = {}
    for q in ordered:
        own = cells_of(q, config)
        free = own
        if children[q]:
            covered = np.concatenate([cells_of(c, config) for c in children[q]])
            free = np.setdiff1d(own, covered, assume_unique=True)
        if 2 * free.size < own.size:
            return False, q
        witness[q] = free
    return True, witness


def _generate_oracle(config, seed, budget):
    rng = np.random.default_rng(seed)
    kept, occupied = set(), {}
    for q in all_cubes(config):
        if rng.random() >= 2.0 * budget:
            continue
        a, anc = q, None
        while a.level > 0:
            a = parent(a)
            if a in kept:
                anc = a
                break
        size = config.cells_per_cube(q.level)
        if anc is not None:
            if occupied[anc] + size > config.cells_per_cube(anc.level) // 2:
                continue
            occupied[anc] += size
        kept.add(q)
        occupied[q] = 0
    return tuple(sorted(kept, key=_KEY))


def _atom_labels_oracle(cubes, config):
    labels = np.full(config.cell_count, len(cubes))
    finest = np.full(config.cell_count, -1)
    for j, q in enumerate(cubes):
        cells = cells_of(q, config)
        cells = cells[finest[cells] <= q.level]
        labels[cells] = j
        finest[cells] = q.level
    return labels


def _check_against_oracles(cubes, config):
    """Assert paint and oracles agree on cubes; return the sparsity verdict."""
    ok, payload = verify_sparse(cubes, config)
    want_ok, want = _verify_oracle(cubes, config)
    assert ok == want_ok
    if ok:
        assert list(payload) == list(want)
        for q, cells in want.items():
            assert payload[q].dtype == cells.dtype
            assert np.array_equal(payload[q], cells)
    else:
        assert payload == want
    S = SparseFamily(config, cubes)
    ordered, up = S.cubes, family_forest(S)
    roots, children = [], {q: [] for q in ordered}
    for q, u in zip(ordered, up.tolist()):
        (roots if u == len(ordered) else children[ordered[u]]).append(q)
    assert (roots, children) == _forest_oracle(cubes)
    labels = _atom_labels_oracle(ordered, config)
    assert np.array_equal(S.paint[0], labels)
    # the image of the j-th unit coefficients is 1 exactly on cube j's atoms
    unit = S.images(np.eye(len(ordered)))
    for q, row in zip(ordered, unit):
        inside = np.intersect1d(np.flatnonzero(row), labels)
        assert np.array_equal(inside, np.unique(labels[cells_of(q, config)]))
    # family-cube sums, gathered per level, of a batch and of each row alone
    values = np.random.default_rng(len(cubes)).normal(0.0, 1.0, (2, config.cell_count))
    batched = S.sums(values)
    assert batched.shape == (2, len(ordered))
    for row, x in zip(batched, values):
        pyramid = cube_sums(x, config)
        want = np.array([pyramid[q.level][cube_index(q)] for q in ordered])
        assert np.array_equal(row, want)
        assert np.array_equal(S.sums(GridFunction(config, x)), want)
    return ok


@pytest.mark.parametrize(
    "config",
    [GridConfig(1, K) for K in range(1, 9)] + [GridConfig(2, K) for K in range(1, 5)],
    ids=lambda c: f"{c.dimension}d-K{c.finest_level}",
)
def test_generator_matches_scan_oracle(config):
    for seed in range(6):
        for budget in (0.02, 0.1, 0.25, 0.37, 0.5):
            fam = generate_sparse(config, seed, budget)
            assert fam.cubes == _generate_oracle(config, seed, budget)
            assert _check_against_oracles(fam.cubes, config)


@pytest.mark.parametrize("config", [GridConfig(1, 5), GridConfig(2, 3)], ids=["1d", "2d"])
def test_arbitrary_cube_sets_match_oracles(rng, config):
    cubes = list(all_cubes(config))
    verdicts = []
    for _ in range(150):
        pick = rng.integers(0, len(cubes), int(rng.integers(0, 12)))
        verdicts.append(_check_against_oracles([cubes[i] for i in pick], config))
    assert 0 < sum(verdicts) < len(verdicts)


# --- evaluation -------------------------------------------------------------


def test_sparse_eval_single_root():
    fam = family_from_cubes(CFG, [cube(0, 0)])
    out = sparse_eval(fam, constant(CFG, 1.0), constant(CFG, 1.0))
    assert np.allclose(out.values, 1.0)


def test_sparse_eval_hand_example():
    cfg = GridConfig(1, 2)
    fam = family_from_cubes(cfg, [cube(0, 0), cube(1, 0)])
    f = indicator(cfg, cube(1, 0))
    out = sparse_eval(fam, f, f)
    assert np.allclose(out.values, [1.25, 1.25, 0.25, 0.25])


@pytest.mark.parametrize(
    "f2", [[1e200] * 4, [3e200, -1e200, 0.0, 0.0]], ids=["overflow", "inf_minus_inf"]
)
def test_sparse_eval_refuses_an_image_past_the_doubles_without_a_warning(f2):
    """<f1>_Q <f2>_Q past the largest double is inf, and an atom under a +inf
    and a -inf coefficient adds them to nan: GridFunction refuses both, and
    no numpy warning escapes (pytest makes it an error)."""
    cfg = GridConfig(1, 2)
    fam = family_from_cubes(cfg, [cube(0, 0), cube(1, 0), cube(2, 1)])
    with pytest.raises(ValueError, match="^cell values must be finite$"):
        sparse_eval(fam, constant(cfg, 1e200), GridFunction(cfg, f2))


def test_sparse_eval_bilinear_and_monotone(rng):
    fam = generate_sparse(CFG, seed=11, budget=0.3)
    f1 = random_function(rng, CFG)
    f2 = random_function(rng, CFG)
    a = sparse_eval(fam, 3.0 * f1, f2)
    b = sparse_eval(fam, f1, f2)
    assert np.allclose(a.values, 3.0 * b.values, rtol=1e-12)
    bigger = GridFunction(CFG, f1.values + 0.5)
    c = sparse_eval(fam, bigger, f2)
    assert np.all(c.values >= b.values - 1e-12)


def test_sparse_eval_matches_direct_sum_2d(rng):
    cfg = GridConfig(2, 3)
    fam = generate_sparse(cfg, seed=6, budget=0.35)
    f1 = GridFunction(cfg, rng.uniform(0.0, 2.0, cfg.cell_count))
    f2 = GridFunction(cfg, rng.uniform(0.0, 2.0, cfg.cell_count))
    direct = np.zeros(cfg.cell_count)
    for q in fam.cubes:
        idx = cells_of(q, cfg)
        direct[idx] += f1.values[idx].mean() * f2.values[idx].mean()
    out = sparse_eval(fam, f1, f2)
    assert np.allclose(out.values, direct, rtol=1e-12, atol=1e-14)


def test_sparse_eval_deterministic_accumulation(rng):
    fam = generate_sparse(CFG, seed=11, budget=0.3)
    f1 = random_function(rng, CFG)
    f2 = random_function(rng, CFG)
    assert np.array_equal(
        sparse_eval(fam, f1, f2).values, sparse_eval(fam, f1, f2).values
    )


# --- localized split --------------------------------------------------------


def test_split_single_root_goes_to_first_branch():
    fam = family_from_cubes(CFG, [cube(0, 0)])
    f = constant(CFG, 1.0)
    a1, a2 = sparse_split_eval(fam, cube(0, 0), f, f)
    assert np.allclose(a1.values, 1.0)
    assert np.allclose(a2.values, 0.0)


def test_split_tower_example():
    fam = tower_family(CFG)
    qt = cube(1, 0)
    f1 = constant(CFG, 1.0)
    f2 = indicator(CFG, qt)
    a1, a2 = sparse_split_eval(fam, qt, f1, f2)
    # first branch carries exactly the root and qt itself (equal cube included):
    # root term 1/4 everywhere plus coefficient 1 on qt
    expected_a1 = 0.25 + indicator(CFG, qt).values
    assert np.allclose(a1.values, expected_a1, rtol=1e-14)
    # second branch only lives strictly inside qt
    assert np.any(a2.values != 0.0)
    assert not np.any(a2.values[~np.isin(np.arange(CFG.cell_count), cells_of(qt, CFG))])
    total = sparse_eval(fam, f1.restricted(qt), f2)
    assert np.max(np.abs(a1.values + a2.values - total.values)) <= 1e-12


def test_split_sum_identity_random(rng):
    for seed in range(6):
        fam = generate_sparse(CFG, seed=seed, budget=0.35)
        qt = fam.cubes[int(rng.integers(0, len(fam)))]
        f1 = random_function(rng, CFG)
        f2 = random_function(rng, CFG).restricted(qt)
        a1, a2 = sparse_split_eval(fam, qt, f1, f2)
        total = sparse_eval(fam, f1.restricted(qt), f2)
        scale = max(np.max(np.abs(total.values)), 1e-300)
        assert np.max(np.abs(a1.values + a2.values - total.values)) <= 1e-12 * scale


def test_split_zero_second_argument():
    fam = tower_family(CFG)
    a1, a2 = sparse_split_eval(fam, cube(2, 0), constant(CFG, 1.0), constant(CFG, 0.0))
    assert not np.any(a1.values) and not np.any(a2.values)


def test_split_rejects_bad_support():
    fam = tower_family(CFG)
    with pytest.raises(ValueError, match="localization"):
        sparse_split_eval(fam, cube(1, 0), constant(CFG, 1.0), constant(CFG, 1.0))


# --- restriction ------------------------------------------------------------


def test_restrict_tower():
    fam = tower_family(CFG)
    sub = restrict(fam, cube(1, 0))
    assert sub.cubes == tuple(
        cube(k, 0) for k in range(1, CFG.finest_level + 1)
    )


def test_restrict_to_root_is_identity():
    fam = generate_sparse(CFG, seed=4, budget=0.3)
    assert restrict(fam, cube(0, 0)).cubes == fam.cubes


def test_restrict_always_verifies(rng):
    for seed in range(6):
        fam = generate_sparse(CFG, seed=seed, budget=0.4)
        qt = fam.cubes[int(rng.integers(0, len(fam)))]
        sub = restrict(fam, qt)
        ok, _ = verify_sparse(sub.cubes, CFG)
        assert ok
        assert all(cells_of(q, CFG)[0] >= cells_of(qt, CFG)[0] for q in sub.cubes)
