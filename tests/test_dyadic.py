import numpy as np
import pytest

from weaksparse.dyadic import (
    DyadicCube,
    GridConfig,
    Relation,
    _nested,
    all_cubes,
    cells_of,
    children,
    cube,
    cube_from_index,
    cube_index,
    cube_sums,
    expand_level_values,
    level_averages,
    parent,
    relation,
)


def test_parent_examples():
    assert parent(cube(2, 3)) == cube(1, 1)
    assert parent(cube(1, 0)) == cube(0, 0)
    assert parent(cube(3, 5, 2)) == cube(2, 2, 1)


def test_root_has_no_parent():
    with pytest.raises(ValueError, match="root has no parent"):
        parent(cube(0, 0))


def test_relation_examples():
    assert relation(cube(1, 0), cube(1, 1)) is Relation.DISJOINT
    assert relation(cube(2, 0), cube(1, 0)) is Relation.Q_INSIDE_R
    q = cube(2, 1)
    assert relation(q, q) is Relation.EQUAL
    assert relation(cube(1, 0), cube(2, 0)) is Relation.R_INSIDE_Q


def test_all_cubes_counts():
    assert len(list(all_cubes(GridConfig(1, 3)))) == 2**4 - 1
    k1 = list(all_cubes(GridConfig(1, 1)))
    assert k1 == [cube(0, 0), cube(1, 0), cube(1, 1)]
    assert len(list(all_cubes(GridConfig(2, 1)))) == 5


def test_cells_of_examples():
    cfg = GridConfig(1, 3)
    assert cells_of(cube(1, 1), cfg).tolist() == [4, 5, 6, 7]
    assert cells_of(cube(0, 0), cfg).tolist() == list(range(8))
    assert cells_of(cube(3, 5), cfg).tolist() == [5]


def test_cells_of_2d_block():
    cfg = GridConfig(2, 2)
    # cube (1, (1, 0)) covers rows 2..3, cols 0..1 of the 4x4 cell grid
    assert cells_of(cube(1, 1, 0), cfg).tolist() == [8, 9, 12, 13]


@pytest.mark.parametrize("dim,K", [(1, 4), (2, 3)])
def test_relation_matches_cell_containment(dim, K):
    cfg = GridConfig(dim, K)
    cubes = list(all_cubes(cfg))
    cells = {q: frozenset(cells_of(q, cfg).tolist()) for q in cubes}
    for q in cubes:
        for r in cubes:
            rel = relation(q, r)
            if rel is Relation.EQUAL:
                assert q == r
            elif rel is Relation.Q_INSIDE_R:
                assert cells[q] < cells[r] and q.level > r.level
            elif rel is Relation.R_INSIDE_Q:
                assert cells[r] < cells[q]
            else:
                assert cells[q].isdisjoint(cells[r])
    # the nesting test on arrays: every cube q against all cubes r at once
    levels = np.array([r.level for r in cubes])
    coords = np.array([r.coords for r in cubes]).T
    for q in cubes:
        want = [relation(q, r) is not Relation.DISJOINT for r in cubes]
        assert _nested(levels, coords, q.level, q.coords).tolist() == want
        assert _nested(q.level, q.coords, levels, coords).tolist() == want


@pytest.mark.parametrize("dim,K", [(1, 4), (2, 3)])
def test_fixed_level_partitions(dim, K):
    cfg = GridConfig(dim, K)
    for k in range(K + 1):
        seen = np.concatenate(
            [
                cells_of(q, cfg)
                for q in all_cubes(cfg)
                if q.level == k
            ]
        )
        assert np.array_equal(np.sort(seen), np.arange(cfg.cell_count))


@pytest.mark.parametrize("dim,K", [(1, 3), (2, 2)])
def test_parent_of_children_is_identity(dim, K):
    cfg = GridConfig(dim, K)
    for q in all_cubes(cfg):
        if q.level < K:
            kids = children(q, cfg)
            assert len(kids) == 2**dim
            assert all(parent(c) == q for c in kids)


def test_cube_index_roundtrip():
    for dim, K in ((1, 4), (2, 3)):
        for q in all_cubes(GridConfig(dim, K)):
            assert cube_from_index(q.level, cube_index(q), dim) == q


def test_grid_config_bounds():
    with pytest.raises(ValueError):
        GridConfig(3, 2)
    with pytest.raises(ValueError):
        GridConfig(1, 0)
    with pytest.raises(ValueError):
        GridConfig(1, 25)
    with pytest.raises(ValueError):
        GridConfig(2, 13)


def test_cube_coordinate_bounds():
    with pytest.raises(ValueError):
        DyadicCube(1, (2,))
    with pytest.raises(ValueError):
        DyadicCube(-1, (0,))


@pytest.mark.parametrize("dim,K", [(1, 5), (2, 3)])
def test_cube_sums_match_direct_sums(dim, K, rng):
    cfg = GridConfig(dim, K)
    values = rng.normal(0.0, 1.0, cfg.cell_count)
    sums = cube_sums(values, cfg)
    for q in all_cubes(cfg):
        direct = values[cells_of(q, cfg)].sum()
        assert sums[q.level][cube_index(q)] == pytest.approx(direct, rel=1e-13)


def test_cube_sums_1d_bit_identical_to_pair_reduction(rng):
    # reference: the size-2 axis reduction that pooled 1D levels before
    cfg = GridConfig(1, 10)
    values = rng.normal(0.0, 1.0, cfg.cell_count) * np.exp(
        rng.uniform(-300.0, 300.0, cfg.cell_count)
    )
    ref = values
    for level_sums in reversed(cube_sums(values, cfg)[:-1]):
        ref = ref.reshape(-1, 2).sum(axis=1)
        assert np.array_equal(level_sums, ref)


@pytest.mark.parametrize(
    "dim, K", [(1, K) for K in range(1, 11)] + [(2, K) for K in range(1, 8)]
)
def test_batched_cube_sums_equal_per_row_cube_sums(dim, K):
    cfg = GridConfig(dim, K)
    rng = np.random.default_rng(10 * K + dim)
    values = rng.normal(0.0, 1.0, (2, 3, cfg.cell_count)) * np.exp(
        rng.uniform(-300.0, 300.0, (2, 3, cfg.cell_count))
    )
    batched = cube_sums(values, cfg)
    assert [s.shape for s in batched] == [
        (2, 3, cfg.level_cube_count(k)) for k in range(K + 1)
    ]
    for i, j in np.ndindex(2, 3):
        for got, want in zip(batched, cube_sums(values[i, j], cfg)):
            assert np.array_equal(got[i, j], want)
        # reference: the one-array pooling that cube_sums did before
        ref = values[i, j]
        for level_sums in reversed(batched[:-1]):
            if dim == 1:
                ref = ref[0::2] + ref[1::2]
            else:
                half = int(round(np.sqrt(ref.size))) // 2
                ref = ref.reshape(half, 2, half, 2).sum(axis=(1, 3)).ravel()
            assert np.array_equal(level_sums[i, j], ref)


def test_level_averages_and_expand_are_inverse(rng):
    cfg = GridConfig(2, 3)
    values = rng.uniform(0.0, 5.0, cfg.cell_count)
    avgs = level_averages(values, cfg)
    for k in range(cfg.finest_level + 1):
        cells = expand_level_values(avgs[k], k, cfg)
        # re-pooling the expansion returns the level values
        assert np.allclose(
            level_averages(cells, cfg)[k], avgs[k], rtol=1e-13, atol=0
        )
