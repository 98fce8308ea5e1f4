"""The dimension-generic geometry bodies of dyadic, against the 1D/2D forks
they replaced.

The oracles below are the former bodies of children, all_cubes,
cube_index, cube_from_index, cell_view and expand_level_values, each
written once for 1D and once for 2D, and of cells_of, which read the
cube's block of an index array over the whole grid.  The sweeps compare
them with the current bodies exhaustively on 1D K = 1..10 and 2D K = 1..5:
the same cubes in the same order, the same indices and children, the same
cell_view values and shapes (and still views of the flat array), the same
cell indices and dtype, the same expansions, and the same outcome of
cube_from_index, value or exception type and message, for every valid
index and for out-of-range ones.
"""

import tracemalloc

import numpy as np
import pytest

from weaksparse.dyadic import (
    DyadicCube,
    GridConfig,
    all_cubes,
    cells_of,
    children,
    cell_view,
    cube_from_index,
    cube_index,
    expand_level_values,
)

GRIDS = [(1, K) for K in range(1, 11)] + [(2, K) for K in range(1, 6)]


def _children_oracle(q, config):
    if q.level >= config.finest_level:
        raise ValueError("cube at finest level has no children on this grid")
    k = q.level + 1
    if q.dimension == 1:
        (c,) = q.coords
        return [DyadicCube(k, (2 * c,)), DyadicCube(k, (2 * c + 1,))]
    a, b = q.coords
    return [
        DyadicCube(k, (2 * a + i, 2 * b + j)) for i in (0, 1) for j in (0, 1)
    ]


def _all_cubes_oracle(config):
    for k in range(config.finest_level + 1):
        side = 1 << k
        if config.dimension == 1:
            for c in range(side):
                yield DyadicCube(k, (c,))
        else:
            for a in range(side):
                for b in range(side):
                    yield DyadicCube(k, (a, b))


def _cube_index_oracle(q):
    if q.dimension == 1:
        return q.coords[0]
    return (q.coords[0] << q.level) | q.coords[1]


def _cube_from_index_oracle(level, index, dimension):
    if dimension == 1:
        return DyadicCube(level, (index,))
    side = 1 << level
    return DyadicCube(level, (index >> level, index & (side - 1)))


def _cell_view_oracle(flat, q, config):
    m = 1 << (config.finest_level - q.level)
    if config.dimension == 1:
        c = q.coords[0]
        return flat[c * m : (c + 1) * m]
    a, b = q.coords
    side = config.side_cells
    return flat.reshape(side, side)[a * m : (a + 1) * m, b * m : (b + 1) * m]


def _cells_of_oracle(q, config):
    return cell_view(np.arange(config.cell_count), q, config).ravel()


def _expand_level_values_oracle(level_values, level, config):
    m = 1 << (config.finest_level - level)
    if config.dimension == 1:
        return np.repeat(level_values, m)
    side = 1 << level
    grid = np.asarray(level_values, dtype=np.float64).reshape(side, side)
    return np.repeat(np.repeat(grid, m, axis=0), m, axis=1).ravel()


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return (type(e), str(e))


@pytest.mark.parametrize("dim,K", GRIDS)
def test_cube_walks_match_forked_bodies(dim, K):
    cfg = GridConfig(dim, K)
    cubes = list(all_cubes(cfg))
    assert cubes == list(_all_cubes_oracle(cfg))
    for q in cubes:
        assert cube_index(q) == _cube_index_oracle(q)
        assert _outcome(children, q, cfg) == _outcome(_children_oracle, q, cfg)


@pytest.mark.parametrize("dim,K", GRIDS)
def test_cube_from_index_matches_forked_body(dim, K):
    for level in range(K + 1):
        n = 1 << (dim * level)
        for index in [*range(n), -1, n, 2 * n + 1]:
            got = _outcome(cube_from_index, level, index, dim)
            assert got == _outcome(_cube_from_index_oracle, level, index, dim)
            if 0 <= index < n:
                assert isinstance(got, DyadicCube)
            else:
                assert got[0] is ValueError


@pytest.mark.parametrize("dim,K", GRIDS)
def test_cell_view_matches_forked_body(dim, K):
    cfg = GridConfig(dim, K)
    flat = np.arange(cfg.cell_count, dtype=np.float64)
    for q in all_cubes(cfg):
        view = cell_view(flat, q, cfg)
        expected = _cell_view_oracle(flat, q, cfg)
        assert view.shape == expected.shape
        assert np.array_equal(view, expected)
        assert np.shares_memory(view, flat)
    # writes go through to the flat array
    scratch = np.zeros(cfg.cell_count)
    last = cube_from_index(K, cfg.cell_count - 1, dim)
    cell_view(scratch, last, cfg)[...] = 1.0
    assert scratch[-1] == 1.0 and scratch.sum() == 1.0


@pytest.mark.parametrize("dim,K", GRIDS)
def test_expand_level_values_matches_forked_body(dim, K):
    cfg = GridConfig(dim, K)
    rng = np.random.default_rng(dim * 100 + K)
    for level in range(K + 1):
        values = rng.normal(size=cfg.level_cube_count(level))
        got = expand_level_values(values, level, cfg)
        expected = _expand_level_values_oracle(values, level, cfg)
        assert got.dtype == np.float64 == expected.dtype
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim,K", GRIDS)
def test_cells_of_matches_the_whole_grid_body(dim, K):
    cfg = GridConfig(dim, K)
    for q in all_cubes(cfg):
        got, expected = cells_of(q, cfg), _cells_of_oracle(q, cfg)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def test_cells_of_allocates_for_the_cube_only():
    """A finest cube of 1D K = 24 (16M cells): the whole-grid index array
    alone would be 128 MB."""
    cfg = GridConfig(1, 24)
    q = DyadicCube(24, (cfg.cell_count - 1,))
    tracemalloc.start()
    try:
        cells = cells_of(q, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cells.tolist() == [cfg.cell_count - 1]
    assert peak < 1 << 20, peak
