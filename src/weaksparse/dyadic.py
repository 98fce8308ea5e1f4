"""Dyadic cube geometry on the unit cube [0,1)^n.

A cube is the half-open box prod_i [c_i 2^-k, (c_i+1) 2^-k), stored as a
level k and integer coordinates c_i in [0, 2^k).  A GridConfig fixes the
dimension n (1 or 2) and a finest level K, so the whole cube system is
finite and every supremum taken over it is an exact maximum.

Conventions used throughout the package:
  * finest-level cells are numbered lexicographically by coordinates,
    i.e. row-major: flat index = c_0 * 2^K + c_1 in 2D, = c_0 in 1D;
  * cube enumeration order is level-major, then lexicographic coords;
  * all cubes are half-open, so fixed-level cubes partition [0,1)^n
    with no boundary double counting;
  * cell_view is the one cell-block geometry and cube_sums the one
    pyramid: every per-level sum or average of cells is one of its levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

# Cell count 2^{nK} stays at desk scale.
_MAX_LEVEL = {1: 24, 2: 12}


@dataclass(frozen=True)
class GridConfig:
    """Finite dyadic grid: cells of sidelength 2**-finest_level on [0,1)^dimension."""

    dimension: int
    finest_level: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not 1 <= self.finest_level <= _MAX_LEVEL[self.dimension]:
            raise ValueError(
                f"finest_level must be in [1, {_MAX_LEVEL[self.dimension]}] "
                f"for dimension {self.dimension}"
            )

    @property
    def side_cells(self) -> int:
        return 1 << self.finest_level

    @property
    def cell_count(self) -> int:
        return 1 << (self.dimension * self.finest_level)

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.dimension * self.finest_level)

    def level_cube_count(self, level: int) -> int:
        return 1 << (self.dimension * level)

    def cells_per_cube(self, level: int) -> int:
        return 1 << (self.dimension * (self.finest_level - level))


@dataclass(frozen=True)
class DyadicCube:
    """Half-open dyadic cube; coords are per-axis integers in [0, 2^level)."""

    level: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if len(self.coords) not in (1, 2):
            raise ValueError("coords must have length 1 or 2")
        top = 1 << self.level
        if any(not 0 <= c < top for c in self.coords):
            raise ValueError(f"coords {self.coords} out of range at level {self.level}")

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.dimension * self.level)


def cube(level: int, *coords: int) -> DyadicCube:
    """Shorthand constructor: cube(k, c) in 1D, cube(k, c0, c1) in 2D."""
    return DyadicCube(level, tuple(coords))


class Relation(Enum):
    EQUAL = "equal"
    Q_INSIDE_R = "q_inside_r"
    R_INSIDE_Q = "r_inside_q"
    DISJOINT = "disjoint"


def parent(q: DyadicCube) -> DyadicCube:
    if q.level == 0:
        raise ValueError("root has no parent")
    return DyadicCube(q.level - 1, tuple(c >> 1 for c in q.coords))


def children(q: DyadicCube, config: GridConfig) -> list[DyadicCube]:
    """The 2^n next-level cubes inside q, in lexicographic order."""
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


def relation(q: DyadicCube, r: DyadicCube) -> Relation:
    """Exact classification; two dyadic cubes are nested or disjoint.

    They are nested exactly when their coordinates agree at the coarser level.
    """
    if q.dimension != r.dimension:
        raise ValueError("cubes live on grids of different dimension")
    d = q.level - r.level
    if d == 0:
        return Relation.EQUAL if q.coords == r.coords else Relation.DISJOINT
    if d > 0:
        if tuple(c >> d for c in q.coords) == r.coords:
            return Relation.Q_INSIDE_R
        return Relation.DISJOINT
    if tuple(c >> -d for c in r.coords) == q.coords:
        return Relation.R_INSIDE_Q
    return Relation.DISJOINT


def all_cubes(config: GridConfig) -> Iterator[DyadicCube]:
    """Every cube with level in [0, K], level-major then lexicographic."""
    for k in range(config.finest_level + 1):
        side = 1 << k
        if config.dimension == 1:
            for c in range(side):
                yield DyadicCube(k, (c,))
        else:
            for a in range(side):
                for b in range(side):
                    yield DyadicCube(k, (a, b))


def cube_index(q: DyadicCube) -> int:
    """Flat lexicographic index of q within its level."""
    if q.dimension == 1:
        return q.coords[0]
    return (q.coords[0] << q.level) | q.coords[1]


def cube_from_index(level: int, index: int, dimension: int) -> DyadicCube:
    if dimension == 1:
        return DyadicCube(level, (index,))
    side = 1 << level
    return DyadicCube(level, (index >> level, index & (side - 1)))


def check_cube(q: DyadicCube, config: GridConfig) -> None:
    if q.dimension != config.dimension:
        raise ValueError("cube dimension does not match grid")
    if q.level > config.finest_level:
        raise ValueError("cube is finer than the grid")


def cells_of(q: DyadicCube, config: GridConfig) -> np.ndarray:
    """Sorted flat indices of the finest cells forming q (2^{n(K-k)} of them)."""
    check_cube(q, config)
    return cell_view(np.arange(config.cell_count), q, config).ravel()


def cell_view(flat: np.ndarray, q: DyadicCube, config: GridConfig) -> np.ndarray:
    """Numpy view of a flat cell array covering exactly the cells of q.

    Returns a 1D slice in 1D and a 2D block view in 2D; writes through.
    """
    m = 1 << (config.finest_level - q.level)
    if config.dimension == 1:
        c = q.coords[0]
        return flat[c * m : (c + 1) * m]
    a, b = q.coords
    side = config.side_cells
    return flat.reshape(side, side)[a * m : (a + 1) * m, b * m : (b + 1) * m]


# Even and odd cells of the last axis, built once: building the index per
# call costs more than the add itself on the small levels of a pyramid.
_EVEN, _ODD = (..., slice(0, None, 2)), (..., slice(1, None, 2))


def _halve(arr: np.ndarray, dimension: int) -> np.ndarray:
    """Sum 2 (1D) or 2x2 (2D) sibling blocks of the last axis, flat at some level.

    Leading axes are independent rows, each pooled bit for bit as on its own.
    """
    if dimension == 1:
        return arr[_EVEN] + arr[_ODD]  # bit-identical to a size-2 axis sum, faster
    half = math.isqrt(arr.shape[-1]) // 2
    lead = arr.shape[:-1]
    blocks = arr.reshape(lead + (half, 2, half, 2))
    return blocks.sum(axis=(-3, -1)).reshape(lead + (-1,))


def cube_sums(values: np.ndarray, config: GridConfig) -> list[np.ndarray]:
    """Per-level cube sums of a cell array, the workhorse of every cube sweep.

    Returns a list s with s[k][..., cube_index] = sum of `values` over the
    cells of the level-k cube; computed by repeated sibling pooling in
    O(N log N).  The cells are the last axis; leading axes are independent
    arrays, each summed bit for bit as on its own.
    """
    cur = np.asarray(values, dtype=np.float64)
    table = [cur]
    for _ in range(config.finest_level):
        cur = _halve(cur, config.dimension)
        table.append(cur)
    table.reverse()
    return table


def level_averages(values: np.ndarray, config: GridConfig) -> list[np.ndarray]:
    """Per-level cube means: cube_sums divided by cells per cube."""
    sums = cube_sums(values, config)
    return [
        sums[k] / config.cells_per_cube(k)
        for k in range(config.finest_level + 1)
    ]


def expand_level_values(level_values: np.ndarray, level: int, config: GridConfig) -> np.ndarray:
    """Broadcast one value per level-`level` cube to every cell it contains."""
    m = 1 << (config.finest_level - level)
    if config.dimension == 1:
        return np.repeat(level_values, m)
    side = 1 << level
    grid = np.asarray(level_values, dtype=np.float64).reshape(side, side)
    return np.repeat(np.repeat(grid, m, axis=0), m, axis=1).ravel()
