"""Sparse cube families and bilinear sparse operators.

A family S is (1/2-)sparse when each cube Q in S owns a subset E_Q of at
least half its measure and the E_Q are pairwise disjoint.  Verification
uses the canonical witness E_Q = Q minus the union of the maximal strict
subcubes of Q inside the family; this choice is sufficient but not
necessary, so a rejected family is "not canonically sparse" rather than
proven non-sparse.  Cell counts are integers, so every witness check is
exact.

A family is one read-only, sorted, distinct int64 array of cube keys: a
cube's key is its place in all_cubes order, the (2^{nk} - 1) / (2^n - 1)
cubes coarser than its level k plus its cube_index.  So positions follow
enumeration order (level-major, lexicographic), a level's positions are
one slice, and its cube indices are the keys minus the level's first
key.  The code works on keys and positions; cubes meet a family only in
the constructor and in cubes, cube_at, position and witness.  Sums run
in key order, so outputs are bit-stable across runs.

Painting the levels coarse to fine, a level's disjoint cubes at once,
labels each cell with the finest family cube holding it; the label under
a cube just before its level is painted is its minimal strict ancestor
(family_forest).  A family paints once and keeps the paint.  The cells
labelled Q are the canonical E_Q, which SparseFamily.witness reads off
the paint (None when some cube keeps fewer than half its cells).  The
labels are also the atoms on which a sparse image sum_Q c_Q 1_Q is
constant (one more atom off the union, where it vanishes).
SparseFamily.images evaluates images on these |S| + 1 atoms with one
sweep over the levels, coarse to fine: an atom's value is its ancestor
atom's value plus its own cube's coefficient.  sparse_eval is that sweep
on the averages from SparseFamily.sums, read back on the cells.
restrict and sparse_split_eval split the keys at a cube qt with one
vectorised nesting test, and the split is two sparse_eval calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .dyadic import (
    DyadicCube,
    GridConfig,
    _blocks,
    _in_cube,
    _nested,
    cell_view,
    check_cube,
    cube_from_index,
    cube_index,
    cube_sums,
    index_coords,
)
from .measure import GridFunction, _same_grid


def _level_start(level, dimension: int):
    """Key of a level's first cube, the number of coarser cubes; levels
    may be an integer or a numpy array of them."""
    return ((1 << dimension * level) - 1) // ((1 << dimension) - 1)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SparseFamily:
    """A set of dyadic cubes on one grid, held as sorted distinct cube keys.

    The constructor checks every cube against the grid and sorts the set of
    their keys (np.unique would import numpy.ma), so listing order and
    repeats never matter.  What is derived from the keys is cached on first
    use; the family is frozen, so it cannot go stale.
    """

    config: GridConfig
    keys: np.ndarray

    def __init__(self, config: GridConfig, cubes):
        keys = set()
        for q in cubes:
            check_cube(q, config)
            keys.add(_level_start(q.level, q.dimension) + cube_index(q))
        self._hold(config, np.array(sorted(keys), dtype=np.int64))

    @classmethod
    def _from_keys(cls, config: GridConfig, keys: np.ndarray) -> SparseFamily:
        """The family on keys already sorted, distinct and on the grid."""
        return object.__new__(cls)._hold(config, keys)

    def _hold(self, config: GridConfig, keys: np.ndarray) -> SparseFamily:
        keys.flags.writeable = False
        self.__dict__.update(config=config, keys=keys)
        return self

    def __eq__(self, other):
        same = type(other) is type(self) and self.config == other.config
        return same and np.array_equal(self.keys, other.keys)

    def __hash__(self):
        return hash((self.config, self.keys.tobytes()))

    def __repr__(self):
        return f"SparseFamily(config={self.config!r}, cubes={self.cubes!r})"

    def __len__(self):
        return self.keys.size

    def __contains__(self, q: DyadicCube):
        cfg = self.config
        on_grid = q.dimension == cfg.dimension and q.level <= cfg.finest_level
        return on_grid and self.position(q) >= 0

    def position(self, q: DyadicCube) -> int:
        """The position of q, a cube checked against the grid, or -1."""
        key = _level_start(q.level, q.dimension) + cube_index(q)
        j = int(np.searchsorted(self.keys, key))
        return j if j < len(self) and self.keys[j] == key else -1

    def cube_at(self, j: int) -> DyadicCube:
        """The cube at position j."""
        k = int(self.levels[j])
        return cube_from_index(k, int(self.keys[j] - self._starts[k]), self.config.dimension)

    @cached_property
    def cubes(self) -> tuple[DyadicCube, ...]:
        """The cubes in key (enumeration) order."""
        return tuple(map(self.cube_at, range(len(self))))

    @cached_property
    def _starts(self) -> np.ndarray:
        """The first key of each level 0..K, then the number of cubes of the grid."""
        return _level_start(np.arange(self.config.finest_level + 2), self.config.dimension)

    @cached_property
    def _levels(self) -> list[tuple[int, slice, np.ndarray]]:
        """(k, positions, cube indices) per level k present."""
        bounds = np.searchsorted(self.keys, self._starts).tolist()
        return [
            (k, slice(lo, hi), self.keys[lo:hi] - self._starts[k])
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
            if hi > lo
        ]

    @cached_property
    def levels(self) -> np.ndarray:
        """The level of every cube, in key order."""
        return np.searchsorted(self._starts, self.keys, side="right") - 1

    @cached_property
    def paint(self) -> tuple[np.ndarray, np.ndarray]:
        """The label paint (labels, up), read-only.

        labels[c] is the position of the finest cube holding cell c, or
        len(self) off the union.  up[j] is the label under cube j's first
        cell just before j is painted: the position of its minimal strict
        ancestor in the family, or len(self) for a maximal cube.  Every cube
        comes after the cubes containing it, so up[j] < j otherwise.
        """
        n, cfg = len(self), self.config
        labels = np.full(cfg.cell_count, n, dtype=np.intp)
        up = np.empty(n, dtype=np.intp)
        for k, at, index in self._levels:  # coarse to fine
            blocks = _blocks(labels, k, cfg)
            coords = index_coords(k, index, cfg.dimension)
            up[at] = blocks[_in_cube(coords, 0)]
            positions = np.arange(at.start, at.stop).reshape((-1,) + (1,) * cfg.dimension)
            blocks[_in_cube(coords, slice(None))] = positions
        labels.flags.writeable = up.flags.writeable = False
        return labels, up

    @cached_property
    def witness(self) -> MappingProxyType | None:
        """Each cube's canonical E_Q, its labelled cells sorted (read-only), in
        enumeration order, in a read-only mapping; None when S is not
        canonically sparse."""
        if _first_thin_cube(self) is not None:
            return None
        cells = np.argsort(self.paint[0], kind="stable")
        cells.flags.writeable = False
        split = np.split(cells, np.cumsum(self._atom_cells[:-1]))
        return MappingProxyType(dict(zip(self.cubes, split)))

    @cached_property
    def _atom_cells(self) -> np.ndarray:
        """Cells per atom: those labelled j, then those off the union."""
        out = np.bincount(self.paint[0], minlength=len(self) + 1)
        out.flags.writeable = False
        return out

    def sums(self, f: GridFunction | np.ndarray) -> np.ndarray:
        """Sums of f over the family cubes, in key order.

        f is a GridFunction or an array whose last axis is the cells, with
        independent rows on the leading axes.  Divided by the cells per
        cube they are the level_averages values, bit for bit.
        """
        values = f.values if isinstance(f, GridFunction) else f
        table = cube_sums(values, self.config)
        out = np.empty(values.shape[:-1] + (len(self),))
        for k, at, index in self._levels:
            out[..., at] = table[k][..., index]
        return out

    @cached_property
    def cells(self) -> np.ndarray:
        """Cells per cube, in key order, as float64 (read-only)."""
        out = np.ldexp(1.0, self.config.dimension * (self.config.finest_level - self.levels))
        out.flags.writeable = False
        return out

    def masses(self, w: GridFunction) -> np.ndarray:
        """w-measure of every atom: the cells labelled j, then those off the union."""
        sums = np.bincount(self.paint[0], weights=w.values, minlength=len(self) + 1)
        return sums * self.config.cell_volume

    def images(self, coef: np.ndarray) -> np.ndarray:
        """Atom values of sum_Q coef[..., Q] 1_Q for every leading index.

        Atom j lies in cube j and in the chain of its ancestors, and up[j]
        < j, so coarse to fine its value is atom up[j]'s plus coef[..., j].
        Each atom thus adds its cubes' terms to 0.0 in key order, as a
        loop over the cubes adding each term on its cells does, bit for bit.
        An atom without cells (a cube covered by its subcubes) is 0, as
        off the union.
        """
        up = self.paint[1]
        out = np.zeros(coef.shape[:-1] + (len(self) + 1,))
        for _, at, _ in self._levels:
            out[..., at] = out[..., up[at]] + coef[..., at]
        out[..., self._atom_cells == 0] = 0.0
        return out


# bound once, so building from keys does not go through the module's name
# SparseFamily, which call counters replace with a wrapper
_family = SparseFamily._from_keys


def family_forest(S: SparseFamily) -> np.ndarray:
    """up of S.paint: the positions of the minimal strict ancestors in S."""
    return S.paint[1]


def _first_thin_cube(S: SparseFamily) -> DyadicCube | None:
    """The first cube of S labelling fewer than half its cells, or None."""
    bad = np.flatnonzero(2 * S._atom_cells[:-1] < S.cells)
    return S.cube_at(bad[0]) if bad.size else None


def _verified(S: SparseFamily) -> SparseFamily:
    """S, or raise if it is not canonically sparse."""
    bad = _first_thin_cube(S)
    if bad is not None:
        raise ValueError(f"not canonically sparse: witness fails at {bad}")
    return S


def verify_sparse(cubes, config: GridConfig):
    """Check 1/2-sparsity with the canonical maximal-subcube witness.

    Returns (True, witness) where witness is the family's read-only
    mapping of each cube, in enumeration order, to the sorted cell indices
    of its E_Q, or (False, offending_cube) on the first cube in enumeration
    order whose canonical witness drops below half measure.  E_Q is the set
    of cells labelled Q, so the witnesses partition the union and are
    disjoint by construction.
    """
    S = SparseFamily(config, cubes)
    bad = _first_thin_cube(S)
    return (True, S.witness) if bad is None else (False, bad)


def family_from_cubes(config: GridConfig, cubes) -> SparseFamily:
    """Build a verified SparseFamily or raise if not canonically sparse."""
    return _verified(SparseFamily(config, cubes))


def tower_family(config: GridConfig) -> SparseFamily:
    """The corner tower {[0, 2^-k)^n : 0 <= k <= K}; exactly 1/2-sparse in 1D."""
    levels = np.arange(config.finest_level + 1, dtype=np.int64)
    return _verified(_family(config, _level_start(levels, config.dimension)))


def generate_sparse(config: GridConfig, seed: int, budget: float) -> SparseFamily:
    """Seeded random sparse family; always passes verify_sparse.

    Scans cubes coarse to fine, one draw each (a level's draws at once
    give the same stream).  Each cube is drawn with probability 2*budget
    (so budget = 1/2 is a deterministic greedy scan) and admitted only if
    its minimal already-kept ancestor, owner[i], would still retain half
    of its measure for the canonical witness; room[s] counts the cells
    kept cube s can still give away.  A level's candidates share one size,
    so those under one owner are admitted in scan order while room lasts.
    """
    if not 0.0 < budget <= 0.5:
        raise ValueError("budget must be in (0, 1/2]")
    rng = np.random.default_rng(seed)
    n = config.dimension
    kept: list[np.ndarray] = []
    # slot 0 is the whole space with every cell free: cubes with no kept
    # ancestor lie in its free cells, so it never refuses one
    room = np.array([config.cell_count], dtype=np.int64)
    owner = np.zeros((1,) * n, dtype=np.intp)  # flat index = cube_index
    for k in range(config.finest_level + 1):
        for axis in range(n if k else 0):  # children inherit the owner
            owner = owner.repeat(2, axis=axis)
        cand = np.flatnonzero(rng.random(owner.size) < 2.0 * budget)
        own = owner.flat[cand]
        # rank of each candidate among the earlier ones with its owner
        order = np.argsort(own, kind="stable")
        grouped = own[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(cand.size) - np.searchsorted(grouped, grouped)
        size = config.cells_per_cube(k)
        admit = rank < room[own] // size
        new = cand[admit]
        room -= size * np.bincount(own[admit], minlength=room.size)
        owner.flat[new] = np.arange(room.size, room.size + new.size)
        room = np.concatenate([room, np.full(new.size, size // 2, dtype=np.int64)])
        kept.append(new + _level_start(k, n))
    return _verified(_family(config, np.concatenate(kept).astype(np.int64)))


def sparse_eval(S: SparseFamily, f1: GridFunction, f2: GridFunction) -> GridFunction:
    """Pointwise sum over Q in S of <f1>_Q <f2>_Q on Q; exact."""
    _same_grid(S, f1, f2)
    # GridFunction refuses an inf, or the nan of inf - inf, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        coef = (S.sums(f1) / S.cells) * (S.sums(f2) / S.cells)
        values = S.images(coef)[S.paint[0]]
    return GridFunction(S.config, values)


def _nested_with(S: SparseFamily, qt: DyadicCube) -> tuple[np.ndarray, np.ndarray]:
    """Masks of S's positions: the cubes containing qt (equality included),
    and those strictly inside."""
    coords = index_coords(S.levels, S.keys - S._starts[S.levels], S.config.dimension)
    nested = _nested(S.levels, coords, qt.level, qt.coords)
    return nested & (S.levels <= qt.level), nested & (S.levels > qt.level)


def _check_localized(f2: GridFunction, qt: DyadicCube) -> None:
    """Raise unless f2 vanishes off qt, a cube already checked against its grid."""
    outside = f2.values.copy()
    cell_view(outside, qt, f2.config)[...] = 0.0
    if outside.any():
        raise ValueError("localization hypothesis violated: supp f2 not inside qt")


def sparse_split_eval(
    S: SparseFamily, qt: DyadicCube, f1: GridFunction, f2: GridFunction
) -> tuple[GridFunction, GridFunction]:
    """Split the localized sum at a cube qt with supp f2 inside qt.

    Returns (A1, A2): A1 sums the cubes containing qt (equality included
    here, where the masked and plain averages of f1 agree) with the first
    slot masked to qt, A2 the cubes strictly inside qt.  Cubes disjoint
    from qt carry a zero f2-average, so A1 + A2 equals the full evaluation
    of (f1 restricted to qt, f2).  Each part is sparse_eval on its cubes.
    """
    cfg = _same_grid(S, f1, f2)
    check_cube(qt, cfg)
    _check_localized(f2, qt)
    f1m = f1.restricted(qt)
    return tuple(sparse_eval(_family(cfg, S.keys[m]), f1m, f2) for m in _nested_with(S, qt))


def restrict(S: SparseFamily, qt: DyadicCube) -> SparseFamily:
    """Keep the cubes contained in qt; subfamilies stay canonically sparse."""
    check_cube(qt, S.config)
    above, inside = _nested_with(S, qt)
    return _verified(_family(S.config, S.keys[inside | above & (S.levels == qt.level)]))
