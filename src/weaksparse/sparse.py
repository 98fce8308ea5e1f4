"""Sparse cube families and bilinear sparse operators.

A family S is (1/2-)sparse when each cube Q in S owns a subset E_Q of at
least half its measure and the E_Q are pairwise disjoint.  Verification
uses the canonical witness E_Q = Q minus the union of the maximal strict
subcubes of Q inside the family; this choice is sufficient but not
necessary, so a rejected family is "not canonically sparse" rather than
proven non-sparse.  Cell counts are integers, so every witness check is
exact.

A family is a set of cubes held in enumeration order (level-major,
lexicographic); repeats collapse.  The SparseFamily constructor is the one
place that sorts cubes, and evaluation sums run in that order to keep
outputs bit-stable across runs.

One label array answers every "finest family cube above" question.
Painting the cubes in that order, coarse to fine, labels each cell with
the finest cube holding it; the label under a cube just before it is
painted is its minimal strict ancestor.  A family paints once and keeps
the paint.  The cells labelled Q are the canonical E_Q, which
SparseFamily.witness reads off the paint (None when some cube keeps
fewer than half its cells).  The labels are also the atoms on which a
sparse image sum_Q c_Q 1_Q is constant (one more atom off the union,
where it vanishes).  SparseFamily.images
evaluates images on these |S| + 1 atoms with one sweep over the levels,
coarse to fine: an atom's value is its ancestor atom's value plus its
own cube's coefficient.  sparse_eval is that sweep on the averages from
SparseFamily.sums, read back on the cells.  family_forest returns the
ancestor positions for the stopping-time construction.  restrict and
sparse_split_eval split the family at a cube qt by shifting coordinates
to the coarser level, and the split is two sparse_eval calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from types import MappingProxyType

import numpy as np

from .dyadic import (
    DyadicCube,
    GridConfig,
    cell_view,
    check_cube,
    cube_from_index,
    cube_index,
    cube_sums,
)
from .measure import GridFunction, _same_grid


@dataclass(frozen=True)
class SparseFamily:
    """A set of dyadic cubes on one grid, held in enumeration order.

    The constructor checks every cube against the grid, drops repeats and
    sorts, so listing order never matters.  The label paint, the per-level
    positions, the cells per cube and the witness are computed once, on
    first use, from the cubes alone; the family is frozen, so they cannot
    go stale, and they take no part in comparison or repr.
    """

    config: GridConfig
    cubes: tuple[DyadicCube, ...]

    def __post_init__(self):
        # enumeration order: level-major, then lexicographic coordinates
        cubes = tuple(sorted(set(self.cubes), key=lambda q: (q.level, q.coords)))
        object.__setattr__(self, "cubes", cubes)
        for q in self.cubes:
            check_cube(q, self.config)

    def __len__(self):
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)

    def __contains__(self, q: DyadicCube):
        return q in self._cube_set

    @cached_property
    def _cube_set(self) -> frozenset[DyadicCube]:
        return frozenset(self.cubes)

    @cached_property
    def paint(self) -> tuple[np.ndarray, np.ndarray]:
        """The label paint (labels, up), read-only.

        labels[c] is the position of the finest cube holding cell c, or
        len(self) off the union.  up[j] is the label under cube j's first
        cell just before j is painted: the position of its minimal strict
        ancestor in the family, or len(self) for a maximal cube.  Every cube
        comes after the cubes containing it, so up[j] < j otherwise.
        """
        n = len(self.cubes)
        labels = np.full(self.config.cell_count, n, dtype=np.intp)
        up = np.empty(n, dtype=np.intp)
        for j, q in enumerate(self.cubes):  # level-major, so coarse to fine
            view = cell_view(labels, q, self.config)
            up[j] = view.flat[0]
            view[...] = j
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
        out = np.bincount(self.paint[0], minlength=len(self.cubes) + 1)
        out.flags.writeable = False
        return out

    @cached_property
    def _levels(self) -> list[tuple[int, slice, np.ndarray]]:
        """(k, positions, cube indices) per level k present; level-major order
        makes the positions of a level one slice."""
        out, lo = [], 0
        for k, group in groupby(self.cubes, key=lambda q: q.level):
            index = np.array([cube_index(q) for q in group], dtype=np.intp)
            out.append((k, slice(lo, lo + index.size), index))
            lo += index.size
        return out

    def sums(self, f: GridFunction | np.ndarray) -> np.ndarray:
        """Sums of f over the family cubes, in cubes order.

        f is a GridFunction or an array whose last axis is the cells, with
        independent rows on the leading axes.  Divided by the cells per
        cube they are the level_averages values, bit for bit.
        """
        values = f.values if isinstance(f, GridFunction) else f
        table = cube_sums(values, self.config)
        out = np.empty(values.shape[:-1] + (len(self.cubes),))
        for k, at, index in self._levels:
            out[..., at] = table[k][..., index]
        return out

    @cached_property
    def cells(self) -> np.ndarray:
        """Cells per cube, in cubes order, as float64 (read-only)."""
        out = np.empty(len(self.cubes))
        for k, at, _ in self._levels:
            out[at] = self.config.cells_per_cube(k)
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
        Each atom thus adds its cubes' terms to 0.0 in cubes order, as a
        loop over the cubes adding each term on its cells does, bit for bit.
        An atom without cells (a cube covered by its subcubes) is 0, as
        off the union.
        """
        up = self.paint[1]
        out = np.zeros(coef.shape[:-1] + (len(self.cubes) + 1,))
        for _, at, _ in self._levels:
            out[..., at] = out[..., up[at]] + coef[..., at]
        out[..., self._atom_cells == 0] = 0.0
        return out


def family_forest(S: SparseFamily) -> np.ndarray:
    """up of S.paint: the positions of the minimal strict ancestors in S."""
    return S.paint[1]


def _first_thin_cube(S: SparseFamily) -> DyadicCube | None:
    """The first cube of S labelling fewer than half its cells, or None."""
    bad = np.flatnonzero(2 * S._atom_cells[:-1] < S.cells)
    return S.cubes[bad[0]] if bad.size else None


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
    S = SparseFamily(config, cubes)
    bad = _first_thin_cube(S)
    if bad is not None:
        raise ValueError(f"not canonically sparse: witness fails at {bad}")
    return S


def tower_family(config: GridConfig) -> SparseFamily:
    """The corner tower {[0, 2^-k)^n : 0 <= k <= K}; exactly 1/2-sparse in 1D."""
    cubes = [
        DyadicCube(k, (0,) * config.dimension)
        for k in range(config.finest_level + 1)
    ]
    return family_from_cubes(config, cubes)


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
    kept: list[DyadicCube] = []
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
        kept.extend(cube_from_index(k, i, n) for i in new.tolist())
    return family_from_cubes(config, kept)


def sparse_eval(S: SparseFamily, f1: GridFunction, f2: GridFunction) -> GridFunction:
    """Pointwise sum over Q in S of <f1>_Q <f2>_Q on Q; exact."""
    _same_grid(S, f1, f2)
    coef = (S.sums(f1) / S.cells) * (S.sums(f2) / S.cells)
    return GridFunction(S.config, S.images(coef)[S.paint[0]])


def _nested_with(cubes, qt: DyadicCube) -> tuple[list[DyadicCube], list[DyadicCube]]:
    """The cubes containing qt (equality included), and those strictly inside.

    Two dyadic cubes are nested exactly when their coordinates agree at the
    coarser of their levels.
    """
    above: list[DyadicCube] = []
    inside: list[DyadicCube] = []
    for q in cubes:
        d = q.level - qt.level
        if d <= 0:
            if tuple(c >> -d for c in qt.coords) == q.coords:
                above.append(q)
        elif tuple(c >> d for c in q.coords) == qt.coords:
            inside.append(q)
    return above, inside


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
    return tuple(
        sparse_eval(SparseFamily(cfg, part), f1m, f2)
        for part in _nested_with(S.cubes, qt)
    )


def restrict(S: SparseFamily, qt: DyadicCube) -> SparseFamily:
    """Keep the cubes contained in qt; subfamilies stay canonically sparse."""
    check_cube(qt, S.config)
    above, inside = _nested_with(S.cubes, qt)
    return family_from_cubes(S.config, [q for q in above if q == qt] + inside)
