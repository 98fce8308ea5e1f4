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
the paint.  The cells labelled Q are the canonical E_Q, and the labels
are the atoms on which a sparse image sum_Q c_Q 1_Q is constant (one
more atom off the union, where it vanishes).  FamilyAtoms evaluates many
images on these |S| + 1 atoms instead of the 2^{nK} cells; sparse_eval
stays the cellwise reference.  family_forest returns the ancestor
positions for the stopping-time construction, and SparseFamily.sums
gathers family-cube sums one level at a time.  restrict and
sparse_split_eval split the family at a cube qt by shifting coordinates
to the coarser level, and the split is two sparse_eval calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np

from .dyadic import (
    DyadicCube,
    GridConfig,
    cell_view,
    check_cube,
    cube_from_index,
    cube_index,
    cube_sums,
    level_averages,
)
from .measure import GridFunction


@dataclass
class SparseFamily:
    """A set of dyadic cubes on one grid, held in enumeration order.

    The constructor checks every cube against the grid, drops repeats and
    sorts, so listing order never matters.  witness (if verified) maps each
    cube to the cells of its canonical E_Q; it follows from the cubes, so
    it is left out of comparison and repr.  The label paint and per-level
    positions are computed once, on first use.
    """

    config: GridConfig
    cubes: tuple[DyadicCube, ...]
    witness: dict[DyadicCube, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        # enumeration order: level-major, then lexicographic coordinates
        self.cubes = tuple(sorted(set(self.cubes), key=lambda q: (q.level, q.coords)))
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


def family_forest(S: SparseFamily) -> np.ndarray:
    """up of S.paint: the positions of the minimal strict ancestors in S."""
    return S.paint[1]


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a, as np.unique(a) returns them.

    np.unique also tests for a masked array, which imports numpy.ma (about
    1 MB of module objects) in the middle of the first call that gets here.
    """
    s = np.sort(a, axis=None)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def _canonical_witness(S: SparseFamily):
    """verify_sparse's verdict on S, from S's label paint."""
    labels = S.paint[0]
    sizes = np.bincount(labels, minlength=len(S) + 1)[:-1]
    need = np.array([S.config.cells_per_cube(q.level) for q in S.cubes], dtype=np.int64)
    bad = np.flatnonzero(2 * sizes < need)
    if bad.size:
        return False, S.cubes[bad[0]]
    cells = np.argsort(labels, kind="stable")
    return True, dict(zip(S.cubes, np.split(cells, np.cumsum(sizes))))


def verify_sparse(cubes, config: GridConfig):
    """Check 1/2-sparsity with the canonical maximal-subcube witness.

    Returns (True, witness) where witness maps each cube, in enumeration
    order, to the sorted cell indices of its E_Q, or (False, offending_cube)
    on the first cube in enumeration order whose canonical witness drops
    below half measure.  E_Q is the set of cells labelled Q, so the
    witnesses partition the union and are disjoint by construction.
    """
    return _canonical_witness(SparseFamily(config, cubes))


def family_from_cubes(config: GridConfig, cubes) -> SparseFamily:
    """Build a verified SparseFamily or raise if not canonically sparse."""
    S = SparseFamily(config, cubes)
    ok, payload = _canonical_witness(S)
    if not ok:
        raise ValueError(f"not canonically sparse: witness fails at {payload}")
    S.witness = payload  # the family keeps the paint the check made
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
    cfg = S.config
    if f1.config != cfg or f2.config != cfg:
        raise ValueError("grid mismatch")
    a1 = level_averages(f1.values, cfg)
    a2 = level_averages(f2.values, cfg)
    out = np.zeros(cfg.cell_count)
    for q in S.cubes:
        i = cube_index(q)
        cell_view(out, q, cfg)[...] += a1[q.level][i] * a2[q.level][i]
    return GridFunction(cfg, out)


@dataclass(frozen=True, eq=False)
class FamilyAtoms:
    """The atoms of a sparse family, for exact evaluation of sparse images.

    labels is family.paint's: labels[c] is the position in family.cubes of
    the finest cube holding cell c, or len(family) off the union.
    members[j] lists the nonempty atoms inside the j-th cube and cells[j]
    its number of cells.
    """

    family: SparseFamily
    labels: np.ndarray
    members: tuple[np.ndarray, ...]
    cells: np.ndarray

    def masses(self, w: GridFunction) -> np.ndarray:
        """w-measure of every atom."""
        size = len(self.members) + 1
        sums = np.bincount(self.labels, weights=w.values, minlength=size)
        return sums * self.family.config.cell_volume

    def images(self, coef: np.ndarray) -> np.ndarray:
        """Atom values of sum_Q coef[..., Q] 1_Q for every leading index.

        Each atom adds its cubes' terms in family.cubes order, as sparse_eval
        does on each cell, so the values equal its cell values bit for bit.
        """
        out = np.zeros(coef.shape[:-1] + (len(self.members) + 1,))
        for j, atoms in enumerate(self.members):
            out[..., atoms] += coef[..., j, None]
        return out


def family_atoms(S: SparseFamily) -> FamilyAtoms:
    """Atom labels and cube memberships of S, from its label paint."""
    cfg = S.config
    labels = S.paint[0]
    members = tuple(_sorted_distinct(cell_view(labels, q, cfg)) for q in S.cubes)
    cells = np.array([cfg.cells_per_cube(q.level) for q in S.cubes], dtype=np.float64)
    return FamilyAtoms(S, labels, members, cells)


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
    cfg = S.config
    if f1.config != cfg or f2.config != cfg:
        raise ValueError("grid mismatch")
    check_cube(qt, cfg)
    outside = np.ones(cfg.cell_count, dtype=bool)
    cell_view(outside, qt, cfg)[...] = False
    if np.any(f2.values[outside] != 0.0):
        raise ValueError("localization hypothesis violated: supp f2 not inside qt")
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
