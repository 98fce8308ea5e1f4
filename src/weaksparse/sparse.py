"""Sparse cube families and bilinear sparse operators.

A family S is (1/2-)sparse when each cube Q in S owns a subset E_Q of at
least half its measure and the E_Q are pairwise disjoint.  Verification
uses the canonical witness E_Q = Q minus the union of the maximal strict
subcubes of Q inside the family; this choice is sufficient but not
necessary, so a rejected family is "not canonically sparse" rather than
proven non-sparse.  Cell counts are integers, so every witness check is
exact.

Evaluation sums run in enumeration order (level-major, lexicographic) to
keep outputs bit-stable across runs.

One label array answers every "finest family cube above" question.
Painting cube positions onto the cells coarse to fine labels each cell
with the finest cube holding it; the label under a cube just before it
is painted is its minimal strict ancestor.  The cells labelled Q are the
canonical E_Q, and the labels are the atoms on which a sparse image
sum_Q c_Q 1_Q is constant (one more atom off the union, where it
vanishes).  FamilyAtoms evaluates many images on these |S| + 1 atoms
instead of the 2^{nK} cells; sparse_eval stays the cellwise reference.
family_forest returns these ancestor positions for the stopping-time
construction.  restrict and sparse_split_eval sort the family cubes
against a cube qt by shifting coordinates to the coarser level, and the
split is two sparse_eval calls on the two parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


_SORT_KEY = lambda q: (q.level, q.coords)  # noqa: E731  enumeration order


@dataclass
class SparseFamily:
    """Cube collection with (if verified) a canonical disjoint witness."""

    config: GridConfig
    cubes: tuple[DyadicCube, ...]
    witness: dict[DyadicCube, np.ndarray] | None = None

    def __len__(self):
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)

    def __contains__(self, q: DyadicCube):
        return q in self._cube_set

    @cached_property
    def _cube_set(self) -> frozenset[DyadicCube]:
        return frozenset(self.cubes)


def _paint(cubes, config: GridConfig) -> tuple[np.ndarray, np.ndarray]:
    """Paint cube positions onto the cells, coarse to fine.

    Returns (labels, up).  labels[c] is the position of the finest cube
    holding cell c, or len(cubes) off the union; the order is stable
    within a level, so a later duplicate wins.  up[j] is the label under
    cube j's first cell just before j is painted: for distinct cubes, the
    position of j's minimal strict ancestor in the set, or len(cubes).
    """
    for q in cubes:
        check_cube(q, config)
    n = len(cubes)
    labels = np.full(config.cell_count, n, dtype=np.intp)
    up = np.empty(n, dtype=np.intp)
    for j in sorted(range(n), key=lambda j: cubes[j].level):
        view = cell_view(labels, cubes[j], config)
        up[j] = view.flat[0]
        view[...] = j
    return labels, up


def family_forest(cubes, config: GridConfig) -> tuple[list[DyadicCube], np.ndarray]:
    """The distinct cubes of a finite set in enumeration order, and their forest.

    up[j] is the position in ordered of the minimal strict ancestor of
    ordered[j] within the set, or len(ordered) for a maximal cube.  Every
    cube comes after the cubes containing it, so up[j] < j otherwise.
    """
    ordered = sorted(set(cubes), key=_SORT_KEY)
    _, up = _paint(ordered, config)
    return ordered, up


def _flat_index(cubes, config: GridConfig) -> np.ndarray:
    """Index of each cube in the concatenated per-level arrays of cube_sums."""
    # level k starts after the 1 + r + ... + r^(k-1) cubes of coarser levels
    r = config.level_cube_count(1)
    return np.array(
        [(r**q.level - 1) // (r - 1) + cube_index(q) for q in cubes], dtype=np.intp
    )


def _cube_sums_at(values: np.ndarray, cubes, config: GridConfig) -> np.ndarray:
    """Sums of a cell array over the given cubes, gathered from cube_sums."""
    return np.concatenate(cube_sums(values, config))[_flat_index(cubes, config)]


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a, as np.unique(a) returns them.

    np.unique also tests for a masked array, which imports numpy.ma (about
    1 MB of module objects) in the middle of the first call that gets here.
    """
    s = np.sort(a, axis=None)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def verify_sparse(cubes, config: GridConfig):
    """Check 1/2-sparsity with the canonical maximal-subcube witness.

    Returns (True, witness) where witness maps each cube to the sorted
    cell indices of its E_Q, or (False, offending_cube) on the first cube
    in enumeration order whose canonical witness drops below half
    measure.  E_Q is the set of cells labelled Q, so the witnesses
    partition the union and are disjoint by construction.
    """
    ordered = sorted(set(cubes), key=_SORT_KEY)
    labels, _ = _paint(ordered, config)
    sizes = np.bincount(labels, minlength=len(ordered) + 1)[:-1]
    need = np.array([config.cells_per_cube(q.level) for q in ordered], dtype=np.int64)
    bad = np.flatnonzero(2 * sizes < need)
    if bad.size:
        return False, ordered[bad[0]]
    cells = np.argsort(labels, kind="stable")
    return True, dict(zip(ordered, np.split(cells, np.cumsum(sizes))))


def family_from_cubes(config: GridConfig, cubes) -> SparseFamily:
    """Build a verified SparseFamily or raise if not canonically sparse."""
    ok, payload = verify_sparse(cubes, config)
    if not ok:
        raise ValueError(f"not canonically sparse: witness fails at {payload}")
    return SparseFamily(config, tuple(payload), payload)  # keys in enumeration order


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
    """The atoms of a cube family S, for exact evaluation of sparse images.

    labels[c] is the position in S.cubes of the finest cube holding cell
    c, or len(S) off the union.  members[j] lists the nonempty atoms inside
    the j-th cube, flat_index[j] is its index in the concatenated per-level
    arrays of cube_sums, and cells[j] its number of cells.
    """

    config: GridConfig
    labels: np.ndarray
    members: tuple[np.ndarray, ...]
    flat_index: np.ndarray
    cells: np.ndarray

    def sums(self, f: GridFunction | np.ndarray) -> np.ndarray:
        """Sums of f over the family cubes, in S.cubes order.

        f is a GridFunction or an array of cell values whose last axis is
        the cells; leading axes are independent rows, as in images.  The
        sums are gathered from cube_sums one level at a time, so its coarser
        levels (at most the input's size again) are the only temporary.
        Divided by cells they are the level_averages values, bit for bit.
        """
        values = f.values if isinstance(f, GridFunction) else f
        table = cube_sums(values, self.config)
        out = np.empty(values.shape[:-1] + self.flat_index.shape)
        for k, at, index in self._levels:
            out[..., at] = table[k][..., index]
        return out

    @cached_property
    def _levels(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(k, positions, cube indices) of the family cubes at each level k."""
        r = self.config.level_cube_count(1)
        starts = (r ** np.arange(self.config.finest_level + 2) - 1) // (r - 1)
        level = np.searchsorted(starts, self.flat_index, side="right") - 1
        out = []
        for k in _sorted_distinct(level):
            at = np.flatnonzero(level == k)
            out.append((int(k), at, self.flat_index[at] - starts[k]))
        return out

    def masses(self, w: GridFunction) -> np.ndarray:
        """w-measure of every atom."""
        size = len(self.members) + 1
        sums = np.bincount(self.labels, weights=w.values, minlength=size)
        return sums * self.config.cell_volume

    def images(self, coef: np.ndarray) -> np.ndarray:
        """Atom values of sum_Q coef[..., Q] 1_Q for every leading index.

        Each atom adds its cubes' terms in S.cubes order, as sparse_eval
        does on each cell, so the values equal its cell values bit for bit.
        """
        out = np.zeros(coef.shape[:-1] + (len(self.members) + 1,))
        for j, atoms in enumerate(self.members):
            out[..., atoms] += coef[..., j, None]
        return out


def family_atoms(S: SparseFamily) -> FamilyAtoms:
    """Atom labels and cube memberships of any finite family S."""
    cfg = S.config
    labels, _ = _paint(S.cubes, cfg)
    members = tuple(_sorted_distinct(cell_view(labels, q, cfg)) for q in S.cubes)
    cells = np.array([cfg.cells_per_cube(q.level) for q in S.cubes], dtype=np.float64)
    return FamilyAtoms(cfg, labels, members, _flat_index(S.cubes, cfg), cells)


def _nested_with(cubes, qt: DyadicCube) -> tuple[list[DyadicCube], list[DyadicCube]]:
    """The cubes containing qt (equality included), and those strictly inside.

    Two dyadic cubes are nested exactly when their coordinates agree at the
    coarser of their levels.
    """
    above: list[DyadicCube] = []
    inside: list[DyadicCube] = []
    for q in cubes:
        if q.dimension != qt.dimension:
            raise ValueError("cubes live on grids of different dimension")
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
        sparse_eval(SparseFamily(cfg, tuple(part)), f1m, f2)
        for part in _nested_with(S.cubes, qt)
    )


def restrict(S: SparseFamily, qt: DyadicCube) -> SparseFamily:
    """Keep the cubes contained in qt; subfamilies stay canonically sparse."""
    check_cube(qt, S.config)
    above, inside = _nested_with(S.cubes, qt)
    return family_from_cubes(S.config, inside + [q for q in above if q == qt])
