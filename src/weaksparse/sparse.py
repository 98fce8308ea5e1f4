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

A sparse image sum_Q c_Q 1_Q is constant on each atom: the cells whose
finest containing family cube is Q (the canonical E_Q of a verified
family), plus one atom off the union where it vanishes.  FamilyAtoms
evaluates many images on these |S| + 1 atoms instead of the 2^{nK}
cells; sparse_eval stays the cellwise reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import (
    DyadicCube,
    GridConfig,
    Relation,
    all_cubes,
    cell_view,
    cells_of,
    check_cube,
    cube_index,
    level_averages,
    parent,
    relation,
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


def family_forest(cubes) -> tuple[list[DyadicCube], dict[DyadicCube, list[DyadicCube]]]:
    """Maximal cubes and the containment forest of a finite cube set.

    children[q] lists the maximal strict subcubes of q within the set,
    found by walking each cube's ancestor chain to its first in-set hit.
    """
    cube_set = set(cubes)
    roots: list[DyadicCube] = []
    children: dict[DyadicCube, list[DyadicCube]] = {q: [] for q in cube_set}
    for q in sorted(cube_set, key=_SORT_KEY):
        a = q
        hit = None
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
    whose canonical witness drops below half measure.
    """
    ordered = sorted(set(cubes), key=_SORT_KEY)
    for q in ordered:
        check_cube(q, config)
    _, children = family_forest(ordered)
    witness: dict[DyadicCube, np.ndarray] = {}
    for q in ordered:
        own = cells_of(q, config)
        kids = children[q]
        if kids:
            covered = np.concatenate([cells_of(c, config) for c in kids])
            free = np.setdiff1d(own, covered, assume_unique=True)
        else:
            free = own
        if 2 * free.size < own.size:
            return False, q
        witness[q] = free
    # disjointness of the canonical witnesses holds by construction; check anyway
    if witness:
        allcells = np.concatenate(list(witness.values()))
        if _sorted_distinct(allcells).size != allcells.size:
            raise AssertionError("canonical witnesses are not disjoint")
    return True, witness


def family_from_cubes(config: GridConfig, cubes) -> SparseFamily:
    """Build a verified SparseFamily or raise if not canonically sparse."""
    ok, payload = verify_sparse(cubes, config)
    if not ok:
        raise ValueError(f"not canonically sparse: witness fails at {payload}")
    ordered = tuple(sorted(set(cubes), key=_SORT_KEY))
    return SparseFamily(config, ordered, payload)


def tower_family(config: GridConfig) -> SparseFamily:
    """The corner tower {[0, 2^-k)^n : 0 <= k <= K}; exactly 1/2-sparse in 1D."""
    cubes = [
        DyadicCube(k, (0,) * config.dimension)
        for k in range(config.finest_level + 1)
    ]
    return family_from_cubes(config, cubes)


def generate_sparse(config: GridConfig, seed: int, budget: float) -> SparseFamily:
    """Seeded random sparse family; always passes verify_sparse.

    Scans cubes coarse to fine.  Each cube is drawn with probability
    2*budget (so budget = 1/2 is a deterministic greedy scan) and admitted
    only if its minimal already-kept ancestor would still retain at least
    half of its measure for the canonical witness.  Occupancy is tracked
    in exact cell counts.
    """
    if not 0.0 < budget <= 0.5:
        raise ValueError("budget must be in (0, 1/2]")
    rng = np.random.default_rng(seed)
    kept: list[DyadicCube] = []
    kept_set: set[DyadicCube] = set()
    occupied: dict[DyadicCube, int] = {}
    prob = 2.0 * budget
    for q in all_cubes(config):
        if rng.random() >= prob:
            continue
        a = q
        anc = None
        while a.level > 0:
            a = parent(a)
            if a in kept_set:
                anc = a
                break
        size = config.cells_per_cube(q.level)
        if anc is not None:
            cap = config.cells_per_cube(anc.level) // 2
            if occupied[anc] + size > cap:
                continue
            occupied[anc] += size
        kept.append(q)
        kept_set.add(q)
        occupied[q] = 0
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
    the j-th cube, and flat_index[j] is its index in the concatenated
    per-level arrays of level_averages.
    """

    config: GridConfig
    labels: np.ndarray
    members: tuple[np.ndarray, ...]
    flat_index: np.ndarray

    def coefficients(self, f: GridFunction) -> np.ndarray:
        """Averages of f over the family cubes, in S.cubes order."""
        return np.concatenate(level_averages(f.values, self.config))[self.flat_index]

    def masses(self, w: GridFunction) -> np.ndarray:
        """w-measure of every atom."""
        size = len(self.members) + 1
        sums = np.bincount(self.labels, weights=w.values, minlength=size)
        return sums * self.config.cell_volume

    def images(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        """Atom values of sum_Q c1[a, Q] c2[b, Q] 1_Q for every pair (a, b).

        Each atom adds its cubes' terms in S.cubes order, as sparse_eval
        does on each cell, so the values equal its cell values bit for bit.
        """
        coef = c1[:, None, :] * c2[None, :, :]
        out = np.zeros(coef.shape[:2] + (len(self.members) + 1,))
        for j, atoms in enumerate(self.members):
            out[:, :, atoms] += coef[:, :, j, None]
        if not np.isfinite(out).all():
            raise ValueError("cell values must be finite")
        return out


def family_atoms(S: SparseFamily) -> FamilyAtoms:
    """Atom labels and cube memberships of any finite family S."""
    cfg = S.config
    labels = np.full(cfg.cell_count, len(S), dtype=np.intp)
    # coarse to fine, so the finest containing cube paints last
    for j in sorted(range(len(S)), key=lambda j: S.cubes[j].level):
        check_cube(S.cubes[j], cfg)
        cell_view(labels, S.cubes[j], cfg)[...] = j
    members = tuple(_sorted_distinct(cell_view(labels, q, cfg)) for q in S.cubes)
    # level k starts after the 1 + r + ... + r^(k-1) cubes of coarser levels
    r = cfg.level_cube_count(1)
    flat_index = np.array(
        [(r**q.level - 1) // (r - 1) + cube_index(q) for q in S.cubes], dtype=np.intp
    )
    return FamilyAtoms(cfg, labels, members, flat_index)


def sparse_split_eval(
    S: SparseFamily, qt: DyadicCube, f1: GridFunction, f2: GridFunction
) -> tuple[GridFunction, GridFunction]:
    """Split the localized sum at a cube qt with supp f2 inside qt.

    Returns (A1, A2): A1 sums the cubes containing qt (equality included
    here, where the masked and plain averages of f1 agree) with the first
    slot masked to qt, A2 the cubes strictly inside qt.  Cubes disjoint
    from qt carry a zero f2-average, so A1 + A2 equals the full evaluation
    of (f1 restricted to qt, f2).
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
    a1 = level_averages(f1m.values, cfg)
    a2 = level_averages(f2.values, cfg)
    big = np.zeros(cfg.cell_count)
    small = np.zeros(cfg.cell_count)
    for q in S.cubes:
        rel = relation(qt, q)
        if rel in (Relation.EQUAL, Relation.Q_INSIDE_R):
            target = big  # qt inside q (or equal): masked-average branch
        elif rel is Relation.R_INSIDE_Q:
            target = small  # q strictly inside qt
        else:
            continue
        i = cube_index(q)
        cell_view(target, q, cfg)[...] += a1[q.level][i] * a2[q.level][i]
    return GridFunction(cfg, big), GridFunction(cfg, small)


def restrict(S: SparseFamily, qt: DyadicCube) -> SparseFamily:
    """Keep the cubes contained in qt; subfamilies stay canonically sparse."""
    check_cube(qt, S.config)
    kept = [
        q
        for q in S.cubes
        if relation(q, qt) in (Relation.EQUAL, Relation.Q_INSIDE_R)
    ]
    return family_from_cubes(S.config, kept)
