"""Stopping-time families over a sparse family and their Carleson bounds.

Given a nonnegative f, a weight w, and a sparse family S with maximal
cubes, generation 0 consists of the maximal cubes and each later
generation collects, inside each selected cube F, the maximal cubes of S
whose w-average of f strictly more than doubles the average on F.  On a
finite grid the recursion terminates because averages strictly increase
along chains and levels strictly increase with each generation.

The strict doubling threshold 2 is hard-coded.  Two consequences are
checked downstream: each generation loses at least half the w-mass of
its parent, and summing (average)^p w(F) over the family is controlled
by the L^p(w) norm of f through the Carleson embedding with the dyadic
Doob maximal bound, giving the pinned test constant 2 (p')^p.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (
    DyadicCube,
    GridConfig,
    Relation,
    cube_index,
    cube_sums,
    parent,
    relation,
)
from .measure import GridFunction, Weight, lp_norm
from .sparse import SparseFamily, family_forest


@dataclass
class StoppingFamily:
    """Selected cubes with generations, stopping children, and cached averages."""

    config: GridConfig
    members: frozenset[DyadicCube]
    generation: dict[DyadicCube, int]
    children: dict[DyadicCube, tuple[DyadicCube, ...]]
    maximal: tuple[DyadicCube, ...]
    wavg: dict[DyadicCube, float] = field(repr=False)
    source: tuple = field(repr=False, default=())


def _weighted_averages(
    cubes, config: GridConfig, f: GridFunction, w: Weight
) -> dict[DyadicCube, float]:
    num = cube_sums((f * w).values, config)
    den = cube_sums(w.values, config)
    out = {}
    for q in cubes:
        i = cube_index(q)
        out[q] = float(num[q.level][i] / den[q.level][i])
    return out


def build_stopping(S: SparseFamily, f: GridFunction, w: Weight) -> StoppingFamily:
    """Construct the stopping family of (f, w) over S; f must be nonnegative."""
    if len(S) == 0:
        raise ValueError("sparse family is empty")
    if f.config != S.config or w.config != S.config:
        raise ValueError("grid mismatch")
    if float(f.values.min()) < 0.0:
        raise ValueError("stopping construction requires nonnegative f")
    wavg = _weighted_averages(S.cubes, S.config, f, w)
    roots, forest = family_forest(S.cubes, S.config)
    generation: dict[DyadicCube, int] = {}
    children: dict[DyadicCube, tuple[DyadicCube, ...]] = {}
    queue: deque[DyadicCube] = deque()
    for r in roots:
        generation[r] = 0
        queue.append(r)
    while queue:
        F = queue.popleft()
        threshold = 2.0 * wavg[F]
        selected: list[DyadicCube] = []
        stack = list(forest[F])
        while stack:
            q = stack.pop()
            if wavg[q] > threshold:
                selected.append(q)  # maximal: no family cube strictly between
            else:
                stack.extend(forest[q])
        selected.sort(key=lambda q: (q.level, q.coords))
        children[F] = tuple(selected)
        for c in selected:
            generation[c] = generation[F] + 1
            queue.append(c)
    return StoppingFamily(
        config=S.config,
        members=frozenset(generation),
        generation=generation,
        children=children,
        maximal=tuple(roots),
        wavg=wavg,
        source=(f, w, S),
    )


def stopping_parent(F: StoppingFamily, q: DyadicCube) -> DyadicCube:
    """Minimal family member containing q (q itself when q is a member)."""
    a = q
    while True:
        if a in F.members:
            return a
        if a.level == 0:
            break
        a = parent(a)
    raise ValueError("cube is not contained in any maximal cube of the family")


@dataclass(frozen=True)
class CarlesonReport:
    child_mass_ok: bool
    sum_value: float
    bound_value: float
    passed: bool


def carleson_checks(
    F: StoppingFamily, f: GridFunction, w: Weight, p: float
) -> CarlesonReport:
    """Generation mass bound and the aggregate embedding bound for p > 1.

    child_mass_ok: for every member, the next generation inside it carries
    at most half its w-mass (exact consequence of strict doubling with
    f >= 0).  passed: sum of (w-average)^p * w(F) over members is at most
    2 (p')^p ||f||_{L^p(w)}^p.
    """
    if not 1.0 < p < np.inf:
        raise ValueError("p must be in (1, inf)")
    cfg = F.config
    wsums = cube_sums(w.values, cfg)

    def wmass(q: DyadicCube) -> float:
        return float(wsums[q.level][cube_index(q)]) * cfg.cell_volume

    members = sorted(F.members, key=lambda q: (q.level, q.coords))
    child_mass_ok = True
    for member in members:
        kids = F.children.get(member, ())
        if kids and sum(wmass(c) for c in kids) > wmass(member) / 2.0:
            child_mass_ok = False
            break
    wavg = _weighted_averages(members, cfg, f, w)
    sum_value = sum(wavg[m] ** p * wmass(m) for m in members)
    pc = p / (p - 1.0)
    bound_value = 2.0 * pc**p * lp_norm(f, w, p) ** p
    return CarlesonReport(
        child_mass_ok, sum_value, bound_value, sum_value <= bound_value
    )


def bilinear_form_decompose(
    Sprime: SparseFamily,
    f2: GridFunction,
    h: GridFunction,
    sigma2: Weight,
    v: Weight,
    sigma1: Weight,
) -> tuple[float, float, float]:
    """Split the localized bilinear form along two stopping families.

    total sums, over the cubes of Sprime, the product of the sigma2-average
    of f2, the v-average of h, and lambda_Q = <sigma1>_Q <sigma2>_Q v(Q).
    Each term is routed by the pair of stopping parents (F2, H): terms with
    H inside F2 (equality included) land in I1, the rest in I2, so the two
    parts partition the sum exactly.
    """
    cfg = Sprime.config
    for g in (f2, h, sigma2, v, sigma1):
        if g.config != cfg:
            raise ValueError("grid mismatch")
    roots, _ = family_forest(Sprime.cubes, Sprime.config)
    if len(roots) != 1:
        raise ValueError("family must have a single maximal cube")
    if float(f2.values.min()) < 0.0 or float(h.values.min()) < 0.0:
        raise ValueError("decomposition requires nonnegative f2 and h")
    fam2 = build_stopping(Sprime, f2, sigma2)
    famh = build_stopping(Sprime, h, v)
    s1sums = cube_sums(sigma1.values, cfg)
    s2sums = cube_sums(sigma2.values, cfg)
    vsums = cube_sums(v.values, cfg)
    i1 = 0.0
    i2 = 0.0
    total = 0.0
    for q in Sprime.cubes:
        k, i = q.level, cube_index(q)
        count = cfg.cells_per_cube(k)
        lam = (
            (s1sums[k][i] / count)
            * (s2sums[k][i] / count)
            * (vsums[k][i] * cfg.cell_volume)
        )
        term = fam2.wavg[q] * famh.wavg[q] * lam
        total += term
        rel = relation(stopping_parent(famh, q), stopping_parent(fam2, q))
        if rel in (Relation.EQUAL, Relation.Q_INSIDE_R):
            i1 += term
        else:
            i2 += term
    return i1, i2, total
