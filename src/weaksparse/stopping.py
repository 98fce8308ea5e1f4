"""Stopping-time families over a sparse family and their Carleson bounds.

Given a nonnegative f, a weight w, and a sparse family S with maximal
cubes, generation 0 consists of the maximal cubes and each later
generation collects, inside each selected cube F, the maximal cubes of S
whose w-average of f strictly more than doubles the average on F.  On a
finite grid the recursion terminates because averages strictly increase
along chains and levels strictly increase with each generation.

The recursion is one pass over the family's positions, where every cube
comes after the cubes containing it: a cube is selected when it is
maximal (sparse.family_forest) or when its average strictly more than
doubles that of its minimal strict ancestor's stopping parent, and
otherwise inherits that stopping parent.  A member's stopping children,
the members whose ancestor has it as stopping parent, are derived where
they are read.  Only stopping_parent, which takes a cube and climbs with
parent to the family, builds cubes.

The strict doubling threshold 2 is hard-coded.  Two consequences are
checked downstream: each generation loses at least half the w-mass of
its parent, and summing (average)^p w(F) over the family is controlled
by the L^p(w) norm of f through the Carleson embedding with the dyadic
Doob maximal bound, giving the pinned test constant 2 (p')^p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import WeightPair
from .dyadic import DyadicCube, check_cube, parent
from .measure import GridFunction, Weight, _conjugate, _same_grid, lp_norm
from .sparse import SparseFamily, family_forest


@dataclass(frozen=True, eq=False, repr=False)
class StoppingFamily:
    """Read-only arrays over the positions of family: each cube's
    generation (-1 off the members), the position top of its stopping
    parent (the minimal member containing it), the w-average wavg of f and
    the w-sum wsum; members holds the members' positions.  f and w are the
    data it was built from."""

    family: SparseFamily
    members: np.ndarray
    generation: np.ndarray
    top: np.ndarray
    wavg: np.ndarray
    wsum: np.ndarray
    f: GridFunction
    w: Weight


def build_stopping(S: SparseFamily, f: GridFunction, w: Weight) -> StoppingFamily:
    """Construct the stopping family of (f, w) over S; f must be nonnegative."""
    if len(S) == 0:
        raise ValueError("sparse family is empty")
    _same_grid(S, f, w)
    if float(f.values.min()) < 0.0:
        raise ValueError("stopping construction requires nonnegative f")
    n, wsum = len(S), S.sums(w)
    avg = S.sums(f * w) / wsum
    a = avg.tolist()
    # slot n is "no ancestor", the up of a maximal cube: its own top, generation -1
    top, generation = list(range(n + 1)), [-1] * (n + 1)
    for j, u in enumerate(family_forest(S).tolist()):  # u < j, so top[u] is final
        t = top[u]
        if t == n or a[j] > 2.0 * a[t]:
            generation[j] = generation[t] + 1
        else:
            top[j] = t
    generation, top = np.array(generation[:n]), np.array(top[:n])
    members = np.flatnonzero(generation >= 0)
    for a in (members, generation, top, avg, wsum):
        a.flags.writeable = False
    return StoppingFamily(S, members, generation, top, avg, wsum, f, w)


def stopping_parent(F: StoppingFamily, q: DyadicCube) -> DyadicCube:
    """Minimal family member containing q (q itself when q is a member)."""
    S = F.family
    check_cube(q, S.config)
    while (j := S.position(q)) < 0:
        if q.level == 0:
            raise ValueError("cube is not contained in any maximal cube of the family")
        q = parent(q)
    return S.cube_at(F.top[j])


@dataclass(frozen=True)
class CarlesonReport:
    child_mass_ok: bool
    sum_value: float
    bound_value: float
    passed: bool


def carleson_checks(F: StoppingFamily, p: float) -> CarlesonReport:
    """Generation mass bound and the aggregate embedding bound for p > 1.

    child_mass_ok: for every member, the next generation inside it carries
    at most half its w-mass (exact consequence of strict doubling with
    f >= 0).  passed: sum of (w-average)^p * w(F) over members is at most
    2 (p')^p ||f||_{L^p(w)}^p.  Reads F's averages, w-sums, f and w, and
    sums each member's children in key order.
    """
    p_prime = _conjugate(p)  # refuses p outside (1, inf) before any work
    mass = (F.wsum * F.family.config.cell_volume).tolist()
    later = np.flatnonzero(F.generation > 0)  # the members that are someone's child
    kids: dict[int, list[float]] = {}
    for c, parent_member in zip(later.tolist(), F.top[family_forest(F.family)[later]].tolist()):
        kids.setdefault(parent_member, []).append(mass[c])
    child_mass_ok = all(sum(k) <= mass[m] / 2.0 for m, k in kids.items())
    members = zip(F.members.tolist(), F.wavg[F.members].tolist())
    sum_value = sum(a**p * mass[q] for q, a in members)
    bound_value = 2.0 * p_prime**p * lp_norm(F.f, F.w, p) ** p
    return CarlesonReport(
        child_mass_ok, sum_value, bound_value, sum_value <= bound_value
    )


def bilinear_form_decompose(
    Sprime: SparseFamily, f2: GridFunction, h: GridFunction, pair: WeightPair
) -> tuple[float, float, float]:
    """Split the localized bilinear form along two stopping families.

    total sums, over the cubes of Sprime, the product of the s2-average of
    f2, the v-average of h, and lambda_Q = <s1>_Q <s2>_Q v(Q) for the
    pair's weights; <s2>_Q and v(Q) come from the two families' w-sums, so
    only s1 is pooled here.  Each term is routed by the pair of stopping
    parents (F2, H): terms with H inside F2 (equality included) land in
    I1, the rest in I2, so the two parts partition the sum exactly.  Both
    parents contain the term's cube, so they are nested, and H lies
    inside F2 exactly when it is not coarser.  Each part is a sequential
    sum in key order.
    """
    cfg = _same_grid(Sprime, f2, h, pair)
    up = family_forest(Sprime)
    if np.count_nonzero(up == len(up)) != 1:
        raise ValueError("family must have a single maximal cube")
    if float(f2.values.min()) < 0.0 or float(h.values.min()) < 0.0:
        raise ValueError("decomposition requires nonnegative f2 and h")
    fam2 = build_stopping(Sprime, f2, pair.s2)
    famh = build_stopping(Sprime, h, pair.v)
    cells = Sprime.cells
    lam = Sprime.sums(pair.s1) / cells * (fam2.wsum / cells) * (famh.wsum * cfg.cell_volume)
    terms = (fam2.wavg * famh.wavg * lam).tolist()
    inner = (Sprime.levels[famh.top] >= Sprime.levels[fam2.top]).tolist()
    i1 = i2 = total = 0.0
    for term, h_inside in zip(terms, inner):
        total += term
        if h_inside:
            i1 += term
        else:
            i2 += term
    return i1, i2, total
