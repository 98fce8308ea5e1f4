"""Stopping-time families over a sparse family and their Carleson bounds.

Given a nonnegative f, a weight w, and a sparse family S with maximal
cubes, generation 0 consists of the maximal cubes and each later
generation collects, inside each selected cube F, the maximal cubes of S
whose w-average of f strictly more than doubles the average on F.  On a
finite grid the recursion terminates because averages strictly increase
along chains and levels strictly increase with each generation.

The recursion is one pass over the family cubes in the enumeration order
they are held in, where every cube comes after the cubes containing it.
Each cube's minimal strict ancestor comes from sparse.family_forest and
its average from SparseFamily.sums; the cube is selected when it is
maximal or when its average strictly more than doubles that of its
ancestor's stopping parent, and otherwise inherits that stopping parent.
So no family cube is walked through parent or relation; only
stopping_parent of a cube outside the family climbs with parent to the
nearest family cube.

The strict doubling threshold 2 is hard-coded.  Two consequences are
checked downstream: each generation loses at least half the w-mass of
its parent, and summing (average)^p w(F) over the family is controlled
by the L^p(w) norm of f through the Carleson embedding with the dyadic
Doob maximal bound, giving the pinned test constant 2 (p')^p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicCube, GridConfig, parent
from .measure import GridFunction, Weight, lp_norm
from .sparse import SparseFamily, family_forest


@dataclass
class StoppingFamily:
    """Selected cubes with generations, stopping children, and cached averages.

    generation and children are keyed by the members (the selected cubes);
    children[F] lists the next generation inside F in enumeration order.
    wavg and top are keyed by every family cube q: the w-average of f on q
    and q's stopping parent, the minimal member containing q.
    """

    config: GridConfig
    members: frozenset[DyadicCube]
    generation: dict[DyadicCube, int]
    children: dict[DyadicCube, tuple[DyadicCube, ...]]
    maximal: tuple[DyadicCube, ...]
    wavg: dict[DyadicCube, float] = field(repr=False)
    top: dict[DyadicCube, DyadicCube] = field(repr=False)


def _averages(S: SparseFamily, f: GridFunction, w: Weight) -> tuple[np.ndarray, np.ndarray]:
    """w-averages of f on the cubes of S, and their w-sums."""
    den = S.sums(w)
    return S.sums(f * w) / den, den


def build_stopping(S: SparseFamily, f: GridFunction, w: Weight) -> StoppingFamily:
    """Construct the stopping family of (f, w) over S; f must be nonnegative."""
    if len(S) == 0:
        raise ValueError("sparse family is empty")
    if f.config != S.config or w.config != S.config:
        raise ValueError("grid mismatch")
    if float(f.values.min()) < 0.0:
        raise ValueError("stopping construction requires nonnegative f")
    cubes, up = S.cubes, family_forest(S)
    avg = _averages(S, f, w)[0].tolist()
    n = len(cubes)
    top = list(range(n))
    generation: dict[DyadicCube, int] = {}
    children: dict[DyadicCube, list[DyadicCube]] = {}
    for j, u in enumerate(up.tolist()):  # u < j, so top[u] is already final
        q = cubes[j]
        if u == n:
            generation[q] = 0
        elif avg[j] > 2.0 * avg[top[u]]:
            F = cubes[top[u]]
            generation[q] = generation[F] + 1
            children[F].append(q)
        else:
            top[j] = top[u]
            continue
        children[q] = []
    return StoppingFamily(
        config=S.config,
        members=frozenset(generation),
        generation=generation,
        children={F: tuple(kids) for F, kids in children.items()},
        maximal=tuple(q for q, g in generation.items() if g == 0),
        wavg=dict(zip(cubes, avg)),
        top={q: cubes[t] for q, t in zip(cubes, top)},
    )


def stopping_parent(F: StoppingFamily, q: DyadicCube) -> DyadicCube:
    """Minimal family member containing q (q itself when q is a member)."""
    a = q
    while True:
        if a in F.top:
            return F.top[a]
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
    2 (p')^p ||f||_{L^p(w)}^p.  Raises for f or w off F's grid first.
    """
    cfg = F.config
    if f.config != cfg or w.config != cfg:
        raise ValueError("grid mismatch")
    if not 1.0 < p < np.inf:
        raise ValueError("p must be in (1, inf)")
    members = SparseFamily(cfg, F.members)
    avg, wsums = _averages(members, f, w)
    mass = dict(zip(members, (wsums * cfg.cell_volume).tolist()))
    child_mass_ok = True
    for member in members:
        kids = F.children.get(member, ())
        if kids and sum(mass[c] for c in kids) > mass[member] / 2.0:
            child_mass_ok = False
            break
    sum_value = sum(a**p * m for a, m in zip(avg.tolist(), mass.values()))
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
    parts partition the sum exactly.  Both parents contain the term's cube,
    so they are nested, and H lies inside F2 exactly when it is not coarser.
    """
    cfg = Sprime.config
    for g in (f2, h, sigma2, v, sigma1):
        if g.config != cfg:
            raise ValueError("grid mismatch")
    up = family_forest(Sprime)
    if np.count_nonzero(up == len(up)) != 1:
        raise ValueError("family must have a single maximal cube")
    if float(f2.values.min()) < 0.0 or float(h.values.min()) < 0.0:
        raise ValueError("decomposition requires nonnegative f2 and h")
    fam2 = build_stopping(Sprime, f2, sigma2)
    famh = build_stopping(Sprime, h, v)
    lam = (
        (Sprime.sums(sigma1) / Sprime.cells)
        * (Sprime.sums(sigma2) / Sprime.cells)
        * (Sprime.sums(v) * cfg.cell_volume)
    )
    i1 = 0.0
    i2 = 0.0
    total = 0.0
    for q, lam_q in zip(Sprime.cubes, lam.tolist()):
        term = fam2.wavg[q] * famh.wavg[q] * lam_q
        total += term
        if famh.top[q].level >= fam2.top[q].level:
            i1 += term
        else:
            i2 += term
    return i1, i2, total
