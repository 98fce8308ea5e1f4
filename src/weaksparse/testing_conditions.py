"""Measured testing-condition quantities for the bilinear sparse operator.

Each function returns the exact value of one side (or the ratio of both
sides) of a weighted-norm inequality whose implicit constant is not
explicit in theory.  Ratios are therefore never asserted against a
theoretical number here; suites pin first-run values and watch for
growth trends instead.

global_weak_quantity and local_testing_quantity are the one-pair
definitions: each evaluates one test-function pair (and one family cube)
with sparse_eval and reduces on the 2^{nK} cells.  testing_sweep returns
both for every pair of a test set and every family cube at once.  It
evaluates the images on the family atoms (SparseFamily.images, the sweep
inside sparse_eval) from the family-cube sums (SparseFamily.sums), where
the data masked to a cube Q needs no new cube sums, and reduces each
quantity over the cells in the one-pair functions' order, so its values
equal theirs bit for bit; the one-pair functions are its test oracle.

Every quantity takes one constants.WeightPair, so s1, s2 and v are
derived once per pair, not per call.  The joint constant and the A_infty
constants are the pair's kept reports (WeightPair.apvec and .ainfty), so
calls on one pair, as for several f2, pool nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import _CHUNK_CELLS, WeightPair
from .dyadic import (
    DyadicCube,
    GridConfig,
    cell_view,
    check_cube,
)
from .measure import (
    ExponentTuple,
    GridFunction,
    _same_grid,
    _weak_max,
    lp_norm,
    weak_norm,
    weighted_measure,
)
from .sparse import SparseFamily, _check_localized, sparse_eval


@dataclass(frozen=True)
class TestingReport:
    """One measured inequality instance: lhs, constant-free rhs, their ratio."""

    lhs: float
    rhs_without_constant: float
    ratio: float
    context: str


def _make_report(lhs: float, rhs: float, context: str) -> TestingReport:
    ratio = lhs / rhs if rhs > 0.0 else float("nan")
    return TestingReport(lhs, rhs, ratio, context)


def _slot_norms(pair: WeightPair, f1: GridFunction, f2: GridFunction) -> float:
    """The norm product ||f1||_{L^{p1}(s1)} ||f2||_{L^{p2}(s2)}; raises if
    either norm is 0."""
    n1 = lp_norm(f1, pair.s1, pair.P.p1)
    n2 = lp_norm(f2, pair.s2, pair.P.p2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("test functions must not vanish identically")
    return n1 * n2


def _global_image(
    S: SparseFamily, pair: WeightPair, f1: GridFunction, f2: GridFunction
):
    """Sparse image of (|f1| s1, |f2| s2) and the norm product."""
    scale = _slot_norms(pair, f1, f2)
    return sparse_eval(S, abs(f1) * pair.s1, abs(f2) * pair.s2), scale


def _slot_powers(fns: list[GridFunction], config: GridConfig, P: ExponentTuple):
    """Cell values of a test set and |f|^{p_k} of each function, for _slot_sums.

    Returns (values, powers): values[a] is fns[a].values (not copied) and
    powers[k][a] = |fns[a]|^{p_k} for the slots k = 0, 1, one cell array per
    function and distinct exponent (the same list when p1 == p2), each
    allocated on its own for the reason given at constants._CHUNK_CELLS.
    A row of 0s and 1s is its own |f|^p for every p > 0 (0^p = 0,
    1^p = 1), so an indicator keeps values[a] in both slots and costs no
    array.  None of it depends on the weights, so a slope experiment
    builds it once for all of its weight pairs.  Raises for an empty test
    set and for a function on another grid than config.
    """
    if not fns:
        raise ValueError("test set must be nonempty")
    if any(f.config != config for f in fns):
        raise ValueError("grid mismatch")
    values = [f.values for f in fns]
    ones = [bool(((x == 0.0) | (x == 1.0)).all()) for x in values]

    def power(x: np.ndarray, p: float) -> np.ndarray:
        a = np.abs(x)
        return np.power(a, p, out=a)  # lp_norm's |f|^p

    def powers(p: float) -> list[np.ndarray]:
        return [x if one else power(x, p) for x, one in zip(values, ones)]

    first = powers(P.p1)
    return values, (first, first if P.p2 == P.p1 else powers(P.p2))


def _slot_sums(
    S: SparseFamily,
    pair: WeightPair,
    values: list[np.ndarray],
    powers: tuple[list[np.ndarray], list[np.ndarray]],
):
    """Slot norms and family-cube sums of every test function.

    values and powers come from _slot_powers.  norms[k, a] is the
    L^{p_k}(s_k) norm of test function a and sums[k, a] the sums of
    |f_a| s_k over the family cubes, for the slots k = 0, 1 with the dual
    weights s_k.  The rows go in chunks of _CHUNK_CELLS cells (one row when
    a row is wider).  Each row of a chunk holds |f|^p s, summed as lp_norm
    sums it, and then |f| s; the chunk's products are summed over the
    family cubes by SparseFamily.sums.  Both equal the per-function values
    bit for bit.  When s2 is s1, slot 1 is slot 0 (one dual weight, one
    pass over the rows) and its norms and sums are copied from slot 0.
    Besides powers, this holds one chunk, its cube-sum pyramid and the
    weights.  Raises for a pair off the family's grid before any work,
    then if a test function vanishes identically, then if a slot product
    is not finite (as GridFunction would).
    """
    _same_grid(S, pair)
    s1, s2, P = pair.s1, pair.s2, pair.P
    slots = ((s1, P.p1), (s2, P.p2))[: 1 if s2 is s1 else 2]
    count, cells = len(values), s1.config.cell_count
    rows = max(1, _CHUNK_CELLS // cells)
    chunk = np.empty((min(rows, count), cells))
    norms = np.empty((2, count))
    sums = np.empty((2, count, len(S)))
    finite = True
    for k, (s, p) in enumerate(slots):
        for lo in range(0, count, rows):
            part = chunk[: min(rows, count - lo)]
            for a, row in enumerate(part, lo):
                np.multiply(powers[k][a], s.values, out=row)
                norms[k, a] = (float(row.sum()) * s.config.cell_volume) ** (1.0 / p)
                np.multiply(np.abs(values[a], out=row), s.values, out=row)
            finite = finite and bool(np.isfinite(part).all())
            sums[k, lo : lo + rows] = S.sums(part)
    if len(slots) == 1:
        norms[1], sums[1] = norms[0], sums[0]
    if not norms.all():
        raise ValueError("test functions must not vanish identically")
    if not finite:
        raise ValueError("cell values must be finite")
    return norms, sums


def testing_sweep(
    S: SparseFamily, pair: WeightPair, fns: list[GridFunction]
) -> tuple[np.ndarray, np.ndarray]:
    """Global weak and local testing quantities of every test-function pair.

    glob[a, b] == global_weak_quantity(S, pair, fns[a], fns[b]) and
    loc[a, b, i] == local_testing_quantity(S, pair, fns[a], fns[b],
    S.cubes[i]), bit for bit.  The data masked to Q = S.cubes[i] keeps the
    cube sums of the cubes inside Q, and every coarser cube that meets Q
    contains it, so its halving-tree sum is Q's own (the other terms are
    exact zeros).  A coarser cube disjoint from Q gets a wrong coefficient
    too, but it only reaches atoms outside Q, which are never read.

    Raises for a pair off S's grid first, then the cellwise functions'
    errors for a vanishing test function and a non-finite image.  Holds
    len(fns)^2 (len(S) + 1)^2 atom values, and |f|^{p_k} of every test
    function on the cells (_slot_powers).
    """
    cfg, labels = S.config, S.paint[0]
    P, v = pair.P, pair.v
    norms, sums = _slot_sums(S, pair, *_slot_powers(fns, pair.config, P))
    coarser = S.cells[None, :] > S.cells[:, None]  # [i, j]: cube j coarser than cube i
    masked = np.where(coarser, sums[..., :, None], sums[..., None, :])
    c = np.concatenate([sums[..., None, :], masked], axis=-2) / S.cells
    # [a, b, 0] are the global images, [a, b, 1 + i] those masked to cube i
    images = S.images(c[0][:, None] * c[1][None, :])
    scale = norms[0][:, None] * norms[1][None, :]
    cells = images[:, :, 0][..., labels]
    if not np.isfinite(cells).all():
        raise ValueError("cell values must be finite")
    glob = _weak_max(cells, v.values, P.p, cfg.cell_volume) / scale
    # each masked image is at most the global one on Q's cells, so it is finite
    loc = np.empty(scale.shape + (len(S),))
    for i, q in enumerate(S.cubes):
        cells = images[:, :, 1 + i][..., cell_view(labels, q, cfg)]
        cells *= cell_view(v.values, q, cfg)
        denom = weighted_measure(v, q) ** (1.0 / P.p_prime)
        for a, b in np.ndindex(scale.shape):
            num = float(cells[a, b].sum()) * cfg.cell_volume  # the oracle's order
            loc[a, b, i] = num / (scale[a, b] * denom)
    return glob, loc


def global_weak_quantity(
    S: SparseFamily, pair: WeightPair, f1: GridFunction, f2: GridFunction
) -> float:
    """Weak norm of the sparse image of (|f1| s1, |f2| s2) over the product norms."""
    g, scale = _global_image(S, pair, f1, f2)
    return weak_norm(g, pair.v, pair.P.p) / scale


def global_strong_quantity(
    S: SparseFamily, pair: WeightPair, f1: GridFunction, f2: GridFunction
) -> float:
    """Same normalization with the strong L^p(v) norm on top."""
    g, scale = _global_image(S, pair, f1, f2)
    return lp_norm(g, pair.v, pair.P.p) / scale


def local_testing_quantity(
    S: SparseFamily,
    pair: WeightPair,
    f1: GridFunction,
    f2: GridFunction,
    q: DyadicCube,
) -> float:
    """Localized testing integral at a family cube q, fully normalized.

    Integrates the sparse image of the q-masked data against v over q and
    divides by the product norms times v(q)^(1/p').
    """
    if q not in S:
        raise ValueError("testing cube must belong to the family")
    scale = _slot_norms(pair, f1, f2)
    s1, s2, v = pair.s1, pair.s2, pair.v
    g = sparse_eval(S, (abs(f1) * s1).restricted(q), (abs(f2) * s2).restricted(q))
    cfg = S.config
    num = float(
        (cell_view(g.values, q, cfg) * cell_view(v.values, q, cfg)).sum()
    ) * cfg.cell_volume
    return num / (scale * weighted_measure(v, q) ** (1.0 / pair.P.p_prime))


def local_sigma_testing_ratio(
    S: SparseFamily, pair: WeightPair, f2: GridFunction, qt: DyadicCube
) -> TestingReport:
    """Localized bound with the first slot saturated by the dual weight.

    lhs: L^p(v) norm over qt of the sparse image of (s1 masked to qt, |f2| s2).
    rhs (constant-free): the A_infty mixed factor times apvec^(1/p) times
    ||f2||_{L^{p2}(s2)} times s1(qt)^(1/p1), from the pair's kept joint and
    A_infty reports (apvec, ainfty).  Raises for f2 or the pair off S's grid first.
    """
    cfg = _same_grid(S, f2, pair)
    check_cube(qt, cfg)
    P, s1, s2, v = pair.P, pair.s1, pair.s2, pair.v
    if float(f2.values.min()) < 0.0:
        raise ValueError("f2 must be nonnegative")
    _check_localized(f2, qt)
    n2 = lp_norm(f2, s2, P.p2)
    if n2 == 0.0:
        raise ValueError("f2 must not vanish identically")
    g = sparse_eval(S, s1.restricted(qt), abs(f2) * s2)
    lhs = lp_norm(g.restricted(qt), v, P.p)
    a1, a2, av = (report.value for report in pair.ainfty)
    mixed = max(min(a1, a2) ** (1.0 / P.p), min(a1, av) ** (1.0 / P.p2_prime))
    rhs = (
        mixed
        * pair.apvec.value ** (1.0 / P.p)
        * n2
        * weighted_measure(s1, qt) ** (1.0 / P.p1)
    )
    ctx = f"S={len(S)} cubes, qt={qt}, P=({P.p1:g},{P.p2:g})"
    return _make_report(lhs, rhs, ctx)


def sparse_sum_norm_ratios(
    S: SparseFamily, pair: WeightPair
) -> tuple[TestingReport, TestingReport]:
    """Norms of the two aggregate sparse sums against their Carleson bounds.

    First: L^p(v) norm of sum <s1>_Q <s2>_Q chi_Q versus
    apvec^(1/p) (sum <s1>_Q^{p/p1} <s2>_Q^{p/p2} |Q|)^{1/p}.
    Second: L^{p2'}(s2) norm of sum <s1>_Q <v>_Q chi_Q versus
    apvec^(1/p) (sum <s1>_Q^{p2'/p1} <v>_Q^{p2'/p'} |Q|)^{1/p2'}.  Raises
    for the pair off S's grid before reading its level averages.
    """
    _same_grid(S, pair)
    P, s1, s2, v = pair.P, pair.s1, pair.s2, pair.v
    av, a1, a2 = v.averages, s1.averages, s2.averages
    apv = pair.apvec.value

    carleson1 = carleson2 = 0.0
    for k, _, index in S._levels:
        vol = 2.0 ** (-S.config.dimension * k)  # DyadicCube.volume
        for i in index.tolist():
            carleson1 += a1[k][i] ** (P.p / P.p1) * a2[k][i] ** (P.p / P.p2) * vol
            carleson2 += (
                a1[k][i] ** (P.p2_prime / P.p1)
                * av[k][i] ** (P.p2_prime / P.p_prime)
                * vol
            )
    lhs1 = lp_norm(sparse_eval(S, s1, s2), v, P.p)
    rhs1 = apv ** (1.0 / P.p) * carleson1 ** (1.0 / P.p)
    lhs2 = lp_norm(sparse_eval(S, s1, v), s2, P.p2_prime)
    rhs2 = apv ** (1.0 / P.p) * carleson2 ** (1.0 / P.p2_prime)
    ctx = f"S={len(S)} cubes, P=({P.p1:g},{P.p2:g})"
    return _make_report(lhs1, rhs1, ctx), _make_report(lhs2, rhs2, ctx)
