"""The exponent slope experiment.

For each family point the measured weak and strong quantities are the
maxima of the normalized operator ratios over a deterministic test set:
indicators of the left dyadic intervals (aligned with the power-weight
singularity at 0) plus seeded random nonnegative functions, with the
two operator slots ranging over the set independently.  Fitting log
quantity against log joint-constant gives an empirical exponent; theory
provides an upper envelope, so only one-sided comparisons against the
predicted exponents are meaningful.

Every pair image sum_Q <g1>_Q <g2>_Q 1_Q is constant on the atoms of the
family, so each family point evaluates all pairs at once on those
|S| + 1 atoms (SparseFamily.images), with exact atom masses
(SparseFamily.masses), instead of on the 2^{nK} cells.  The atom values
are sparse_eval's cell values bit for bit;
testing_conditions.global_weak_quantity and global_strong_quantity,
maximized over pairs, are the cellwise oracle.

The test functions do not change with the weights, so |f|^{p_k} is
computed once per experiment: one cell array per test function and
distinct exponent (testing_conditions._slot_powers), the memory that
grows with the test set; an indicator is its own power and adds none.
Each family point then walks the functions in row chunks of 2^15 cells,
forming the slot norms and the products |f| s_k chunk by chunk and
gathering the family-cube sums level by level (SparseFamily.sums), with
the per-function values bit for bit.  A family on another grid than the
weights raises "grid mismatch" before the first sweep, even when the two
grids have the same number of cells.

Each family point's weights are the one constants.WeightPair that
families.build_family yields for it: read for its joint constant, swept
and dropped.  The point count is checked before the first pair is built,
the kept constants after the sweep.  On the diagonal p1 = p2 the power
family gives both slots one weight object, so its pair has s2 is s1,
which tells every step below that slot 1 is slot 0: one dual weight, one
pass of slot sums, and only the pairs a <= b, whose maxima are those of
all pairs bit for bit.

Slopes use a plain least-squares fit over all points, no point dropping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import WeightPair, _apvec_power
from .dyadic import DyadicCube, GridConfig
from .exponents import alpha
from .families import WeightFamilySpec, build_family
from .measure import ExponentTuple, GridFunction, atom_norms, indicator
from .sparse import SparseFamily
from .testing_conditions import _slot_powers, _slot_sums


@dataclass(frozen=True)
class ExperimentRow:
    delta: float
    apvec: float
    weak: float
    strong: float
    ratio_weak: float
    ratio_strong: float


@dataclass(frozen=True)
class SlopeResult:
    rows: tuple[ExperimentRow, ...]
    weak_slope: float
    strong_slope: float


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    return float(np.polyfit(lx, ly, 1)[0])


#: Seed of slope_experiment's default test set.
_TEST_SEED = 90210


def default_test_functions(config: GridConfig, seed: int) -> list[GridFunction]:
    """Left-interval indicators for every level plus 8 seeded random functions."""
    fns = [
        indicator(config, DyadicCube(k, (0,) * config.dimension))
        for k in range(config.finest_level + 1)
    ]
    rng = np.random.default_rng(seed)
    for _ in range(8):
        fns.append(GridFunction(config, rng.uniform(0.0, 2.0, config.cell_count)))
    return fns


def _pair_sweep(
    S: SparseFamily,
    pair: WeightPair,
    values: list[np.ndarray],
    powers: tuple[list[np.ndarray], list[np.ndarray]],
) -> tuple[float, float]:
    """Max weak and strong normalized quantities over all test-function pairs.

    values and powers are the test set from _slot_powers, built once per
    experiment; the weights change from call to call.  Gathers each slot's
    family-cube sums once per test function (in row chunks, _slot_sums),
    forms the pair images on the family atoms, and takes both norms there
    with the atom masses of the joint weight.  Equal, up to the order of
    the mass sums, to maximizing global_weak_quantity and
    global_strong_quantity, which evaluate one pair on the cells.

    When s2 is s1, the pair (b, a) has the image and the scale of (a, b)
    bit for bit (c[a] c[b] and c[b] c[a] are one IEEE product, and each
    image and norm is formed on its own), so only the pairs a <= b are
    evaluated; otherwise all of them.  Holds one chunk of cell values
    besides powers, and (len(S) + 1) atom values per evaluated pair.
    """
    norms, sums = _slot_sums(S, pair, values, powers)
    count = len(values)
    if pair.s2 is pair.s1:
        a, b = np.triu_indices(count)
    else:
        a, b = np.indices((count, count)).reshape(2, -1)
    c1, c2 = sums / S.cells
    g = S.images(c1[a] * c2[b])
    if not np.isfinite(g).all():
        raise ValueError("cell values must be finite")
    strong, weak = atom_norms(g, S.masses(pair.v), pair.P.p)
    scale = norms[0][a] * norms[1][b]
    return float((weak / scale).max()), float((strong / scale).max())


def slope_experiment(
    spec: WeightFamilySpec,
    P: ExponentTuple,
    config: GridConfig,
    S: SparseFamily,
    test_functions: list[GridFunction] | None = None,
) -> SlopeResult:
    """Measure empirical weak/strong exponents along a weight family; each
    point's pair is swept and dropped.  A family of fewer than 4 points is
    refused before any pair is built, the constants are checked after."""
    if len(spec.deltas) < 4:
        raise ValueError("family must have at least 4 points for a slope fit")
    if test_functions is None:
        test_functions = default_test_functions(config, _TEST_SEED)
    values, powers = _slot_powers(test_functions, config, P)
    points = []
    for d, pair in build_family(spec, P, config):
        points.append((d, pair.apvec.value, *_pair_sweep(S, pair, values, powers)))
        del pair  # the next point's weights replace these, not join them
    constants = [apv for _, apv, _, _ in points]
    if np.ptp(np.log(constants)) < 1e-9:
        raise ValueError("no dynamic range")
    if not all(nxt > prev for prev, nxt in zip(constants, constants[1:])):
        raise ValueError("family constants not strictly increasing")
    report = alpha(P)
    rows = [
        ExperimentRow(
            delta=d,
            apvec=apv,
            weak=weak,
            strong=strong,
            ratio_weak=weak / _apvec_power(apv, report.alpha, "alpha"),
            ratio_strong=strong / _apvec_power(apv, report.gamma, "gamma"),
        )
        for d, apv, weak, strong in points
    ]
    weak_slope = fit_loglog_slope(constants, [r.weak for r in rows])
    strong_slope = fit_loglog_slope(constants, [r.strong for r in rows])
    return SlopeResult(tuple(rows), weak_slope, strong_slope)
