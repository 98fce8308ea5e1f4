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
family (sparse.FamilyAtoms), so each family point evaluates all pairs at
once on those |S| + 1 atoms, with exact atom masses, instead of on the
2^{nK} cells.  The atom values equal the cellwise sparse_eval values bit
for bit; testing_conditions.global_weak_quantity and
global_strong_quantity, maximized over pairs, are the cellwise oracle.

Slopes use a plain least-squares fit over all points, no point dropping.
Set WSL_THREADS to a positive integer to evaluate family points in
parallel; results are gathered in delta order either way.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicCube, GridConfig
from .exponents import alpha
from .families import WeightFamilySpec, build_family
from .measure import (
    ExponentTuple,
    GridFunction,
    Weight,
    atom_norms,
    dual_weight,
    indicator,
    joint_weight,
    lp_norm,
)
from .sparse import FamilyAtoms, SparseFamily, family_atoms


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


def default_test_functions(
    config: GridConfig, seed: int, random_count: int = 8
) -> list[GridFunction]:
    """Left-interval indicators for every level plus seeded random functions."""
    fns = [
        indicator(config, DyadicCube(k, (0,) * config.dimension))
        for k in range(config.finest_level + 1)
    ]
    rng = np.random.default_rng(seed)
    for _ in range(random_count):
        fns.append(GridFunction(config, rng.uniform(0.0, 2.0, config.cell_count)))
    return fns


def thread_map(fn, items):
    """Map preserving order; WSL_THREADS > 1 enables a thread pool."""
    try:
        workers = int(os.environ.get("WSL_THREADS", "1"))
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError("WSL_THREADS must be a positive integer")
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(it) for it in items]


def _pair_sweep(
    atoms: FamilyAtoms,
    w1: Weight,
    w2: Weight,
    P: ExponentTuple,
    fns: list[GridFunction],
) -> tuple[float, float]:
    """Max weak and strong normalized quantities over all test-function pairs.

    Gathers each slot's cube averages once per test function, forms every
    pair image on the family atoms, and takes both norms there with the
    atom masses of the joint weight.  Equal, up to the order of the mass
    sums, to maximizing global_weak_quantity and global_strong_quantity,
    which evaluate one pair on the cells.
    """
    s1 = dual_weight(w1, P.p1)
    s2 = dual_weight(w2, P.p2)
    v = joint_weight(w1, w2, P)
    slot1 = [abs(f) * s1 for f in fns]
    slot2 = [abs(f) * s2 for f in fns]
    norms1 = np.array([lp_norm(f, s1, P.p1) for f in fns])
    norms2 = np.array([lp_norm(f, s2, P.p2) for f in fns])
    if not (norms1.all() and norms2.all()):
        raise ValueError("test functions must not vanish identically")
    g = atoms.images(
        np.array([atoms.coefficients(f) for f in slot1]),
        np.array([atoms.coefficients(f) for f in slot2]),
    )
    strong, weak = atom_norms(g, atoms.masses(v), P.p)
    scale = norms1[:, None] * norms2[None, :]
    return float((weak / scale).max()), float((strong / scale).max())


def slope_experiment(
    spec: WeightFamilySpec,
    P: ExponentTuple,
    config: GridConfig,
    S: SparseFamily,
    test_functions: list[GridFunction] | None = None,
    test_seed: int = 90210,
) -> SlopeResult:
    """Measure empirical weak/strong exponents along a weight family."""
    family = build_family(spec, P, config)
    if len(family) < 4:
        raise ValueError("family must have at least 4 points for a slope fit")
    constants = [row[3] for row in family]
    if np.ptp(np.log(constants)) < 1e-9:
        raise ValueError("no dynamic range")
    for prev, nxt in zip(constants, constants[1:]):
        if not nxt > prev:
            raise ValueError("family constants not strictly increasing")
    fns = test_functions or default_test_functions(config, test_seed)
    report = alpha(P)
    atoms = family_atoms(S)

    def measure(row):
        d, w1, w2, apv = row
        weak, strong = _pair_sweep(atoms, w1, w2, P, fns)
        return ExperimentRow(
            delta=d,
            apvec=apv,
            weak=weak,
            strong=strong,
            ratio_weak=weak / apv**report.alpha,
            ratio_strong=strong / apv**report.gamma,
        )

    rows = tuple(thread_map(measure, family))
    weak_slope = fit_loglog_slope([r.apvec for r in rows], [r.weak for r in rows])
    strong_slope = fit_loglog_slope(
        [r.apvec for r in rows], [r.strong for r in rows]
    )
    return SlopeResult(rows, weak_slope, strong_slope)
