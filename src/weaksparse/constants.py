"""Muckenhoupt-type constants over the finite dyadic family.

All suprema here range over the dyadic cubes of one grid only, so every
constant is an exact maximum with a witness cube.  The Fujii-Wilson
A_infty constant uses the dyadic maximal operator restricted to subcubes
of the outer cube; this is self-consistent with the dyadic A_p constants
but is a discretization choice, not an equivalence claim about the full
Hardy-Littlewood operator.

A pair's joint and A_{2p} constants start from its weights s1, s2 and v
(measure.pair_weights) and their per-level cube averages.  The per-level
maps read those averages, so a function that needs several constants of
one pair pools each weight once; ap_constant and apvec_constant pool
their own inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import (
    DyadicCube,
    GridConfig,
    cube_from_index,
    cube_sums,
    expand_level_values,
    level_averages,
)
from .measure import ExponentTuple, Weight, dual_weight, joint_weight, pair_weights


@dataclass(frozen=True)
class ConstantReport:
    """A constant together with the cube attaining the maximum."""

    value: float
    argmax_cube: DyadicCube


def _argmax_over_levels(per_level: list[np.ndarray], config: GridConfig) -> ConstantReport:
    """Max over all cubes, ties broken by enumeration order (level-major)."""
    best = -np.inf
    at = None
    for k, arr in enumerate(per_level):
        i = int(np.argmax(arr))
        v = float(arr[i])
        if v > best:
            best = v
            at = (k, i)
    witness = None if at is None else cube_from_index(*at, config.dimension)
    return ConstantReport(best, witness)


def _ap_report(aw: list[np.ndarray], p: float, config: GridConfig) -> ConstantReport:
    """[w]_{A_p} from aw, the level averages of w (aw[-1] holds w's cell values)."""
    ad = level_averages(aw[-1] ** (1.0 - p / (p - 1.0)), config)
    per_level = [x * y ** (p - 1.0) for x, y in zip(aw, ad)]
    return _argmax_over_levels(per_level, config)


def ap_constant(w: Weight, p: float) -> ConstantReport:
    """[w]_{A_p} = max over cubes of <w>_Q <w^{1-p'}>_Q^{p-1}."""
    if not 1.0 < p < np.inf:
        raise ValueError("p must be in (1, inf)")
    return _ap_report(level_averages(w.values, w.config), p, w.config)


def ainfty_constant(w: Weight) -> ConstantReport:
    """Fujii-Wilson constant max_Q (1/w(Q)) int_Q M(w chi_Q) dx.

    M is the dyadic maximal operator over subcubes of Q.  For each cell the
    maximal average over the ancestor chain between levels k and K is built
    by a running maximum swept from the finest level upward, so the whole
    two-parameter family of values costs O(N K).
    """
    cfg = w.config
    K = cfg.finest_level
    sums = cube_sums(w.values, cfg)
    averages = [sums[k] / cfg.cells_per_cube(k) for k in range(K + 1)]
    running = w.values.copy()  # level-K averages are the cell values
    per_level: list[np.ndarray] = [None] * (K + 1)
    per_level[K] = np.ones_like(sums[K])
    for k in range(K - 1, -1, -1):
        running = np.maximum(running, expand_level_values(averages[k], k, cfg))
        per_level[k] = cube_sums(running, cfg)[k] / sums[k]
    return _argmax_over_levels(per_level, cfg)


def _pair_averages(s1: Weight, s2: Weight, v: Weight) -> tuple[list, list, list]:
    """Level averages of v, s1 and s2 from pair_weights; a2 is a1 when s2 is s1."""
    cfg = v.config
    av = level_averages(v.values, cfg)
    a1 = level_averages(s1.values, cfg)
    a2 = a1 if s2 is s1 else level_averages(s2.values, cfg)
    return av, a1, a2


def _joint_per_level(av, a1, a2, P: ExponentTuple) -> list[np.ndarray]:
    """Per-cube values <v>_Q <s1>_Q^{p/p1'} <s2>_Q^{p/p2'} from the level averages."""
    e1 = P.p / P.p1_prime
    e2 = P.p / P.p2_prime
    return [x * y**e1 * z**e2 for x, y, z in zip(av, a1, a2)]


def _apvec_report(av, a1, a2, P: ExponentTuple, config: GridConfig) -> ConstantReport:
    """apvec_constant from the level averages of v, s1 and s2."""
    return _argmax_over_levels(_joint_per_level(av, a1, a2, P), config)


def apvec_constant(w1: Weight, w2: Weight, P: ExponentTuple) -> ConstantReport:
    """Joint two-weight constant: max over cubes of the product quantity."""
    return _apvec_report(*_pair_averages(*pair_weights(w1, w2, P)), P, w1.config)


def _apvec_power(apvec: float, exponent: float, name: str) -> float:
    """apvec ** exponent; an overflow names the joint constant and the exponent."""
    try:
        return apvec**exponent
    except OverflowError as e:
        raise OverflowError(
            f"the joint constant {apvec:.6g} raised to {name} = {exponent:.6g}"
        ) from e


@dataclass(frozen=True)
class InequalityReport:
    """Both sides of the dual/joint constant inequalities, with verdict."""

    apvec: float
    joint_ap: float
    sigma1_ap: float
    sigma2_ap: float
    joint_bound: float
    sigma1_bound: float
    sigma2_bound: float
    passed: bool


#: Relative slack of check_constant_inequalities' comparisons.
_RTOL = 1e-10


def check_constant_inequalities(
    w1: Weight, w2: Weight, P: ExponentTuple
) -> InequalityReport:
    """Check [v]_{A_{2p}} <= [w-pair] and [s_i]_{A_{2p_i'}} <= [w-pair]^{p_i'/p}.

    v, s1 and s2 are pooled once, for the joint constant and the three
    A_{2p} constants, and only their level averages are kept; when
    same_slots, sigma2_ap is sigma1_ap.
    """
    cfg = w1.config
    av, a1, a2 = _pair_averages(*pair_weights(w1, w2, P))
    apvec = _apvec_report(av, a1, a2, P, cfg).value
    joint_ap = _ap_report(av, 2.0 * P.p, cfg).value
    sigma1_ap = _ap_report(a1, 2.0 * P.p1_prime, cfg).value
    sigma2_ap = sigma1_ap if a2 is a1 else _ap_report(a2, 2.0 * P.p2_prime, cfg).value
    joint_bound = apvec
    sigma1_bound = _apvec_power(apvec, P.p1_prime / P.p, "p1'/p")
    sigma2_bound = _apvec_power(apvec, P.p2_prime / P.p, "p2'/p")
    ok = (
        joint_ap <= joint_bound * (1.0 + _RTOL)
        and sigma1_ap <= sigma1_bound * (1.0 + _RTOL)
        and sigma2_ap <= sigma2_bound * (1.0 + _RTOL)
    )
    return InequalityReport(
        apvec,
        joint_ap,
        sigma1_ap,
        sigma2_ap,
        joint_bound,
        sigma1_bound,
        sigma2_bound,
        ok,
    )


def dualize_first_entry(
    w1: Weight, w2: Weight, P: ExponentTuple
) -> tuple[Weight, Weight, ExponentTuple, float]:
    """Replace the first weight by the joint weight's dual v^(1-p').

    The transformed pair (v^(1-p'), w2) with exponents (p', p2) satisfies,
    cube by cube, joint-quantity(transformed) = joint-quantity(original)
    raised to p1'/p; this is exact algebra, so the returned maximum relative
    deviation across all cubes measures floating-point error only, and the
    constant identity follows by monotonicity of x -> x^{p1'/p}.  The two
    pairs share s2 = w2^(1-p2') and its level averages.
    """
    s1, s2, v = pair_weights(w1, w2, P)
    av, a1, a2 = _pair_averages(s1, s2, v)
    cfg = w1.config
    w1_new = Weight(cfg, v.values ** (1.0 - P.p_prime))
    P_new = ExponentTuple(P.p_prime, P.p2)
    power = P.p1_prime / P.p
    orig = _joint_per_level(av, a1, a2, P)
    new = _joint_per_level(
        level_averages(joint_weight(w1_new, w2, P_new).values, cfg),
        level_averages(dual_weight(w1_new, P_new.p1).values, cfg),
        a2,
        P_new,
    )
    err = 0.0
    for k in range(cfg.finest_level + 1):
        expected = orig[k] ** power
        err = max(err, float(np.max(np.abs(new[k] - expected) / expected)))
    return w1_new, w2, P_new, err


def reverse_holder_epsilon(sigma: Weight) -> float:
    """Self-improvement exponent 1 / (2^(11+n) [sigma]_{A_infty})."""
    n = sigma.config.dimension
    return 1.0 / (2.0 ** (11 + n) * ainfty_constant(sigma).value)


def reverse_holder_check(sigma: Weight) -> tuple[float, bool]:
    """Worst cube ratio <sigma^(1+eps)>_Q / <sigma>_Q^(1+eps); pass iff <= 2."""
    cfg = sigma.config
    eps = reverse_holder_epsilon(sigma)
    a1 = level_averages(sigma.values, cfg)
    a2 = level_averages(sigma.values ** (1.0 + eps), cfg)
    worst = 0.0
    for k in range(cfg.finest_level + 1):
        worst = max(worst, float(np.max(a2[k] / a1[k] ** (1.0 + eps))))
    return worst, worst <= 2.0
