"""Muckenhoupt-type constants over the finite dyadic family.

All suprema here range over the dyadic cubes of one grid only, so every
constant is an exact maximum with a witness cube.  The Fujii-Wilson
A_infty constant uses the dyadic maximal operator restricted to subcubes
of the outer cube; this is self-consistent with the dyadic A_p constants
but is a discretization choice, not an equivalence claim about the full
Hardy-Littlewood operator.

Each constant is one walk over the levels, from the finest to the
coarsest, that reduces every level to its maximum as soon as the level is
computed, so no constant holds the per-cube values of all levels at once.
_LevelMax is the one reduction of every walk here, and it refuses a level
whose maximum is not finite (cube sums or joint products that overflow).
A_infty and A_p pool what they need one sibling halving at a time:
A_infty the weight's sums and its running maximal averages, A_p the dual
power w^{1-p'}, and neither keeps its pooling.  The joint constant walks
the kept level averages (_joint_levels), filling each level chunk by
chunk, and dualize_first_entry compares two such walks level by level.

A pair's joint and A_{2p} constants start from its weights s1, s2 and v
and their per-level cube averages.  pair_weights derives the three once,
into a WeightPair that every constant and testing quantity takes and
that keeps its joint and A_infty reports once read.  Each weight pools
its averages once (measure.Weight.averages), so all constants of one pair
and of its dual pair (dualize_first_entry), which shares s2, pool each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import (
    DyadicCube, GridConfig, _blocks, _halve, _per_cube, cube_from_index, level_averages
)
from .measure import ExponentTuple, Weight, _conjugate, dual_weight, joint_weight, same_slots

#: Cells per chunk of the chunked cell sweeps: the joint constant's levels
#: and _slot_sums' test-function rows (at least one row).  2^15 cells
#: (256 KB) ran the K = 14 slope experiment 1.15x faster than 2^14.
#: Larger chunks ran faster still, but once a block over 512 KB is freed
#: glibc raises its mmap threshold for the rest of the process, and numpy
#: code there that allocates 512 KB temporaries then ran 25 % faster than
#: after an experiment that freed no such block.
_CHUNK_CELLS = 1 << 15


@dataclass(frozen=True)
class ConstantReport:
    """A constant together with the cube attaining the maximum, kept as its
    (level, index) on a grid of that dimension and built on first read."""

    value: float
    at: tuple[int, int]
    dimension: int

    @cached_property
    def argmax_cube(self) -> DyadicCube:
        return cube_from_index(*self.at, self.dimension)


class _LevelMax:
    """Maximum of `name` over the cubes of the levels offered, finest first.

    Each level is reduced to its first maximal cube at once (np.argmax,
    which stops at a NaN); a level whose maximum is inf or NaN is refused.
    A later level is coarser, so an equal maximum replaces the witness: it
    is the first maximal cube in enumeration order (level-major).
    """

    def __init__(self, name: str):
        self.name, self.value, self.at = name, -np.inf, None

    def offer(self, level: int, values: np.ndarray) -> None:
        i = int(np.argmax(values))
        v = float(values[i])
        if not np.isfinite(v):
            raise ValueError(f"{self.name} at level {level} is not finite")
        if v >= self.value:
            self.value, self.at = v, (level, i)

    def report(self, config: GridConfig) -> ConstantReport:
        return ConstantReport(self.value, self.at, config.dimension)


def ap_constant(w: Weight, p: float) -> ConstantReport:
    """[w]_{A_p} = max over cubes of <w>_Q <w^{1-p'}>_Q^{p-1}.

    Reads w's kept level averages.  Those of w^{1-p'} are pooled one level
    at a time from the finest to the coarsest, and each level is turned
    into its values in place, so none of them is kept.
    """
    cfg = w.config
    best = _LevelMax("A_p constant")
    dual = w.values ** (1.0 - _conjugate(p))  # the level-K sums of w^{1-p'}
    for k in range(cfg.finest_level, -1, -1):
        coarser = _halve(dual, cfg.dimension) if k else None
        dual /= cfg.cells_per_cube(k)
        dual **= p - 1.0
        dual *= w.averages[k]
        best.offer(k, dual)
        dual = coarser
    return best.report(cfg)


def ainfty_constant(w: Weight) -> ConstantReport:
    """Fujii-Wilson constant max_Q (1/w(Q)) int_Q M(w chi_Q) dx.

    M is the dyadic maximal operator over subcubes of Q.  For each cell the
    maximal average over the ancestor chain between levels k and K is kept
    in one running array, raised in place level by level from the finest to
    the coarsest; at level k it is pooled down to level k only and divided
    by the weight's level-k sums, so the whole two-parameter family of
    values costs O(N K) time and under three cell arrays of memory.
    """
    cfg = w.config
    K, n = cfg.finest_level, cfg.dimension
    best = _LevelMax("A_infty constant")
    best.offer(K, np.ones(1))  # on a finest cube M(w chi_Q) = w: every one reads 1
    sums = w.values
    running = w.values.copy()  # level-K averages are the cell values
    for k in range(K - 1, -1, -1):
        sums = _halve(sums, n)
        blocks = _blocks(running, k, cfg)
        np.maximum(blocks, _per_cube(sums / cfg.cells_per_cube(k), k, cfg), out=blocks)
        pooled = running
        for _ in range(K - k):
            pooled = _halve(pooled, n)
        pooled /= sums
        best.offer(k, pooled)
    return best.report(cfg)


@dataclass(frozen=True, eq=False)
class WeightPair:
    """A weight pair (w1, w2) at exponents P with the weights it enters
    every estimate through: the duals s_i = w_i^(1-p_i') and the joint
    weight v = w1^(p/p1) w2^(p/p2).  s2 is s1 on the diagonal (same_slots).
    Its joint constant (apvec) and A_infty reports (ainfty) are kept once read.
    """

    w1: Weight
    w2: Weight
    P: ExponentTuple
    s1: Weight
    s2: Weight
    v: Weight

    @property
    def config(self) -> GridConfig:
        return self.w1.config

    @cached_property
    def apvec(self) -> ConstantReport:
        return apvec_constant(self)

    @cached_property
    def ainfty(self) -> tuple[ConstantReport, ConstantReport, ConstantReport]:
        """ainfty_constant of s1, s2 and v; the s2 report is s1's when s2 is s1."""
        a1 = ainfty_constant(self.s1)
        a2 = a1 if self.s2 is self.s1 else ainfty_constant(self.s2)
        return a1, a2, ainfty_constant(self.v)


def pair_weights(w1: Weight, w2: Weight, P: ExponentTuple) -> WeightPair:
    """The WeightPair of (w1, w2) at P, the one derivation of s1, s2 and v.

    Raises "grid mismatch" first, from joint_weight; s2 is s1 when same_slots.
    """
    v = joint_weight(w1, w2, P)
    s1 = dual_weight(w1, P.p1)
    s2 = s1 if same_slots(w1, w2, P) else dual_weight(w2, P.p2)
    return WeightPair(w1, w2, P, s1, s2, v)


def _joint_levels(pair: WeightPair):
    """(k, values) of the per-cube <v>_Q <s1>_Q^{p/p1'} <s2>_Q^{p/p2'} from the
    kept level averages, from level K down to 0: one fresh array per level,
    which the caller may overwrite, filled chunk by chunk so its temporaries
    stay at two chunks.  When s2 is s1 at p1 = p2 the shared averages are
    raised once: (x t) t equals x t^{e1} t^{e2} bit for bit."""
    e1 = pair.P.p / pair.P.p1_prime
    e2 = pair.P.p / pair.P.p2_prime
    shared = pair.s2 is pair.s1 and e2 == e1
    for k in range(pair.config.finest_level, -1, -1):
        x, y, z = pair.v.averages[k], pair.s1.averages[k], pair.s2.averages[k]
        out = np.empty_like(x)
        with np.errstate(over="ignore"):  # _LevelMax refuses inf; never open across the yield
            for lo in range(0, x.size, _CHUNK_CELLS):
                c = slice(lo, lo + _CHUNK_CELLS)
                t = y[c] ** e1
                part = np.multiply(x[c], t, out=out[c])
                part *= t if shared else z[c] ** e2
        yield k, out


def apvec_constant(pair: WeightPair) -> ConstantReport:
    """Joint two-weight constant: max over cubes of the product quantity."""
    best = _LevelMax("joint constant")
    for k, values in _joint_levels(pair):
        best.offer(k, values)
    return best.report(pair.config)


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


def check_constant_inequalities(pair: WeightPair) -> InequalityReport:
    """Check [v]_{A_{2p}} <= [w-pair] and [s_i]_{A_{2p_i'}} <= [w-pair]^{p_i'/p}.

    The joint constant (pair.apvec) and the three A_{2p} constants read the
    level averages of v, s1 and s2; when s2 is s1, sigma2_ap is sigma1_ap.
    """
    P, s1, s2 = pair.P, pair.s1, pair.s2
    apvec = pair.apvec.value
    joint_ap = ap_constant(pair.v, 2.0 * P.p).value
    sigma1_ap = ap_constant(s1, 2.0 * P.p1_prime).value
    sigma2_ap = sigma1_ap if s2 is s1 else ap_constant(s2, 2.0 * P.p2_prime).value
    joint_bound = apvec
    sigma1_bound = _apvec_power(apvec, P.p1_prime / P.p, "p1'/p")
    sigma2_bound = _apvec_power(apvec, P.p2_prime / P.p, "p2'/p")
    ok = (
        joint_ap <= joint_bound * (1.0 + _RTOL)
        and sigma1_ap <= sigma1_bound * (1.0 + _RTOL)
        and sigma2_ap <= sigma2_bound * (1.0 + _RTOL)
    )
    return InequalityReport(
        apvec, joint_ap, sigma1_ap, sigma2_ap, joint_bound, sigma1_bound, sigma2_bound, ok
    )


def dualize_first_entry(pair: WeightPair) -> tuple[WeightPair, float]:
    """Replace the first weight by the joint weight's dual v^(1-p').

    The transformed pair (v^(1-p'), w2) with exponents (p', p2) satisfies,
    cube by cube, joint-quantity(transformed) = joint-quantity(original)
    raised to p1'/p; this is exact algebra, so the returned maximum relative
    deviation across all cubes measures floating-point error only, and the
    constant identity follows by monotonicity of x -> x^{p1'/p}.  The
    transformed pair holds the original's s2 = w2^(1-p2'), the same object,
    so s2 and its level averages serve both pairs.
    """
    P, w2 = pair.P, pair.w2
    w1_new = dual_weight(pair.v, P.p)
    P_new = ExponentTuple(P.p_prime, P.p2)
    v_new = joint_weight(w1_new, w2, P_new)
    dual = WeightPair(w1_new, w2, P_new, dual_weight(w1_new, P_new.p1), pair.s2, v_new)
    power = P.p1_prime / P.p
    worst = _LevelMax("dual transform deviation")
    for (k, expected), (_, new) in zip(_joint_levels(pair), _joint_levels(dual)):
        expected **= power
        new -= expected
        np.abs(new, out=new)
        new /= expected
        worst.offer(k, new)
    return dual, worst.value


def reverse_holder_epsilon(sigma: Weight) -> float:
    """Self-improvement exponent 1 / (2^(11+n) [sigma]_{A_infty})."""
    n = sigma.config.dimension
    return 1.0 / (2.0 ** (11 + n) * ainfty_constant(sigma).value)


def reverse_holder_check(sigma: Weight) -> tuple[float, bool]:
    """Worst cube ratio <sigma^(1+eps)>_Q / <sigma>_Q^(1+eps); pass iff <= 2.
    Jensen's inequality puts every ratio at 1 or above; _LevelMax refuses a
    level whose ratio is not finite (overflowing cube sums give inf/inf)."""
    cfg = sigma.config
    eps = reverse_holder_epsilon(sigma)
    a1 = sigma.averages
    a2 = level_averages(sigma.values ** (1.0 + eps), cfg)
    worst = _LevelMax("reverse Hoelder ratio")
    for k in range(cfg.finest_level, -1, -1):
        worst.offer(k, a2[k] / a1[k] ** (1.0 + eps))
    return worst.value, worst.value <= 2.0
