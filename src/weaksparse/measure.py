"""Step functions, weights, and exact norms on a dyadic grid.

Everything here is piecewise constant on the finest cells, so every
integral is a plain sum times the cell volume and every norm below is
exact up to float rounding; no quadrature error enters any check.

Conventions.
  * Every object on a grid (GridFunction, Weight, SparseFamily,
    StoppingFamily) names it in .config.  _same_grid is the one grid
    check: it returns the shared grid or raises "grid mismatch" at the
    first argument on another one.
  * A GridFunction stores one float per finest cell in lexicographic
    cell order; values are finite.
  * A Weight is a GridFunction with strictly positive values, so dual
    weights w^(1-p') and weighted averages never hit a division by zero
    or 0 to a negative power.
  * ExponentTuple holds a Hoelder pair (p1, p2) with 1 < p1, p2 < inf
    and derived p from 1/p = 1/p1 + 1/p2, restricted to p > 1.
  * A weight pair (w1, w2) at exponents P enters every estimate through
    three weights: the duals s_i = w_i^(1-p_i') and the joint weight
    v = w1^(p/p1) w2^(p/p2).  constants.pair_weights derives them once,
    into a WeightPair; on the diagonal (same_slots) s2 is s1.  Each
    Weight pools its per-level cube averages once and keeps them.
  * The weak L^p quasi-norm is computed as an exact maximum: for a step
    function the map t -> t * w({|f| >= t})^(1/p) is increasing between
    jumps of the distribution function, so the supremum is attained at
    a value of |f|.  One kernel, _weak_max, takes that maximum; weak_norm
    (on cells), atom_norms (on atoms) and kolmogorov_check (weak L^1
    under the normalized counting measure) call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicCube, GridConfig, cell_view, check_cube, level_averages


class GridFunction:
    """Real-valued step function on the finest cells; immutable after init."""

    __slots__ = ("config", "values")

    def __init__(self, config: GridConfig, values):
        arr = np.array(values, dtype=np.float64, copy=True).ravel()
        if arr.shape != (config.cell_count,):
            raise ValueError(
                f"expected {config.cell_count} cell values, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("cell values must be finite")
        arr.flags.writeable = False
        self.config = config
        self.values = arr

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            return GridFunction(_same_grid(self, other), self.values * other.values)
        return GridFunction(self.config, self.values * float(other))

    __rmul__ = __mul__

    def __abs__(self):
        return GridFunction(self.config, np.abs(self.values))

    def restricted(self, q: DyadicCube) -> "GridFunction":
        """Zero outside q, unchanged on it (multiplication by the indicator)."""
        check_cube(q, self.config)
        out = np.zeros_like(self.values)
        view = cell_view(out, q, self.config)
        view[...] = cell_view(self.values, q, self.config)
        return GridFunction(self.config, out)

    def __repr__(self):
        return (
            f"{type(self).__name__}(n={self.config.dimension}, "
            f"K={self.config.finest_level}, "
            f"range=[{self.values.min():.4g}, {self.values.max():.4g}])"
        )


class Weight(GridFunction):
    """Strictly positive GridFunction, used as the density of a measure w dx."""

    __slots__ = ("_averages",)

    def __init__(self, config: GridConfig, values):
        super().__init__(config, values)
        if self.values.min() <= 0.0:
            raise ValueError("weights must be strictly positive")
        self._averages = None

    @property
    def averages(self) -> tuple[np.ndarray, ...]:
        """level_averages of the cell values, pooled on first use and kept;
        read-only, as the weight is (the finest level is .values itself)."""
        if self._averages is None:
            levels = level_averages(self.values, self.config)
            for arr in levels:
                arr.flags.writeable = False
            self._averages = tuple(levels)
        return self._averages


def constant(config: GridConfig, value: float) -> GridFunction:
    return GridFunction(config, np.full(config.cell_count, float(value)))


def indicator(config: GridConfig, q: DyadicCube) -> GridFunction:
    check_cube(q, config)
    out = np.zeros(config.cell_count)
    cell_view(out, q, config)[...] = 1.0
    return GridFunction(config, out)


def _conjugate(p: float) -> float:
    """p' = p/(p - 1), the program's only one; elementwise on arrays."""
    return p / (p - 1.0)


@dataclass(frozen=True)
class ExponentTuple:
    """Hoelder pair (p1, p2) with p from 1/p = 1/p1 + 1/p2; requires p > 1."""

    p1: float
    p2: float

    def __post_init__(self):
        for name, v in (("p1", self.p1), ("p2", self.p2)):
            if not (1.0 < v < np.inf):
                raise ValueError(f"{name} must satisfy 1 < {name} < inf")
        if 1.0 / self.p1 + 1.0 / self.p2 >= 1.0:
            raise ValueError("1/p1 + 1/p2 must be < 1 so that p > 1")

    @property
    def p(self) -> float:
        return 1.0 / (1.0 / self.p1 + 1.0 / self.p2)

    @property
    def p_prime(self) -> float:
        return _conjugate(self.p)

    @property
    def p1_prime(self) -> float:
        return _conjugate(self.p1)

    @property
    def p2_prime(self) -> float:
        return _conjugate(self.p2)

    def swapped(self) -> "ExponentTuple":
        return ExponentTuple(self.p2, self.p1)


def _same_grid(*objs) -> GridConfig:
    """The grid every argument's .config names; raise "grid mismatch" at the
    first that differs from the first argument's."""
    cfg = objs[0].config
    for obj in objs[1:]:
        if obj.config != cfg:
            raise ValueError("grid mismatch")
    return cfg


def average(f: GridFunction, q: DyadicCube) -> float:
    """Plain mean over the cells of q; cells have equal measure, so exact."""
    check_cube(q, f.config)
    return float(cell_view(f.values, q, f.config).mean())


def weighted_measure(w: Weight, q: DyadicCube) -> float:
    """w(Q) = integral of w over Q."""
    check_cube(q, w.config)
    return float(cell_view(w.values, q, w.config).sum()) * w.config.cell_volume


def weighted_average(f: GridFunction, w: Weight, q: DyadicCube) -> float:
    """Average of f against the measure w dx on q."""
    cfg = _same_grid(f, w)
    check_cube(q, cfg)
    fv = cell_view(f.values, q, cfg)
    wv = cell_view(w.values, q, cfg)
    return float((fv * wv).sum() / wv.sum())


def same_slots(w1: Weight, w2: Weight, P: ExponentTuple) -> bool:
    """Whether both slots of a weight pair carry the same data.

    True for one weight object at equal exponents, as in build_family's
    diagonal pairs.  Then s2 = s1 and every per-slot quantity of slot
    1 is slot 0's, so it is computed once: pair_weights makes s2 the
    object s1, which the later steps test.  Two equal but distinct
    weights give False and take the general path, with the same values.
    """
    return w2 is w1 and P.p2 == P.p1


def dual_weight(w: Weight, pi: float) -> Weight:
    """Cellwise w^(1 - pi'), the dual weight for the exponent pi."""
    if not (1.0 < pi < np.inf):
        raise ValueError("exponent must be in (1, inf)")
    return Weight(w.config, w.values ** (1.0 - _conjugate(pi)))


def joint_weight(w1: Weight, w2: Weight, P: ExponentTuple) -> Weight:
    """Cellwise w1^(p/p1) * w2^(p/p2); one power when same_slots."""
    cfg = _same_grid(w1, w2)
    x = w1.values ** (P.p / P.p1)
    y = x if same_slots(w1, w2, P) else w2.values ** (P.p / P.p2)
    return Weight(cfg, x * y)


def lp_norm(f: GridFunction, w: Weight, p: float) -> float:
    """(integral |f|^p w dx)^(1/p) for p in (0, inf)."""
    cfg = _same_grid(f, w)
    if not 0.0 < p < np.inf:
        raise ValueError("p must be in (0, inf)")
    s = float((np.abs(f.values) ** p * w.values).sum()) * cfg.cell_volume
    return s ** (1.0 / p)


def _weak_max(a: np.ndarray, w: np.ndarray, p: float, scale: float) -> np.ndarray:
    """max over t > 0 of t * mass({a >= t})^(1/p) along the last axis, or 0.

    Entry i of a row a >= 0 has mass w[i] * scale.  After a stable descending
    sort, the last index of a run of equal values carries the run's full mass.
    """
    order = np.argsort(-a, axis=-1, kind="stable")
    av = np.take_along_axis(a, order, axis=-1)
    mass = np.cumsum(w[order], axis=-1) * scale
    last = np.ones(av.shape, dtype=bool)
    last[..., :-1] = av[..., 1:] != av[..., :-1]
    keep = last & (av > 0.0)  # no 0 * inf product where a mass overflows
    return np.multiply(av, mass ** (1.0 / p), out=np.zeros(av.shape), where=keep).max(axis=-1)


def weak_norm(f: GridFunction, w: Weight, p: float) -> float:
    """sup_t t * w({|f| >= t})^(1/p), evaluated exactly at the jumps.

    For step functions the superlevel sets are unions of cells and the
    candidate values are the distinct nonzero values of |f|.
    """
    cfg = _same_grid(f, w)
    if not 0.0 < p < np.inf:
        raise ValueError("p must be in (0, inf)")
    return float(_weak_max(np.abs(f.values), w.values, p, cfg.cell_volume))


def atom_norms(
    values: np.ndarray, masses: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Strong and weak L^p norms of step functions given on atoms.

    values[..., a] is a function's value on atom a and masses[a] the
    atom's measure.  Both norms reduce the last axis the way lp_norm and
    weak_norm reduce cells, ties and the t > 0 filter included.
    """
    if not 0.0 < p < np.inf:
        raise ValueError("p must be in (0, inf)")
    a = np.abs(values)
    strong = (a**p * masses).sum(axis=-1) ** (1.0 / p)
    return strong, _weak_max(a, masses, p, 1.0)


def kolmogorov_check(
    f: GridFunction, q: DyadicCube, p: float
) -> tuple[float, float, bool]:
    """Low-exponent norm vs weak-L1 bound on q with the normalized measure dx/|Q|.

    Checks ||f||_{L^p(dx/|Q|)} <= (1/p + 1/(1-p))^(1/p) ||f||_{L^{1,inf}(dx/|Q|)}
    for 0 < p < 1; returns (lhs, rhs, pass).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    check_cube(q, f.config)
    vals = np.abs(cell_view(f.values, q, f.config)).ravel()
    n = vals.size  # a power of two, so the mass k * (1/n) of the k largest is k/n exactly
    lhs = float(np.mean(vals**p)) ** (1.0 / p)
    weak1 = float(_weak_max(vals, np.ones(n), 1.0, 1.0 / n))
    const = (1.0 / p + 1.0 / (1.0 - p)) ** (1.0 / p)
    rhs = const * weak1
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-12)
