"""Weights for constant sweeps and the slope experiment.

The power family w(x) = x^a on [0,1) is the standard way to push a
Muckenhoupt constant toward infinity: with a_i(delta) = (1 - delta)
(p_i - 1), the joint constant grows as delta drops to 0.  Cell values
are exact closed-form integrals of x^a over each cell, so refinement
changes nothing but resolution.  build_family yields one point's
WeightPair at a time.  random_weight, an exponentiated seeded multiscale
field, gives single weights of moderate constants.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .constants import WeightPair, pair_weights
from .dyadic import GridConfig, expand_level_values
from .measure import ExponentTuple, Weight


def power_weight(a: float, config: GridConfig) -> Weight:
    """Cell-averaged x^a on the 1D grid; requires a > -1 for integrability."""
    if config.dimension != 1:
        raise ValueError("power weights are one-dimensional")
    if a <= -1.0:
        raise ValueError("not locally integrable: need a > -1")
    edges = np.arange(config.cell_count + 1, dtype=np.float64) / config.cell_count
    prim = edges ** (a + 1.0)
    vals = np.diff(prim) / ((a + 1.0) * config.cell_volume)
    return Weight(config, vals)


def multiscale_field(config: GridConfig, seed: int) -> np.ndarray:
    """Seeded log-field: independent gaussians per cube, amplitude 2^(-k/2)."""
    rng = np.random.default_rng(seed)
    field = np.zeros(config.cell_count)
    for k in range(config.finest_level + 1):
        g = rng.standard_normal(config.level_cube_count(k))
        field += 2.0 ** (-0.5 * k) * expand_level_values(g, k, config)
    return field


def random_weight(config: GridConfig, seed: int, roughness: float) -> Weight:
    """exp(roughness * multiscale field); moderate constants for roughness <= 1."""
    return Weight(config, np.exp(roughness * multiscale_field(config, seed)))


@dataclass(frozen=True)
class WeightFamilySpec:
    """A parametrized family of weight pairs, indexed by delta in (0, 1].

    kind "power", the only kind: w_i = x^{a_i(delta)}, a_i = (1 - delta)(p_i - 1).
    """

    kind: str
    deltas: tuple[float, ...]

    def __post_init__(self):
        if self.kind != "power":
            raise ValueError("kind must be 'power'")
        if not self.deltas:
            raise ValueError("delta list must be nonempty")
        if any(not 0.0 < d <= 1.0 for d in self.deltas):
            raise ValueError("deltas must lie in (0, 1]")


def build_family(
    spec: WeightFamilySpec, P: ExponentTuple, config: GridConfig
) -> Iterator[tuple[float, WeightPair]]:
    """Yield (delta, pair) one family point at a time, by decreasing delta.

    Each point's pair is derived once, when it is yielded; its joint
    constant is pair.apvec.  a_i(delta) depends on p_i only, so a family
    with p1 == p2 hands out one weight for both slots (w2 is w1),
    which measure.same_slots lets every later step compute once.
    """
    for d in sorted(spec.deltas, reverse=True):
        w1 = power_weight((1.0 - d) * (P.p1 - 1.0), config)
        w2 = w1
        if P.p2 != P.p1:
            w2 = power_weight((1.0 - d) * (P.p2 - 1.0), config)
        yield d, pair_weights(w1, w2, P)
