"""Stopping-time families: selection, parents, and Carleson control.

Starting from the maximal cubes of a sparse family, each generation
selects the maximal cubes whose weighted average of f strictly more than
doubles the parent's.  Two facts make this machinery quantitative: the
next generation carries at most half the parent's w-mass, and the sum of
(average)^p w(F) over the family is controlled by ||f||_{L^p(w)}^p.
"""

import numpy as np

from weaksparse import (
    GridConfig,
    GridFunction,
    Weight,
    all_cubes,
    bilinear_form_decompose,
    build_stopping,
    carleson_checks,
    cube,
    ExponentTuple,
    pair_weights,
    restrict,
    stopping_parent,
)
from weaksparse.sparse import SparseFamily

# the worked micro example: a spike at the left end
cfg = GridConfig(1, 2)
S = SparseFamily(cfg, tuple(all_cubes(cfg)))
f = GridFunction(cfg, [4.0, 1.0, 1.0, 1.0])
w = Weight(cfg, np.ones(4))
fam = build_stopping(S, f, w)
print("spike (4,1,1,1) over the full tree:")
for j in fam.members:  # positions in S, coarse to fine
    print(f"  generation {fam.generation[j]}: {S.cubes[j]} with average {fam.wavg[j]:.3f}")
print(f"  stopping parent of [1/2,1) is {stopping_parent(fam, cube(1, 1))}")

# a singular profile over the tower produces a deep chain of generations
from weaksparse import power_weight, tower_family

cfg = GridConfig(1, 8)
rng = np.random.default_rng(42)
S = tower_family(cfg)
f = GridFunction(cfg, power_weight(-0.9, cfg).values)  # integrable spike at 0
w = Weight(cfg, np.exp(rng.uniform(-1.0, 1.0, cfg.cell_count)))
fam = build_stopping(S, f, w)
gens = fam.generation.max() + 1
print(f"\nsingular profile over the tower: {len(fam.members)} members in {gens} generations")
for j in fam.members:
    print(f"  generation {fam.generation[j]} at level {S.levels[j]}: average {fam.wavg[j]:9.2f}")
rep = carleson_checks(fam, p=2.5)
print(f"  generation mass bound holds: {rep.child_mass_ok}")
print(f"  aggregate sum {rep.sum_value:.4f} <= bound {rep.bound_value:.4f}: {rep.passed}")

# the two-family split of the localized bilinear form
P = ExponentTuple(2.0, 3.0)
w1 = Weight(cfg, np.exp(rng.uniform(-1.0, 1.0, cfg.cell_count)))
w2 = Weight(cfg, np.exp(rng.uniform(-1.0, 1.0, cfg.cell_count)))
Sp = restrict(S, S.cubes[0])
h = GridFunction(cfg, rng.uniform(0.0, 2.0, cfg.cell_count))
i1, i2, total = bilinear_form_decompose(Sp, f, h, pair_weights(w1, w2, P))
print(f"\ntwo-family decomposition: I1 = {i1:.5f}, I2 = {i2:.5f}")
print(f"  partition identity: I1 + I2 - total = {i1 + i2 - total:.2e}")
