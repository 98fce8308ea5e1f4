"""The weak-type exponent and where it beats the strong-type one.

The weak-type exponent is alpha = min(beta, gamma); gamma alone is the
sharp strong-type exponent.  Sampling the (1/p1, 1/p2) triangle shows
the two regions of interest: where alpha < gamma (the weak bound is
strictly better) and where alpha < 1 (impossible in the linear theory).
"""

import numpy as np

from weaksparse import ExponentTuple, P_THRESHOLD, alpha, region_map
from weaksparse.serialize import write_region_csv, write_region_svg

for p1, p2 in ((2.0, 3.0), (4.0, 4.0), (6.0, 6.0), (10.0, 2.2)):
    rep = alpha(ExponentTuple(p1, p2))
    tag = "alpha < 1!" if rep.alpha_lt_1 else (
        "weak beats strong" if rep.weak_strictly_better else "tie"
    )
    print(
        f"(p1,p2)=({p1:4},{p2:4})  p={rep.p:5.3f}  beta={rep.beta:6.4f} "
        f"gamma={rep.gamma:6.4f}  alpha={rep.alpha:6.4f}  {tag}"
    )

table = region_map(200)
share_better = table.weak_strictly_better.mean()
share_lt1 = table.alpha_lt_1.mean()
print(f"\nsampled {len(table)} tuples on a 200x200 grid:")
print(f"  weak strictly better on {share_better:.1%} of the triangle")
print(f"  alpha < 1 on {share_lt1:.1%}")

golden = table.p_ge_golden
minp = table.min_gt_4
print(f"\nsufficient conditions, checked with zero exceptions:")
print(f"  p >= (3+sqrt5)/2 = {P_THRESHOLD:.6f}: "
      f"{int(golden.sum())} samples, all have alpha < 1: {not np.any(golden & ~table.alpha_lt_1)}")
print(f"  min(p1,p2) > 4: "
      f"{int(minp.sum())} samples, all have alpha < 1: {not np.any(minp & ~table.alpha_lt_1)}")

write_region_csv(table, "region.csv")
write_region_svg(table, "region.svg")
print("\nwrote region.csv and region.svg (light: weak better, dark: alpha < 1)")
