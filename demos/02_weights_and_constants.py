"""Weights and their Muckenhoupt-type constants.

Power weights x^a are the classical way to stress the constants: as the
exponent approaches its integrability limit, every constant blows up.
This script computes single-weight A_p and Fujii-Wilson A_infty
constants, the joint two-weight constant, and shows the two structural
facts the rest of the package leans on: the dual/joint constant
inequalities, and the exact first-slot duality transform.  A weight pair
enters as one WeightPair (pair_weights), which derives the dual weights
sigma_i and the joint weight v once for every constant of the pair.
"""

from weaksparse import (
    GridConfig,
    ExponentTuple,
    ainfty_constant,
    ap_constant,
    apvec_constant,
    check_constant_inequalities,
    dual_weight,
    dualize_first_entry,
    pair_weights,
    power_weight,
    reverse_holder_check,
    reverse_holder_epsilon,
)

cfg = GridConfig(1, 10)
P = ExponentTuple(2.0, 3.0)

print("single power weight w = x^a, constants vs a:")
for a in (0.0, 0.5, 0.9, 0.99):
    w = power_weight(a, cfg)
    ap = ap_constant(w, 2.0)
    ai = ainfty_constant(w)
    print(
        f"  a={a:4}:  [w]_A2 = {ap.value:8.3f} at {ap.argmax_cube},"
        f"  [w]_Ainf = {ai.value:7.3f}  (always <= A2)"
    )

print("\njoint constant along the degenerating pair family:")
for delta in (0.5, 0.25, 0.125, 0.0625):
    w1 = power_weight((1 - delta) * (P.p1 - 1), cfg)
    w2 = power_weight((1 - delta) * (P.p2 - 1), cfg)
    pair = pair_weights(w1, w2, P)
    apv = apvec_constant(pair)
    rep = check_constant_inequalities(pair)
    print(
        f"  delta={delta:7}:  joint = {apv.value:9.3f},"
        f"  dual/joint inequalities pass: {rep.passed}"
    )

print("\nthe first-slot duality transform is exact per cube:")
pair = pair_weights(power_weight(0.6, cfg), power_weight(1.4, cfg), P)
dual, err = dualize_first_entry(pair)
orig = apvec_constant(pair).value
new = apvec_constant(dual).value
Pn = dual.P
print(f"  new tuple ({Pn.p1:.3f}, {Pn.p2:.3f}) with derived exponent {Pn.p:.3f}")
print(f"  max per-cube deviation from the power identity: {err:.2e}")
print(f"  constants: {new:.6f} vs {orig:.6f}^(p1'/p) = {orig ** (P.p1_prime / P.p):.6f}")

print("\nself-improvement (reverse Hoelder) of a dual weight:")
sigma = dual_weight(power_weight(1.5, cfg), P.p1)
eps = reverse_holder_epsilon(sigma)
ratio, ok = reverse_holder_check(sigma)
print(f"  eps = {eps:.3e}, worst cube ratio = {ratio:.6f}, pass(<=2): {ok}")
