import numpy as np
import pytest

from conftest import random_exponents, random_weight
from weaksparse.constants import (
    ainfty_constant,
    ap_constant,
    apvec_constant,
    check_constant_inequalities,
    dualize_first_entry,
    pair_weights,
    reverse_holder_check,
    reverse_holder_epsilon,
)
from weaksparse.dyadic import GridConfig, all_cubes, cells_of, cube
from weaksparse.families import power_weight
from weaksparse.measure import (
    ExponentTuple,
    Weight,
    dual_weight,
    joint_weight,
)


# --- brute-force oracles ----------------------------------------------------


def ap_brute(w, p):
    cfg = w.config
    pc = p / (p - 1.0)
    best = -np.inf
    for q in all_cubes(cfg):
        vals = w.values[cells_of(q, cfg)]
        best = max(best, vals.mean() * (vals ** (1 - pc)).mean() ** (p - 1))
    return best


def ainfty_brute(w):
    cfg = w.config
    cubes = list(all_cubes(cfg))
    cell_sets = {q: set(cells_of(q, cfg).tolist()) for q in cubes}
    best = -np.inf
    for q in cubes:
        total_m = 0.0
        for cell in sorted(cell_sets[q]):
            m = 0.0
            for r in cubes:
                if cell in cell_sets[r] and cell_sets[r] <= cell_sets[q]:
                    m = max(m, w.values[cells_of(r, cfg)].mean())
            total_m += m
        best = max(best, total_m / w.values[cells_of(q, cfg)].sum())
    return best


def apvec_brute(w1, w2, P):
    cfg = w1.config
    v = joint_weight(w1, w2, P)
    s1 = dual_weight(w1, P.p1)
    s2 = dual_weight(w2, P.p2)
    best = -np.inf
    for q in all_cubes(cfg):
        idx = cells_of(q, cfg)
        best = max(
            best,
            v.values[idx].mean()
            * s1.values[idx].mean() ** (P.p / P.p1_prime)
            * s2.values[idx].mean() ** (P.p / P.p2_prime),
        )
    return best


# --- A_p --------------------------------------------------------------------


def test_ap_constant_two_cell_example():
    w = Weight(GridConfig(1, 1), [1.0, 3.0])
    rep = ap_constant(w, 2.0)
    assert rep.value == pytest.approx(4 / 3, rel=1e-14)
    assert rep.argmax_cube == cube(0, 0)


@pytest.mark.parametrize("cfg", [GridConfig(1, 4), GridConfig(2, 3)], ids=["1d", "2d"])
def test_argmax_ties_go_to_the_first_cube_in_enumeration_order(cfg):
    # every cube gives exactly 1.0, so the strict tie rule keeps the root
    w = Weight(cfg, np.ones(cfg.cell_count))
    rep = ap_constant(w, 2.0)
    assert rep.value == 1.0
    assert rep.argmax_cube == cube(0, *(0,) * cfg.dimension)


def test_ap_constant_trivial_for_constants():
    cfg = GridConfig(1, 4)
    w = Weight(cfg, np.full(cfg.cell_count, 2.7))
    for p in (1.5, 2.0, 3.0):
        assert ap_constant(w, p).value == pytest.approx(1.0, abs=1e-13)


def test_ap_constant_matches_brute_force(rng):
    for dim, K in ((1, 4), (2, 2)):
        cfg = GridConfig(dim, K)
        for _ in range(10):
            w = random_weight(rng, cfg)
            p = rng.uniform(1.2, 4.0)
            assert ap_constant(w, p).value == pytest.approx(
                ap_brute(w, p), rel=1e-12
            )


def test_ap_constant_scale_invariant_and_bounded_below(rng):
    cfg = GridConfig(1, 5)
    for _ in range(50):
        w = random_weight(rng, cfg)
        p = rng.uniform(1.2, 4.0)
        v = ap_constant(w, p).value
        assert v >= 1.0 - 1e-12
        scaled = ap_constant(Weight(cfg, 7.3 * w.values), p).value
        assert scaled == pytest.approx(v, rel=1e-12)


# --- A_infty ----------------------------------------------------------------


def test_ainfty_two_cell_example():
    w = Weight(GridConfig(1, 1), [1.0, 3.0])
    rep = ainfty_constant(w)
    assert rep.value == pytest.approx(1.25, rel=1e-14)


def test_ainfty_trivial_for_constants():
    cfg = GridConfig(2, 2)
    w = Weight(cfg, np.ones(cfg.cell_count))
    assert ainfty_constant(w).value == pytest.approx(1.0, abs=1e-14)


def test_ainfty_matches_brute_force(rng):
    for dim, K in ((1, 3), (2, 2)):
        cfg = GridConfig(dim, K)
        for _ in range(8):
            w = random_weight(rng, cfg)
            assert ainfty_constant(w).value == pytest.approx(
                ainfty_brute(w), rel=1e-12
            )


def test_ainfty_below_ap(rng):
    cfg = GridConfig(1, 6)
    for _ in range(40):
        w = random_weight(rng, cfg)
        p = rng.uniform(1.2, 5.0)
        assert ainfty_constant(w).value <= ap_constant(w, p).value * (1 + 1e-12)


# --- joint constant ---------------------------------------------------------


def test_apvec_trivial():
    cfg = GridConfig(1, 3)
    one = Weight(cfg, np.ones(cfg.cell_count))
    pair = pair_weights(one, one, ExponentTuple(2, 3))
    assert apvec_constant(pair).value == pytest.approx(1.0)


def test_apvec_matches_brute_force(rng):
    cfg = GridConfig(1, 2)
    for _ in range(20):
        P = random_exponents(rng)
        w1 = random_weight(rng, cfg)
        w2 = random_weight(rng, cfg)
        assert apvec_constant(pair_weights(w1, w2, P)).value == pytest.approx(
            apvec_brute(w1, w2, P), rel=1e-12
        )


def test_apvec_symmetric_under_swap(rng):
    cfg = GridConfig(1, 5)
    for _ in range(20):
        P = random_exponents(rng)
        w1 = random_weight(rng, cfg)
        w2 = random_weight(rng, cfg)
        a = apvec_constant(pair_weights(w1, w2, P)).value
        b = apvec_constant(pair_weights(w2, w1, P.swapped())).value
        assert a == pytest.approx(b, rel=1e-12)


def test_all_constants_at_least_one(rng):
    cfg = GridConfig(1, 5)
    for _ in range(20):
        P = random_exponents(rng)
        w1 = random_weight(rng, cfg)
        w2 = random_weight(rng, cfg)
        assert apvec_constant(pair_weights(w1, w2, P)).value >= 1.0 - 1e-12
        assert ainfty_constant(w1).value >= 1.0 - 1e-12
        assert ap_constant(w1, P.p1).value >= 1.0 - 1e-12


# --- constant inequalities --------------------------------------------------


def test_inequalities_trivial_weights():
    cfg = GridConfig(1, 3)
    one = Weight(cfg, np.ones(cfg.cell_count))
    rep = check_constant_inequalities(pair_weights(one, one, ExponentTuple(2, 3)))
    assert rep.passed
    for v in (rep.apvec, rep.joint_ap, rep.sigma1_ap, rep.sigma2_ap):
        assert v == pytest.approx(1.0, abs=1e-12)


def test_inequalities_random_suite(rng):
    cfg = GridConfig(1, 6)
    for _ in range(50):
        P = random_exponents(rng)
        rep = check_constant_inequalities(
            pair_weights(random_weight(rng, cfg), random_weight(rng, cfg), P)
        )
        assert rep.passed


def test_inequalities_power_family_near_degeneracy():
    cfg = GridConfig(1, 12)
    P = ExponentTuple(6.0, 6.0)
    for delta in (2.0**-2, 2.0**-5, 2.0**-9):
        w1 = power_weight((1 - delta) * (P.p1 - 1), cfg)
        w2 = power_weight((1 - delta) * (P.p2 - 1), cfg)
        assert check_constant_inequalities(pair_weights(w1, w2, P)).passed


# --- first-slot dual transform ----------------------------------------------


def test_dual_transform_trivial_weights():
    cfg = GridConfig(1, 3)
    one = Weight(cfg, np.ones(cfg.cell_count))
    dual, err = dualize_first_entry(pair_weights(one, one, ExponentTuple(2, 3)))
    Pn = dual.P
    assert err == pytest.approx(0.0, abs=1e-14)
    assert np.all(dual.w1.values == 1.0)
    assert Pn.p1 == pytest.approx(ExponentTuple(2, 3).p_prime)
    assert Pn.p2 == 3.0


def test_dual_transform_exactness(rng):
    cfg = GridConfig(1, 6)
    for _ in range(50):
        P = random_exponents(rng)
        w1 = random_weight(rng, cfg)
        w2 = random_weight(rng, cfg)
        pair = pair_weights(w1, w2, P)
        dual, err = dualize_first_entry(pair)
        assert err <= 1e-10
        orig = apvec_constant(pair).value
        new = apvec_constant(dual).value
        assert new == pytest.approx(orig ** (P.p1_prime / P.p), rel=1e-9)


def test_dual_transform_new_tuple_is_consistent():
    P = ExponentTuple(2.0, 3.0)
    cfg = GridConfig(1, 4)
    one = Weight(cfg, np.ones(cfg.cell_count))
    Pn = dualize_first_entry(pair_weights(one, one, P))[0].P
    # 1/p' + 1/p2 = 1/p1', so the derived exponent of the new tuple is p1'
    assert Pn.p == pytest.approx(P.p1_prime, rel=1e-14)


# --- reverse Hoelder ---------------------------------------------------------


def test_reverse_holder_constant_weight():
    cfg = GridConfig(1, 5)
    w = Weight(cfg, np.full(cfg.cell_count, 4.2))
    ratio, ok = reverse_holder_check(w)
    assert ok and ratio == pytest.approx(1.0, abs=1e-12)
    assert reverse_holder_epsilon(w) == pytest.approx(1.0 / 2**12, rel=1e-12)


def test_reverse_holder_power_weights():
    cfg = GridConfig(1, 10)
    for a in (-0.9, -0.5, 0.5, 1.0, 2.0):
        ratio, ok = reverse_holder_check(power_weight(a, cfg))
        assert ok
        assert ratio >= 1.0 - 1e-12


def test_reverse_holder_epsilon_shrinks_with_roughness():
    cfg = GridConfig(1, 8)
    eps = [
        reverse_holder_epsilon(power_weight(a, cfg)) for a in (0.0, 1.0, 3.0)
    ]
    assert eps[0] > eps[1] > eps[2]


def test_reverse_holder_random_dual_weights(rng):
    cfg = GridConfig(1, 8)
    for _ in range(20):
        sigma = dual_weight(random_weight(rng, cfg), rng.uniform(1.3, 4.0))
        _, ok = reverse_holder_check(sigma)
        assert ok


# --- weight pairs -------------------------------------------------------------


def test_pair_weights_derives_the_duals_and_the_joint_weight(rng):
    for cfg in (GridConfig(1, 5), GridConfig(2, 3)):
        P = random_exponents(rng)
        w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
        pair = pair_weights(w1, w2, P)
        assert (pair.w1, pair.w2, pair.P, pair.config) == (w1, w2, P, cfg)
        for got, want in (
            (pair.s1, dual_weight(w1, P.p1)),
            (pair.s2, dual_weight(w2, P.p2)),
            (pair.v, joint_weight(w1, w2, P)),
        ):
            assert isinstance(got, Weight)
            assert got.values.tobytes() == want.values.tobytes()
        assert pair.s2 is not pair.s1


def test_pair_weights_shares_the_dual_only_for_one_weight_at_equal_exponents(rng):
    cfg = GridConfig(1, 5)
    w = random_weight(rng, cfg)
    copy = Weight(cfg, w.values)
    shared = pair_weights(w, w, ExponentTuple(6.0, 6.0))
    assert shared.s2 is shared.s1
    for w2, P in ((copy, ExponentTuple(6.0, 6.0)), (w, ExponentTuple(6.0, 7.0))):
        pair = pair_weights(w, w2, P)
        assert pair.s2 is not pair.s1


def test_pair_weights_raises_grid_mismatch_first():
    # same cell count, another shape
    w = Weight(GridConfig(1, 4), np.ones(16))
    other = Weight(GridConfig(2, 2), np.ones(16))
    for w1, w2 in ((w, other), (other, w)):
        with pytest.raises(ValueError, match="^grid mismatch$"):
            pair_weights(w1, w2, ExponentTuple(3.0, 3.0))


def test_weight_pair_is_frozen_and_compared_by_identity(rng):
    cfg = GridConfig(1, 3)
    w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
    P = ExponentTuple(2.0, 3.0)
    pair = pair_weights(w1, w2, P)
    with pytest.raises(AttributeError):
        pair.w1 = w2
    assert pair == pair and pair != pair_weights(w1, w2, P)


def test_weight_pair_keeps_its_ainfty_reports(rng, monkeypatch):
    import weaksparse.constants as wc

    calls = []
    real = wc.ainfty_constant

    def counted(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(wc, "ainfty_constant", counted)
    cfg = GridConfig(1, 6)
    w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
    pair = pair_weights(w1, w2, ExponentTuple(2.0, 3.0))
    reports = pair.ainfty
    assert calls == [pair.s1, pair.s2, pair.v]
    assert reports == tuple(real(w) for w in (pair.s1, pair.s2, pair.v))
    assert pair.ainfty is reports and len(calls) == 3
    calls.clear()
    shared = pair_weights(w1, w1, ExponentTuple(6.0, 6.0))
    a1, a2, av = shared.ainfty
    assert calls == [shared.s1, shared.v] and a2 is a1


def test_dual_transform_shares_the_second_dual_weight(rng):
    cfg = GridConfig(1, 5)
    w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
    pair = pair_weights(w1, w2, ExponentTuple(2.0, 3.0))
    dual, _ = dualize_first_entry(pair)
    assert dual.w2 is pair.w2 and dual.s2 is pair.s2
    assert dual.s1 is not dual.s2
    assert dual.s1.values.tobytes() == dual_weight(dual.w1, dual.P.p1).values.tobytes()
    v = joint_weight(dual.w1, pair.w2, dual.P)
    assert dual.v.values.tobytes() == v.values.tobytes()


# --- memory -------------------------------------------------------------------


#: Traced peak, in bytes, of the command below when each of its steps
#: derived and pooled the weight pair on its own: the lowest of three warm
#: runs (5,813,248 to 5,822,178), about 11.1 arrays of the 2^16 cells.
_EARLIER_CONSTANTS_PEAK = 5_813_248


def test_constants_command_peak_stays_at_most_the_earlier_one(monkeypatch, capsys):
    """The weight pair keeps s1, s2, v and their level averages alive, so the
    command reads the A_infty reports before the inequalities pool the
    weights; the other order peaks about three cell arrays higher."""
    import tracemalloc

    from weaksparse import cli

    cfg = GridConfig(1, 16)
    rng = np.random.default_rng(0)
    weights = {
        name: Weight(cfg, np.exp(rng.uniform(-1.5, 1.5, cfg.cell_count)))
        for name in ("w1", "w2")
    }
    monkeypatch.setattr(cli.wio, "load_weight", weights.__getitem__)
    argv = ["constants", "--weights", "w1,w2", "--p1", "2", "--p2", "3"]
    assert cli.main(argv) == 0  # warm caches and imports
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert '"inequalities_pass": true' in capsys.readouterr().out
    assert peak <= _EARLIER_CONSTANTS_PEAK, peak
