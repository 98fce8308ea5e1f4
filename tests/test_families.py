import numpy as np
import pytest

from weaksparse import families as wf
from weaksparse.dyadic import GridConfig, cube
from weaksparse.families import (
    WeightFamilySpec,
    build_family,
    multiscale_field,
    power_weight,
    random_weight,
)
from weaksparse.measure import ExponentTuple, average, dual_weight


def test_power_weight_constant_case():
    cfg = GridConfig(1, 4)
    assert np.allclose(power_weight(0.0, cfg).values, 1.0)


def test_power_weight_linear_case():
    cfg = GridConfig(1, 1)
    w = power_weight(1.0, cfg)
    assert np.allclose(w.values, [0.25, 0.75])


def test_power_weight_rejects_nonintegrable():
    with pytest.raises(ValueError, match="integrable"):
        power_weight(-1.0, GridConfig(1, 4))
    with pytest.raises(ValueError):
        power_weight(0.5, GridConfig(2, 3))


def test_power_weight_cell_values_are_exact_integrals():
    # aggregating K+4 resolution cells reproduces the K-level values exactly
    a = 1.7
    coarse = power_weight(a, GridConfig(1, 6))
    fine = power_weight(a, GridConfig(1, 10))
    pooled = fine.values.reshape(64, 16).mean(axis=1)
    assert np.max(np.abs(pooled - coarse.values) / coarse.values) < 1e-12


def test_power_weight_duality_is_only_approximate():
    # cell-average of a power is not the power of the cell-average, but the
    # mismatch at a fixed cube shrinks as the grid refines
    a, p = 1.0, 2.5
    pc = p / (p - 1)
    errs = []
    for K in (4, 8, 12):
        cfg = GridConfig(1, K)
        direct = dual_weight(power_weight(a, cfg), p)
        exact = power_weight(a * (1 - pc), cfg)
        errs.append(
            abs(average(direct, cube(0, 0)) - average(exact, cube(0, 0)))
            / average(exact, cube(0, 0))
        )
    assert errs[0] > errs[1] > errs[2]


def test_family_spec_validation():
    for kind in ("bogus", "random_ap"):
        with pytest.raises(ValueError, match="^kind must be 'power'$"):
            WeightFamilySpec(kind, (0.5,))
    with pytest.raises(ValueError):
        WeightFamilySpec("power", ())
    with pytest.raises(ValueError):
        WeightFamilySpec("power", (0.0,))


def test_build_family_trivial_at_delta_one():
    cfg = GridConfig(1, 8)
    P = ExponentTuple(2.0, 3.0)
    rows = list(build_family(WeightFamilySpec("power", (1.0,)), P, cfg))
    assert rows[0][1].apvec.value == pytest.approx(1.0, abs=1e-9)


def test_build_family_monotone_constants():
    cfg = GridConfig(1, 14)
    P = ExponentTuple(6.0, 6.0)
    spec = WeightFamilySpec("power", tuple(2.0**-k for k in range(2, 10)))
    rows = list(build_family(spec, P, cfg))
    deltas = [d for d, _ in rows]
    consts = [pair.apvec.value for _, pair in rows]
    assert deltas == sorted(deltas, reverse=True)
    assert all(b > a for a, b in zip(consts, consts[1:]))


@pytest.mark.parametrize("kind", ["power"])
def test_build_family_derives_each_point_when_it_is_yielded(kind, monkeypatch):
    cfg = GridConfig(1, 6)
    spec = WeightFamilySpec(kind, (0.125, 0.5, 0.25))
    derived = []
    real = wf.pair_weights

    def counted(w1, w2, P):
        derived.append(w1)
        return real(w1, w2, P)

    monkeypatch.setattr(wf, "pair_weights", counted)
    family = build_family(spec, ExponentTuple(2.0, 3.0), cfg)
    assert derived == []
    for i, (d, pair) in enumerate(family, start=1):
        assert len(derived) == i and pair.w1 is derived[-1]
        assert d == sorted(spec.deltas, reverse=True)[i - 1]


def test_multiscale_field_deterministic():
    cfg = GridConfig(2, 4)
    assert np.array_equal(multiscale_field(cfg, 3), multiscale_field(cfg, 3))
    assert not np.array_equal(multiscale_field(cfg, 3), multiscale_field(cfg, 4))
    w = random_weight(cfg, 3, 0.5)
    assert w.values.min() > 0
