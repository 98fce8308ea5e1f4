import numpy as np
import pytest

from conftest import random_exponents
from weaksparse.exponents import (
    P_THRESHOLD,
    alpha,
    region_map,
    region_svg,
)
from weaksparse.measure import ExponentTuple
from weaksparse.serialize import write_region_svg


def test_beta_examples():
    assert alpha(ExponentTuple(2, 3)).beta == pytest.approx(1.5, abs=1e-15)
    assert alpha(ExponentTuple(6, 6)).beta == pytest.approx(2 / 3, abs=1e-15)
    assert alpha(ExponentTuple(4, 4)).beta == pytest.approx(1.0, abs=1e-15)


def test_gamma_examples():
    assert alpha(ExponentTuple(2, 3)).gamma == pytest.approx(5 / 3, abs=1e-15)
    assert alpha(ExponentTuple(6, 6)).gamma == pytest.approx(1.0, abs=1e-15)
    assert alpha(ExponentTuple(4, 4)).gamma == pytest.approx(1.0, abs=1e-15)


def test_alpha_reports():
    rep = alpha(ExponentTuple(2, 3))
    assert rep.alpha == pytest.approx(1.5, abs=1e-15)
    assert rep.weak_strictly_better and not rep.alpha_lt_1
    rep66 = alpha(ExponentTuple(6, 6))
    assert rep66.alpha == pytest.approx(2 / 3, abs=1e-15)
    assert rep66.alpha_lt_1
    rep44 = alpha(ExponentTuple(4, 4))
    assert rep44.alpha == pytest.approx(1.0, abs=1e-15)
    assert not rep44.alpha_lt_1


def test_alpha_is_min_and_symmetric(rng):
    for _ in range(300):
        P = random_exponents(rng)
        rep = alpha(P)
        assert rep.alpha == min(rep.beta, rep.gamma)
        assert rep.alpha <= rep.beta and rep.alpha <= rep.gamma
        swp = alpha(P.swapped())
        assert abs(rep.beta - swp.beta) <= 1e-15
        assert abs(rep.gamma - swp.gamma) <= 1e-15
        assert abs(rep.alpha - swp.alpha) <= 1e-15
        assert rep.beta < 1.0 + 1.0 / P.p


def test_region_map_geometry():
    t = region_map(8)
    # all samples strictly inside the triangle, half-step off the boundary
    assert np.all(t.inv_p1 > 0) and np.all(t.inv_p2 > 0)
    assert np.all(t.inv_p1 + t.inv_p2 < 1)
    assert np.all(t.p > 1.0)
    assert len(t) == sum(1 for i in range(8) for j in range(8) if i + j + 1 < 8)


def test_region_map_row_matches_alpha_op():
    t = region_map(3)
    row = np.nonzero((t.i == 0) & (t.j == 0))[0][0]
    assert t.inv_p1[row] == pytest.approx(1 / 6)
    assert t.alpha[row] == pytest.approx(alpha(ExponentTuple(6, 6)).alpha, abs=1e-15)


def test_alpha_and_region_map_agree_at_every_sample():
    """alpha(ExponentTuple(1/x, 1/y)) against each row (x, y) of region_map.

    The table forms p as 1/(x + y), ExponentTuple as 1/(1/p1 + 1/p2) with
    p1 = 1/x, and the two roundings differ at about 8 % of the rows.  Where
    they give the same p, every field agrees bit for bit; elsewhere p and
    the exponents are a few ulps apart and both flags still agree.
    """
    fields = ("p", "beta", "gamma", "alpha", "weak_strictly_better", "alpha_lt_1")
    same_p = 0
    for resolution in range(2, 61):
        t = region_map(resolution)
        reps = [
            alpha(ExponentTuple(1.0 / x, 1.0 / y))
            for x, y in zip(t.inv_p1.tolist(), t.inv_p2.tolist())
        ]
        got = {f: np.array([getattr(r, f) for r in reps]) for f in fields}
        same = got["p"] == t.p
        same_p += int(same.sum())
        for f in fields:
            assert np.array_equal(got[f][same], getattr(t, f)[same]), (resolution, f)
        for f in fields[:4]:
            np.testing.assert_array_max_ulp(got[f], getattr(t, f), maxulp=4)
        for f in fields[4:]:
            assert np.array_equal(got[f], getattr(t, f)), (resolution, f)
    assert same_p >= 33138  # of 35,990 rows: the bit-for-bit check is not vacuous


def test_region_claims_hold_everywhere():
    t = region_map(200)
    assert not np.any(t.p_ge_golden & ~t.alpha_lt_1)
    assert not np.any(t.min_gt_4 & ~t.alpha_lt_1)
    # the dark region is inside the light one: alpha < 1 <= gamma
    assert not np.any(t.alpha_lt_1 & ~t.weak_strictly_better)


def test_region_alpha_continuity():
    res = 100
    t = region_map(res)
    grid = np.full((res, res), np.nan)
    grid[t.i, t.j] = t.alpha
    jump = max(
        np.nanmax(np.abs(np.diff(grid, axis=0))),
        np.nanmax(np.abs(np.diff(grid, axis=1))),
    )
    # pinned continuity constant; observed max jump is ~6.7/res
    assert jump <= 16.0 / res


def test_threshold_constant():
    assert P_THRESHOLD == pytest.approx((3 + np.sqrt(5)) / 2, rel=1e-15)
    with pytest.raises(ValueError):
        region_map(1)


def test_region_svg_matches_golden(tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "region_res2.svg"
    out = tmp_path / "r2.svg"
    table = region_map(2)
    write_region_svg(table, out)
    doc = region_svg(table)
    assert out.read_bytes() == golden.read_bytes()
    assert doc.encode() == golden.read_bytes()


def test_region_svg_empty_table_axes_only():
    t = region_map(2)
    empty = type(t)(
        resolution=2,
        i=t.i[:0],
        j=t.j[:0],
        inv_p1=t.inv_p1[:0],
        inv_p2=t.inv_p2[:0],
        p=t.p[:0],
        beta=t.beta[:0],
        gamma=t.gamma[:0],
        alpha=t.alpha[:0],
        weak_strictly_better=t.weak_strictly_better[:0],
        alpha_lt_1=t.alpha_lt_1[:0],
        p_ge_golden=t.p_ge_golden[:0],
        min_gt_4=t.min_gt_4[:0],
    )
    doc = region_svg(empty)
    assert "<rect" in doc and "fill=\"#2f6db3\"" not in doc
    assert doc.endswith("</svg>\n")


def test_region_svg_renders_quickly(tmp_path):
    import time

    t = region_map(200)
    start = time.perf_counter()
    write_region_svg(t, tmp_path / "r200.svg")
    assert time.perf_counter() - start < 1.0
