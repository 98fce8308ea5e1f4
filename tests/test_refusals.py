"""Argument refusals of the library entry points, one message each."""

import numpy as np
import pytest

from weaksparse.constants import ap_constant, pair_weights
from weaksparse.dyadic import DyadicCube, GridConfig, cube, relation
from weaksparse.measure import (
    ExponentTuple,
    GridFunction,
    Weight,
    _conjugate,
    atom_norms,
    dual_weight,
    lp_norm,
    weak_norm,
)
from weaksparse.sparse import tower_family
from weaksparse.testing_conditions import local_sigma_testing_ratio

CFG = GridConfig(1, 3)
ONES = Weight(CFG, np.ones(CFG.cell_count))


def _sigma_ratio(f2_value):
    pair = pair_weights(ONES, ONES, ExponentTuple(2.0, 3.0))
    f2 = GridFunction(CFG, np.full(CFG.cell_count, f2_value))
    return local_sigma_testing_ratio(tower_family(CFG), pair, f2, cube(0, 0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ap_constant(ONES, 1.0), "p must be in (1, inf)"),
        (lambda: DyadicCube(0, (0, 0, 0)), "coords must have length 1 or 2"),
        (lambda: relation(cube(0, 0), cube(0, 0, 0)), "cubes live on grids of different dimension"),
        (lambda: dual_weight(ONES, np.inf), "p must be in (1, inf)"),
        (lambda: lp_norm(ONES, ONES, 0.0), "p must be in (0, inf)"),
        (lambda: weak_norm(ONES, ONES, np.inf), "p must be in (0, inf)"),
        (lambda: atom_norms(np.ones(4), np.ones(4), -1.0), "p must be in (0, inf)"),
        (lambda: _sigma_ratio(-1.0), "f2 must be nonnegative"),
        (lambda: _sigma_ratio(0.0), "f2 must not vanish identically"),
    ],
    ids=[
        "ap_exponent", "three_coords", "relation_dimensions", "dual_exponent",
        "lp_exponent", "weak_exponent", "atom_exponent", "negative_f2", "zero_f2",
    ],
)
def test_refusal_is_one_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "p", [1.0, 0.5, np.nan, np.inf, np.array([2.0, 1.0])],
    ids=["one", "half", "nan", "inf", "array_with_one"],
)
def test_conjugate_refuses_p_outside_one_to_infinity(p):
    """_conjugate decides alone which p has a p': every caller that needs
    one (dual weights, A_p, Carleson bounds, the exponent formulas) gets
    this refusal rather than a division by zero or a negative p'."""
    with pytest.raises(ValueError) as info:
        _conjugate(p)
    assert str(info.value) == "p must be in (1, inf)"
