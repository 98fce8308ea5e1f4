"""The evaluation, stopping, restriction and split code on family positions,
against the cube walks it replaced.

The oracles below are the former bodies of sparse_eval (each cube's term
added on its cells), SparseFamily.images (each cube's term added on the
atoms inside it), build_stopping (a breadth-first walk of the containment
forest), stopping_parent (a parent climb), carleson_checks (sorted
members, sums read from the cube-sum pyramid), bilinear_form_decompose
(routing by relation), restrict, sparse_split_eval and
sparse_sum_norm_ratios (cell loops routed by relation).  Next to them are
the derive-and-pool bodies of the joint constant, the constant
inequalities, the dual transform and the saturated-slot ratio, which
derived s1, s2 and v and pooled their level averages in each call
(constants.pair_weights, Weight.averages and WeightPair.ainfty replace
them), and the list bodies of the A_p, A_infty and joint constants,
which kept every level's values and reduced the list at the end
(_argmax_over_levels_oracle; the level walks of constants.py replace
them).  The sweeps
assert bit-for-bit agreement on generated families, towers, restricted
families, split parts, arbitrary cube sets and on cubes listed shuffled
and with a repeat, which the constructor normalises.
"""

import re
import sys
from collections import deque

import numpy as np
import pytest

from conftest import (
    _random_nonneg,
    member_cubes,
    random_exponents,
    random_function,
    random_weight,
    stopping_children,
)
from test_sparse import _atom_labels_oracle, _forest_oracle
from weaksparse import constants as wc
from weaksparse import dyadic as dyadic_module
from weaksparse import measure, sparse, stopping, verify
from weaksparse import testing_conditions as wtc
from weaksparse.constants import InequalityReport, ainfty_constant, pair_weights
from weaksparse.experiment import slope_experiment
from weaksparse.families import WeightFamilySpec, power_weight
from weaksparse.dyadic import (
    GridConfig,
    Relation,
    all_cubes,
    cell_view,
    check_cube,
    cube,
    cube_index,
    cube_sums,
    level_averages,
    parent,
    relation,
)
from weaksparse.measure import (
    ExponentTuple,
    GridFunction,
    Weight,
    dual_weight,
    joint_weight,
    lp_norm,
    same_slots,
    weighted_measure,
)
from weaksparse.sparse import (
    SparseFamily,
    family_from_cubes,
    generate_sparse,
    restrict,
    sparse_eval,
    sparse_split_eval,
    tower_family,
)
from weaksparse.stopping import bilinear_form_decompose, build_stopping, stopping_parent

_KEY = lambda q: (q.level, q.coords)  # noqa: E731


# --- the oracles ---------------------------------------------------------------


def _sparse_eval_oracle(S, f1, f2):
    cfg = S.config
    if f1.config != cfg or f2.config != cfg:
        raise ValueError("grid mismatch")
    a1 = level_averages(f1.values, cfg)
    a2 = level_averages(f2.values, cfg)
    out = np.zeros(cfg.cell_count)
    for q in S.cubes:
        i = cube_index(q)
        cell_view(out, q, cfg)[...] += a1[q.level][i] * a2[q.level][i]
    return GridFunction(cfg, out)


def _images_oracle(S, coef):
    """Atom values of sum_Q coef[..., Q] 1_Q, one cube at a time."""
    labels = _atom_labels_oracle(S.cubes, S.config)
    out = np.zeros(coef.shape[:-1] + (len(S) + 1,))
    for j, q in enumerate(S.cubes):
        atoms = np.unique(cell_view(labels, q, S.config))
        out[..., atoms] += coef[..., j, None]
    return out


def _weighted_averages(cubes, config, f, w):
    num = cube_sums((f * w).values, config)
    den = cube_sums(w.values, config)
    out = {}
    for q in cubes:
        i = cube_index(q)
        out[q] = float(num[q.level][i] / den[q.level][i])
    return out


def _build_stopping_oracle(S, f, w):
    if len(S) == 0:
        raise ValueError("sparse family is empty")
    if f.config != S.config or w.config != S.config:
        raise ValueError("grid mismatch")
    if float(f.values.min()) < 0.0:
        raise ValueError("stopping construction requires nonnegative f")
    wavg = _weighted_averages(S.cubes, S.config, f, w)
    roots, forest = _forest_oracle(S.cubes)
    generation, children = {}, {}
    queue = deque()
    for r in roots:
        generation[r] = 0
        queue.append(r)
    while queue:
        F = queue.popleft()
        threshold = 2.0 * wavg[F]
        selected = []
        stack = list(forest[F])
        while stack:
            q = stack.pop()
            if wavg[q] > threshold:
                selected.append(q)
            else:
                stack.extend(forest[q])
        selected.sort(key=_KEY)
        children[F] = tuple(selected)
        for c in selected:
            generation[c] = generation[F] + 1
            queue.append(c)
    return {
        "members": frozenset(generation),
        "generation": generation,
        "children": children,
        "maximal": tuple(roots),
        "wavg": wavg,
    }


def _stopping_parent_oracle(members, q):
    a = q
    while True:
        if a in members:
            return a
        if a.level == 0:
            break
        a = parent(a)
    raise ValueError("cube is not contained in any maximal cube of the family")


def _carleson_oracle(fam, f, w, p):
    members = sorted(member_cubes(fam), key=_KEY)
    cubes = fam.family.cubes
    children = {
        cubes[m]: [cubes[c] for c in kids] for m, kids in stopping_children(fam).items()
    }
    avg = _weighted_averages(members, fam.family.config, f, w)
    wsums = cube_sums(w.values, fam.family.config)
    volume = fam.family.config.cell_volume
    mass = {q: float(wsums[q.level][cube_index(q)] * volume) for q in members}
    child_mass_ok = all(
        sum(mass[c] for c in children[q]) <= mass[q] / 2.0
        for q in members
        if children.get(q)
    )
    sum_value = sum(avg[q] ** p * mass[q] for q in members)
    bound_value = 2.0 * (p / (p - 1.0)) ** p * lp_norm(f, w, p) ** p
    passed = sum_value <= bound_value
    return stopping.CarlesonReport(child_mass_ok, sum_value, bound_value, passed)


def _bilinear_oracle(Sprime, f2, h, sigma2, v, sigma1):
    cfg = Sprime.config
    for g in (f2, h, sigma2, v, sigma1):
        if g.config != cfg:
            raise ValueError("grid mismatch")
    for q in Sprime.cubes:
        check_cube(q, cfg)
    roots, _ = _forest_oracle(Sprime.cubes)
    if len(roots) != 1:
        raise ValueError("family must have a single maximal cube")
    if float(f2.values.min()) < 0.0 or float(h.values.min()) < 0.0:
        raise ValueError("decomposition requires nonnegative f2 and h")
    fam2 = _build_stopping_oracle(Sprime, f2, sigma2)
    famh = _build_stopping_oracle(Sprime, h, v)
    s1sums = cube_sums(sigma1.values, cfg)
    s2sums = cube_sums(sigma2.values, cfg)
    vsums = cube_sums(v.values, cfg)
    i1 = i2 = total = 0.0
    for q in Sprime.cubes:
        k, i = q.level, cube_index(q)
        count = cfg.cells_per_cube(k)
        lam = (
            (s1sums[k][i] / count)
            * (s2sums[k][i] / count)
            * (vsums[k][i] * cfg.cell_volume)
        )
        term = fam2["wavg"][q] * famh["wavg"][q] * lam
        total += term
        rel = relation(
            _stopping_parent_oracle(famh["members"], q),
            _stopping_parent_oracle(fam2["members"], q),
        )
        if rel in (Relation.EQUAL, Relation.Q_INSIDE_R):
            i1 += term
        else:
            i2 += term
    return i1, i2, total


def _restrict_oracle(S, qt):
    check_cube(qt, S.config)
    kept = [
        q for q in S.cubes if relation(q, qt) in (Relation.EQUAL, Relation.Q_INSIDE_R)
    ]
    return family_from_cubes(S.config, kept)


def _split_oracle(S, qt, f1, f2):
    cfg = S.config
    if f1.config != cfg or f2.config != cfg:
        raise ValueError("grid mismatch")
    check_cube(qt, cfg)
    outside = np.ones(cfg.cell_count, dtype=bool)
    cell_view(outside, qt, cfg)[...] = False
    if np.any(f2.values[outside] != 0.0):
        raise ValueError("localization hypothesis violated: supp f2 not inside qt")
    a1 = level_averages(f1.restricted(qt).values, cfg)
    a2 = level_averages(f2.values, cfg)
    big = np.zeros(cfg.cell_count)
    small = np.zeros(cfg.cell_count)
    for q in S.cubes:
        rel = relation(qt, q)
        if rel in (Relation.EQUAL, Relation.Q_INSIDE_R):
            target = big
        elif rel is Relation.R_INSIDE_Q:
            target = small
        else:
            continue
        i = cube_index(q)
        cell_view(target, q, cfg)[...] += a1[q.level][i] * a2[q.level][i]
    return GridFunction(cfg, big), GridFunction(cfg, small)


def _sparse_sum_norm_ratios_oracle(S, w1, w2, P):
    cfg = S.config
    s1, s2, v = dual_weight(w1, P.p1), dual_weight(w2, P.p2), joint_weight(w1, w2, P)
    a1 = level_averages(s1.values, cfg)
    a2 = level_averages(s2.values, cfg)
    av = level_averages(v.values, cfg)
    apv = _apvec_oracle(w1, w2, P).value
    sum1 = np.zeros(cfg.cell_count)
    sum2 = np.zeros(cfg.cell_count)
    carleson1 = carleson2 = 0.0
    for q in S.cubes:
        k, i = q.level, cube_index(q)
        vol = q.volume
        cell_view(sum1, q, cfg)[...] += a1[k][i] * a2[k][i]
        cell_view(sum2, q, cfg)[...] += a1[k][i] * av[k][i]
        carleson1 += a1[k][i] ** (P.p / P.p1) * a2[k][i] ** (P.p / P.p2) * vol
        carleson2 += (
            a1[k][i] ** (P.p2_prime / P.p1) * av[k][i] ** (P.p2_prime / P.p_prime) * vol
        )
    lhs1 = lp_norm(GridFunction(cfg, sum1), v, P.p)
    rhs1 = apv ** (1.0 / P.p) * carleson1 ** (1.0 / P.p)
    lhs2 = lp_norm(GridFunction(cfg, sum2), s2, P.p2_prime)
    rhs2 = apv ** (1.0 / P.p) * carleson2 ** (1.0 / P.p2_prime)
    return wtc._make_report(lhs1, rhs1), wtc._make_report(lhs2, rhs2)


def _argmax_over_levels_oracle(per_level, config):
    """Max over all cubes of per-level lists, ties broken by enumeration order."""
    best = -np.inf
    at = None
    for k, arr in enumerate(per_level):
        i = int(np.argmax(arr))
        v = float(arr[i])
        if v > best:
            best = v
            at = (k, i)
    return wc.ConstantReport(best, at, config.dimension)


def _joint_per_level_oracle(w1, w2, P):
    """Per-cube <v>_Q <s1>_Q^{p/p1'} <s2>_Q^{p/p2'}, derived and pooled here."""
    cfg = w1.config
    shared = same_slots(w1, w2, P)
    v = joint_weight(w1, w2, P)
    s1 = dual_weight(w1, P.p1)
    s2 = s1 if shared else dual_weight(w2, P.p2)
    av = level_averages(v.values, cfg)
    a1 = level_averages(s1.values, cfg)
    a2 = a1 if shared else level_averages(s2.values, cfg)
    e1 = P.p / P.p1_prime
    e2 = P.p / P.p2_prime
    return [av[k] * a1[k] ** e1 * a2[k] ** e2 for k in range(cfg.finest_level + 1)]


def _apvec_oracle(w1, w2, P):
    if w1.config != w2.config:
        raise ValueError("grid mismatch")
    return _argmax_over_levels_oracle(_joint_per_level_oracle(w1, w2, P), w1.config)


def _ap_per_level_oracle(w, p):
    cfg = w.config
    pc = p / (p - 1.0)
    aw = level_averages(w.values, cfg)
    ad = level_averages(w.values ** (1.0 - pc), cfg)
    return [aw[k] * ad[k] ** (p - 1.0) for k in range(cfg.finest_level + 1)]


def _ap_oracle(w, p):
    return _argmax_over_levels_oracle(_ap_per_level_oracle(w, p), w.config)


def _check_constant_inequalities_oracle(w1, w2, P, rtol=1e-10):
    apvec = _apvec_oracle(w1, w2, P).value
    v = joint_weight(w1, w2, P)
    s1 = dual_weight(w1, P.p1)
    s2 = dual_weight(w2, P.p2)
    joint_ap = _ap_oracle(v, 2.0 * P.p).value
    sigma1_ap = _ap_oracle(s1, 2.0 * P.p1_prime).value
    sigma2_ap = _ap_oracle(s2, 2.0 * P.p2_prime).value
    joint_bound = apvec
    sigma1_bound = apvec ** (P.p1_prime / P.p)
    sigma2_bound = apvec ** (P.p2_prime / P.p)
    ok = (
        joint_ap <= joint_bound * (1.0 + rtol)
        and sigma1_ap <= sigma1_bound * (1.0 + rtol)
        and sigma2_ap <= sigma2_bound * (1.0 + rtol)
    )
    return InequalityReport(
        apvec, joint_ap, sigma1_ap, sigma2_ap, joint_bound, sigma1_bound, sigma2_bound, ok
    )


def _dualize_first_entry_oracle(w1, w2, P):
    if w1.config != w2.config:
        raise ValueError("grid mismatch")
    v = joint_weight(w1, w2, P)
    w1_new = Weight(w1.config, v.values ** (1.0 - P.p_prime))
    P_new = ExponentTuple(P.p_prime, P.p2)
    power = P.p1_prime / P.p
    orig = _joint_per_level_oracle(w1, w2, P)
    new = _joint_per_level_oracle(w1_new, w2, P_new)
    err = 0.0
    for k in range(w1.config.finest_level + 1):
        expected = orig[k] ** power
        err = max(err, float(np.max(np.abs(new[k] - expected) / expected)))
    return w1_new, w2, P_new, err


def _local_sigma_testing_ratio_oracle(S, w1, w2, P, f2, qt):
    """The ratio with apvec_constant called on the pair again (checks skipped)."""
    s1, s2, v = dual_weight(w1, P.p1), dual_weight(w2, P.p2), joint_weight(w1, w2, P)
    n2 = lp_norm(f2, s2, P.p2)
    g = sparse_eval(S, s1.restricted(qt), abs(f2) * s2)
    lhs = lp_norm(g.restricted(qt), v, P.p)
    a1, a2, av = (ainfty_constant(x).value for x in (s1, s2, v))
    mixed = max(min(a1, a2) ** (1.0 / P.p), min(a1, av) ** (1.0 / P.p2_prime))
    rhs = (
        mixed
        * _apvec_oracle(w1, w2, P).value ** (1.0 / P.p)
        * n2
        * weighted_measure(s1, qt) ** (1.0 / P.p1)
    )
    return wtc._make_report(lhs, rhs)


# --- the sweep -----------------------------------------------------------------


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as e:
        return ("raised", type(e), str(e))


def _bits(g):
    return g.values.tobytes()


def _unverified(rng, S):
    """An unverified family built from S's cubes shuffled, one listed twice."""
    cubes = list(S.cubes) + [S.cubes[int(rng.integers(0, len(S)))]]
    rng.shuffle(cubes)
    return SparseFamily(S.config, tuple(cubes))


def _check_stopping(S, f, w):
    fam = build_stopping(S, f, w)
    want = _build_stopping_oracle(S, f, w)
    cubes = S.cubes
    assert member_cubes(fam) == want["members"]
    assert fam.generation.tolist() == [want["generation"].get(q, -1) for q in cubes]
    children = stopping_children(fam)
    assert {cubes[m]: tuple(cubes[c] for c in kids) for m, kids in children.items()} == want[
        "children"
    ]
    maximal = np.flatnonzero(fam.generation == 0).tolist()
    assert tuple(cubes[j] for j in maximal) == want["maximal"]
    assert fam.wavg.tolist() == [want["wavg"][q] for q in cubes]
    for p in (1.3, 2.5):
        assert stopping.carleson_checks(fam, p) == _carleson_oracle(fam, f, w, p)
    for q in all_cubes(S.config):  # family cubes, cubes outside, and the error case
        assert _outcome(stopping_parent, fam, q) == _outcome(
            _stopping_parent_oracle, want["members"], q
        )


def _check_at(rng, S, qt):
    """restrict, the split and the decomposition at a family cube qt."""
    cfg = S.config
    Sp = restrict(S, qt)
    assert Sp.cubes == _restrict_oracle(S, qt).cubes
    f1 = random_function(rng, cfg)
    f2 = random_function(rng, cfg).restricted(qt)
    split = sparse_split_eval(S, qt, f1, f2)
    assert [_bits(g) for g in split] == [_bits(g) for g in _split_oracle(S, qt, f1, f2)]
    for fam in (Sp, _unverified(rng, Sp)):
        P = random_exponents(rng)
        w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
        pair = pair_weights(w1, w2, P)
        f2, h = random_function(rng, cfg), random_function(rng, cfg)
        assert bilinear_form_decompose(fam, f2, h, pair) == _bilinear_oracle(
            fam, f2, h, pair.s2, pair.v, pair.s1
        )


def _check_family(rng, S):
    cfg = S.config
    _check_stopping(S, random_function(rng, cfg), random_weight(rng, cfg))
    for _ in range(2):
        _check_at(rng, S, S.cubes[int(rng.integers(0, len(S)))])
    P = random_exponents(rng)
    w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
    assert wtc.sparse_sum_norm_ratios(
        S, pair_weights(w1, w2, P)
    ) == _sparse_sum_norm_ratios_oracle(S, w1, w2, P)


_GRIDS = [GridConfig(1, K) for K in range(1, 9)] + [GridConfig(2, K) for K in range(1, 5)]


@pytest.mark.parametrize("config", _GRIDS, ids=lambda c: f"{c.dimension}d-K{c.finest_level}")
def test_positions_match_cube_walks(config):
    rng = np.random.default_rng(config.dimension * 100 + config.finest_level)
    for seed in range(3):
        for budget in (0.1, 0.3, 0.5):
            S = generate_sparse(config, seed, budget)
            if len(S) == 0:
                continue
            _check_family(rng, S)
            _check_family(rng, _unverified(rng, S))


@pytest.mark.parametrize("config", [GridConfig(1, 5), GridConfig(2, 3)], ids=["1d", "2d"])
def test_positions_match_cube_walks_on_arbitrary_cube_sets(rng, config):
    """Families that need not be sparse or have one maximal cube."""
    pool = list(all_cubes(config))
    for _ in range(40):
        cubes = [pool[i] for i in rng.integers(0, len(pool), int(rng.integers(1, 12)))]
        S = SparseFamily(config, tuple(cubes))
        _check_stopping(S, random_function(rng, config), random_weight(rng, config))
        qt = pool[int(rng.integers(0, len(pool)))]
        got, want = _outcome(restrict, S, qt), _outcome(_restrict_oracle, S, qt)
        if isinstance(want, SparseFamily):
            got, want = got.cubes, want.cubes
        assert got == want
        f1 = random_function(rng, config)
        f2 = random_function(rng, config).restricted(qt)
        assert [_bits(g) for g in sparse_split_eval(S, qt, f1, f2)] == [
            _bits(g) for g in _split_oracle(S, qt, f1, f2)
        ]
        s = Weight(config, np.ones(config.cell_count))
        pair = pair_weights(s, s, ExponentTuple(2.0, 3.0))
        args = (S, f1, random_function(rng, config))
        assert _outcome(bilinear_form_decompose, *args, pair) == _outcome(
            _bilinear_oracle, *args, pair.s2, pair.v, pair.s1
        )


def test_errors_and_their_precedence_match_the_oracles():
    cfg, other = GridConfig(1, 4), GridConfig(1, 3)
    S = family_from_cubes(cfg, [cube(1, 0), cube(1, 1), cube(3, 0)])
    one = Weight(cfg, np.ones(cfg.cell_count))
    neg = GridFunction(cfg, -np.ones(cfg.cell_count))
    wrong = Weight(other, np.ones(other.cell_count))
    for args in [
        (SparseFamily(cfg, ()), neg, wrong),  # empty first
        (S, neg, wrong),  # grid before sign
        (S, neg, one),
    ]:
        got = _outcome(build_stopping, *args)
        assert got == _outcome(_build_stopping_oracle, *args)
        assert got[0] == "raised"
    P = ExponentTuple(2.0, 3.0)
    for args, pair in [
        ((S, neg, neg), pair_weights(wrong, wrong, P)),  # grid before roots and sign
        ((S, neg, neg), pair_weights(one, one, P)),  # roots before sign
        ((restrict(S, cube(1, 0)), one, neg), pair_weights(one, one, P)),
    ]:
        got = _outcome(bilinear_form_decompose, *args, pair)
        assert got == _outcome(_bilinear_oracle, *args, pair.s2, pair.v, pair.s1)
        assert got[0] == "raised"
    for args in [
        (S, cube(5, 0), one, wrong),  # grid before the cube check
        (S, cube(5, 0), one, one),
        (S, cube(2, 1), one, one),  # localization
    ]:
        got = _outcome(sparse_split_eval, *args)
        assert got == _outcome(_split_oracle, *args)
        assert got[0] == "raised"
    for qt in (cube(5, 0), cube(2, 0, 0)):
        got = _outcome(restrict, S, qt)
        assert got == _outcome(_restrict_oracle, S, qt)
        assert got[0] == "raised"
    # a family cannot hold a cube off its grid: construction raises
    with pytest.raises(ValueError, match="cube dimension does not match grid"):
        SparseFamily(cfg, (cube(1, 0), cube(1, 0, 1)))
    with pytest.raises(ValueError, match="cube is finer than the grid"):
        SparseFamily(cfg, (cube(0, 0), cube(5, 0)))


def test_no_relation_or_parent_call_on_family_cubes(monkeypatch, rng):
    calls = []

    def counted(real):
        def wrapper(*args):
            calls.append(real.__name__)
            return real(*args)

        return wrapper

    for mod in (sparse, stopping):
        for name in ("relation", "parent"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    cfg = GridConfig(2, 4)
    S = generate_sparse(cfg, 3, 0.3)
    f, w = random_function(rng, cfg), random_weight(rng, cfg)
    fam = build_stopping(S, f, w)
    stopping.carleson_checks(fam, 2.0)
    pair = pair_weights(w, w, ExponentTuple(2.0, 3.0))
    for q in S.cubes:
        stopping_parent(fam, q)
        Sp = restrict(S, q)
        sparse_split_eval(S, q, f, f.restricted(q))
        bilinear_form_decompose(Sp, f, f, pair)
    assert calls == []
    outside = next(q for q in all_cubes(cfg) if q not in S)
    stopping_parent(fam, outside)  # the counter sees the climb of a cube outside
    assert calls and set(calls) == {"parent"}


# --- one evaluator: the level sweep against the cube loops ---------------------


def _eval_families(rng, config):
    """Generated families, the tower, a restriction and the two split parts
    at one of its cubes, unverified and arbitrary cube sets, the empty
    family and every cube of the grid (every atom but the finest empty)."""
    for seed, budget in ((0, 0.1), (1, 0.3), (2, 0.5)):
        S = generate_sparse(config, seed, budget)
        if len(S):
            yield S
    yield tower_family(config)
    S = generate_sparse(config, 3, 0.35)
    qt = S.cubes[int(rng.integers(0, len(S)))]
    yield restrict(S, qt)
    for part in sparse._nested_with(S, qt):
        yield SparseFamily(config, [S.cubes[j] for j in np.flatnonzero(part)])
    yield _unverified(rng, S)
    pool = list(all_cubes(config))
    yield SparseFamily(config, tuple(pool[i] for i in rng.integers(0, len(pool), 9)))
    yield SparseFamily(config, ())
    yield SparseFamily(config, tuple(pool))


_EVAL_GRIDS = [GridConfig(1, K) for K in range(1, 11)] + [
    GridConfig(2, K) for K in range(1, 6)
]


@pytest.mark.parametrize("config", _EVAL_GRIDS, ids=lambda c: f"{c.dimension}d-K{c.finest_level}")
def test_level_sweep_matches_cube_loops(config):
    rng = np.random.default_rng(1000 + config.dimension * 100 + config.finest_level)
    for S in _eval_families(rng, config):
        labels = _atom_labels_oracle(S.cubes, config)
        want_cells = [config.cells_per_cube(q.level) for q in S.cubes]
        assert S.cells.dtype == np.float64 and S.cells.tolist() == want_cells
        for signed in (False, True):
            f1 = random_function(rng, config, signed)
            f2 = random_function(rng, config)
            assert _bits(sparse_eval(S, f1, f2)) == _bits(_sparse_eval_oracle(S, f1, f2))
        for shape in ((), (3,), (2, 3)):
            coef = rng.normal(0.0, 1.0, shape + (len(S),))
            got = S.images(coef)
            assert got.shape == shape + (len(S) + 1,)
            assert got.tobytes() == _images_oracle(S, coef).tobytes()
        w = random_weight(rng, config)
        want = np.bincount(labels, weights=w.values, minlength=len(S) + 1)
        assert S.masses(w).tobytes() == (want * config.cell_volume).tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_sparse_eval_errors_match_the_oracle():
    cfg, other = GridConfig(1, 4), GridConfig(2, 2)  # both have 16 cells
    S = tower_family(cfg)
    one = GridFunction(cfg, np.ones(cfg.cell_count))
    huge = GridFunction(cfg, np.full(cfg.cell_count, 1e200))  # the image overflows
    wrong = GridFunction(other, np.ones(other.cell_count))
    for args in [(S, one, wrong), (S, wrong, one), (S, huge, huge)]:
        got = _outcome(sparse_eval, *args)
        assert got == _outcome(_sparse_eval_oracle, *args)
        assert got[0] == "raised"


def test_sparse_eval_on_a_painted_family_walks_no_cube(monkeypatch, rng):
    """After the paint, sparse_eval reads family positions only: no
    level-average pyramid and no per-cube view of the cells."""
    cfg = GridConfig(2, 4)
    S = generate_sparse(cfg, 3, 0.3)
    S.paint
    calls = []

    def counted(name):
        def wrapper(*args, **kwargs):
            calls.append(name)

        return wrapper

    for name in ("level_averages", "cell_view"):
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("weaksparse") and hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name))
        monkeypatch.setattr(sparse, name, counted(name), raising=False)
    sparse_eval(S, random_function(rng, cfg), random_function(rng, cfg))
    assert calls == []


# --- one derivation per weight pair ---------------------------------------------


def _weight_pairs(rng, cfg):
    """A random pair, then diagonal pairs (w2 is w1) each with an equal but
    distinct copy in slot 2: a random weight and, in 1D, a power weight."""
    yield random_weight(rng, cfg), random_weight(rng, cfg), random_exponents(rng)
    q = float(rng.uniform(2.5, 12.0))
    D = ExponentTuple(q, q)
    diagonal = [random_weight(rng, cfg)]
    if cfg.dimension == 1:
        delta = 2.0 ** -int(rng.integers(1, 9))
        diagonal.append(power_weight((1.0 - delta) * (q - 1.0), cfg))
    for w in diagonal:
        yield w, w, D
        yield w, Weight(cfg, w.values), D


_PAIR_GRIDS = [GridConfig(1, K) for K in range(2, 11)] + [
    GridConfig(2, K) for K in range(1, 6)
]


@pytest.mark.parametrize(
    "config", _PAIR_GRIDS, ids=lambda c: f"{c.dimension}d-K{c.finest_level}"
)
def test_pooled_once_constants_match_the_derive_and_pool_bodies(config):
    rng = np.random.default_rng(1000 + config.dimension * 100 + config.finest_level)
    for _ in range(2):
        S = generate_sparse(config, int(rng.integers(0, 2**31)), 0.3)
        if len(S) == 0:
            S = tower_family(config)
        qt = S.cubes[int(rng.integers(0, len(S)))]
        f2 = _random_nonneg(rng, config, zeros=0.0)
        for w1, w2, P in _weight_pairs(rng, config):
            pair = pair_weights(w1, w2, P)
            assert wc.apvec_constant(pair) == _apvec_oracle(w1, w2, P)
            assert wc.check_constant_inequalities(
                pair
            ) == _check_constant_inequalities_oracle(w1, w2, P)
            dual, err = wc.dualize_first_entry(pair)
            got = (dual.w1, dual.w2, dual.P, err)
            want = _dualize_first_entry_oracle(w1, w2, P)
            assert _bits(got[0]) == _bits(want[0]) and got[1] is w2
            assert got[2:] == want[2:]
            assert wtc.sparse_sum_norm_ratios(
                S, pair
            ) == _sparse_sum_norm_ratios_oracle(S, w1, w2, P)
            for q, f in ((cube(0, *(0,) * config.dimension), f2), (qt, f2.restricted(qt))):
                assert wtc.local_sigma_testing_ratio(
                    S, pair, f, q
                ) == _local_sigma_testing_ratio_oracle(S, w1, w2, P, f, q)


def _count_calls(monkeypatch, homes: dict) -> dict:
    """Calls of each function homes names (name -> home module) from any module."""
    counts = {}
    for name, home in homes.items():
        real = getattr(home, name)
        counts[name] = 0

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("weaksparse") and getattr(
                mod, name, None
            ) is real:
                monkeypatch.setattr(mod, name, counted)
    return counts


def _count_derivations(monkeypatch) -> dict:
    """Calls of level_averages, dual_weight and joint_weight from any module."""
    homes = {"level_averages": dyadic_module, "dual_weight": measure, "joint_weight": measure}
    return _count_calls(monkeypatch, homes)


def _unshared_pair():
    cfg = GridConfig(1, 6)
    rng = np.random.default_rng(11)
    S = tower_family(cfg)
    f2 = _random_nonneg(rng, cfg, zeros=0.0)
    w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
    return S, w1, w2, ExponentTuple(2.0, 3.0), f2


@pytest.mark.parametrize(
    "name, pools, duals, joints",
    [
        ("apvec_constant", 3, 2, 1),
        ("check_constant_inequalities", 3, 2, 1),  # A_p pools its dual power in its walk
        # s2 and its averages serve both pairs; the fourth dual is v's
        ("dualize_first_entry", 5, 4, 2),
        ("sparse_sum_norm_ratios", 3, 2, 1),
        ("local_sigma_testing_ratio", 3, 2, 1),
    ],
)
def test_one_call_derives_and_pools_each_weight_once(monkeypatch, name, pools, duals, joints):
    S, w1, w2, P, f2 = _unshared_pair()
    calls = {
        "apvec_constant": lambda: wc.apvec_constant(pair_weights(w1, w2, P)),
        "check_constant_inequalities": lambda: wc.check_constant_inequalities(
            pair_weights(w1, w2, P)
        ),
        "dualize_first_entry": lambda: wc.dualize_first_entry(pair_weights(w1, w2, P)),
        "sparse_sum_norm_ratios": lambda: wtc.sparse_sum_norm_ratios(
            S, pair_weights(w1, w2, P)
        ),
        "local_sigma_testing_ratio": lambda: wtc.local_sigma_testing_ratio(
            S, pair_weights(w1, w2, P), f2, S.cubes[0]
        ),
    }
    counts = _count_derivations(monkeypatch)
    calls[name]()
    assert counts == {"level_averages": pools, "dual_weight": duals, "joint_weight": joints}


def test_a_diagonal_pair_pools_one_dual_weight(monkeypatch):
    cfg = GridConfig(1, 6)
    w = power_weight(4.0, cfg)
    counts = _count_derivations(monkeypatch)
    wc.check_constant_inequalities(pair_weights(w, w, ExponentTuple(6.0, 6.0)))
    assert counts == {"level_averages": 2, "dual_weight": 1, "joint_weight": 1}


def test_constants_command_derives_each_weight_once(monkeypatch, tmp_path, capsys):
    from weaksparse import cli
    from weaksparse.serialize import save_grid_function

    _, w1, w2, _, _ = _unshared_pair()
    save_grid_function(w1, tmp_path / "w1.json")
    save_grid_function(w2, tmp_path / "w2.json")
    counts = _count_derivations(monkeypatch)
    weights = f"{tmp_path / 'w1.json'},{tmp_path / 'w2.json'}"
    assert cli.main(["constants", "--weights", weights, "--p1", "2", "--p2", "3"]) == 0
    assert counts == {"level_averages": 3, "dual_weight": 2, "joint_weight": 1}
    assert '"inequalities_pass": true' in capsys.readouterr().out


def test_dual_transform_check_pools_each_weight_once(monkeypatch):
    """Both pairs of each of its 50 trials pool once: 5 pools a trial, as
    test_one_call_derives_and_pools_each_weight_once pins for the transform,
    and the two joint constants read the kept averages."""
    counts = _count_calls(monkeypatch, {"level_averages": dyadic_module})
    assert verify.check_dual_transform_identity(verify._DEFAULT_SEED)["pass"]
    assert counts == {"level_averages": 250}


def test_localized_check_pools_and_bounds_each_pair_once(monkeypatch):
    """8 family points, 4 f2 each: one pair per point, pooled and bounded
    once (3 pools a point)."""
    homes = {"level_averages": dyadic_module, "ainfty_constant": wc}
    counts = _count_calls(monkeypatch, homes)
    assert verify.check_localized_testing_family(verify._DEFAULT_SEED)["pass"]
    assert counts == {"level_averages": 24, "ainfty_constant": 24}


def test_default_suite_pools_each_weight_once(monkeypatch):
    homes = {
        "level_averages": dyadic_module,
        "ainfty_constant": wc,
        "apvec_constant": wc,
        "pair_weights": wc,
    }
    counts = _count_calls(monkeypatch, homes)
    assert verify.run_suite("all")["passed"]
    assert counts["level_averages"] <= 545 and counts["ainfty_constant"] <= 49
    assert counts["apvec_constant"] <= 187 and counts["pair_weights"] <= 254


# families are built from cubes (SparseFamily) or from keys (_family)
_POOLING = {"cube_sums": dyadic_module, "SparseFamily": sparse, "_family": sparse}


def test_build_stopping_keeps_its_data_and_w_sums(rng):
    for config in (GridConfig(1, 6), GridConfig(2, 3)):
        S = generate_sparse(config, 1, 0.3)
        f, w = random_function(rng, config), random_weight(rng, config)
        fam = build_stopping(S, f, w)
        assert fam.f is f and fam.w is w
        assert fam.family is S and fam.wsum.shape == (len(S),)  # one per cube, in key order
        assert fam.wsum.tobytes() == S.sums(w).tobytes()


def test_carleson_checks_pools_nothing(monkeypatch, rng):
    """The members' averages and w-sums are the stopping family's own."""
    cfg = GridConfig(2, 4)
    S = generate_sparse(cfg, 3, 0.3)
    fam = build_stopping(S, random_function(rng, cfg), random_weight(rng, cfg))
    counts = _count_calls(monkeypatch, _POOLING)
    for p in (1.3, 2.5):
        stopping.carleson_checks(fam, p)
    assert counts == {"cube_sums": 0, "SparseFamily": 0, "_family": 0}


def test_bilinear_decomposition_pools_five_times(monkeypatch, rng):
    """Each stopping family pools its weight and f times it; lambda_Q reads
    their w-sums and pools s1 alone."""
    cfg = GridConfig(2, 4)
    S = generate_sparse(cfg, 3, 0.3)
    Sp = restrict(S, S.cubes[0])
    pair = pair_weights(random_weight(rng, cfg), random_weight(rng, cfg), ExponentTuple(2.0, 3.0))
    f2, h = random_function(rng, cfg), random_function(rng, cfg)
    counts = _count_calls(monkeypatch, _POOLING)
    bilinear_form_decompose(Sp, f2, h, pair)
    assert counts == {"cube_sums": 5, "SparseFamily": 0, "_family": 0}


def test_default_suite_pools_each_stopping_family_once(monkeypatch):
    """2,165 cube_sums calls and 666 SparseFamily constructions when the
    Carleson checks and the decomposition pooled again."""
    counts = _count_calls(monkeypatch, _POOLING)
    assert verify.run_suite("all")["passed"]
    assert counts["cube_sums"] <= 1565
    assert counts["SparseFamily"] + counts["_family"] <= 466


def test_slope_run_derives_each_family_point_once(monkeypatch):
    """8 points of a 1D K = 12 power family at (2, 3): one pair each, two
    duals and one joint weight, and one joint constant."""
    cfg = GridConfig(1, 12)
    spec = WeightFamilySpec("power", tuple(2.0**-k for k in range(1, 9)))
    homes = {
        "pair_weights": wc,
        "apvec_constant": wc,
        "level_averages": dyadic_module,
        "dual_weight": measure,
        "joint_weight": measure,
    }
    counts = _count_calls(monkeypatch, homes)
    slope_experiment(spec, ExponentTuple(2.0, 3.0), cfg, tower_family(cfg))
    assert counts == {
        "pair_weights": 8,
        "apvec_constant": 8,
        "level_averages": 24,
        "dual_weight": 16,
        "joint_weight": 8,
    }


# --- one body per quantity ---------------------------------------------------------
#
# The former bodies of weak_norm, atom_norms, kolmogorov_check, ainfty_constant
# (over its own one-level pyramid), cells_of and the sparsity verdict, which
# now share the weak kernel, cube_sums, cell_view and the family's witness.


def _weak_norm_oracle(f, w, p):
    a = np.abs(f.values)
    order = np.argsort(-a, kind="stable")
    av = a[order]
    mass = np.cumsum(w.values[order]) * f.config.cell_volume
    last = np.nonzero(np.append(av[1:] != av[:-1], True))[0]
    t = av[last]
    m = mass[last]
    pos = t > 0.0
    if not pos.any():
        return 0.0
    return float(np.max(t[pos] * m[pos] ** (1.0 / p)))


def _atom_norms_oracle(values, masses, p):
    a = np.abs(values)
    strong = (a**p * masses).sum(axis=-1) ** (1.0 / p)
    order = np.argsort(-a, axis=-1, kind="stable")
    av = np.take_along_axis(a, order, axis=-1)
    mass = np.cumsum(masses[order], axis=-1)
    last = np.ones(av.shape, dtype=bool)
    last[..., :-1] = av[..., 1:] != av[..., :-1]
    weak = np.where(last & (av > 0.0), av * mass ** (1.0 / p), 0.0).max(axis=-1)
    return strong, weak


def _kolmogorov_oracle(f, q, p):
    vals = np.abs(cell_view(f.values, q, f.config)).ravel()
    n = vals.size
    lhs = float(np.mean(vals**p)) ** (1.0 / p)
    sv = np.sort(vals)[::-1]
    ranks = np.arange(1, n + 1) / n
    weak1 = float(np.max(sv * ranks)) if n else 0.0
    const = (1.0 / p + 1.0 / (1.0 - p)) ** (1.0 / p)
    rhs = const * weak1
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-12)


def _pool_level_sums_oracle(cell_values, level, config):
    cur = np.asarray(cell_values, dtype=np.float64)
    for _ in range(config.finest_level - level):
        cur = dyadic_module._halve(cur, config.dimension)
    return cur


def _ainfty_oracle(w):
    cfg = w.config
    K = cfg.finest_level
    sums = cube_sums(w.values, cfg)
    averages = [sums[k] / cfg.cells_per_cube(k) for k in range(K + 1)]
    running = w.values.copy()
    per_level = [None] * (K + 1)
    per_level[K] = np.ones_like(sums[K])
    for k in range(K - 1, -1, -1):
        running = np.maximum(running, dyadic_module.expand_level_values(averages[k], k, cfg))
        per_level[k] = _pool_level_sums_oracle(running, k, cfg) / sums[k]
    return _argmax_over_levels_oracle(per_level, cfg)


def _cells_of_oracle(q, config):
    m = 1 << (config.finest_level - q.level)
    if config.dimension == 1:
        c = q.coords[0]
        return np.arange(c * m, (c + 1) * m, dtype=np.int64)
    a, b = q.coords
    side = config.side_cells
    rows = np.arange(a * m, (a + 1) * m, dtype=np.int64) * side
    cols = np.arange(b * m, (b + 1) * m, dtype=np.int64)
    return (rows[:, None] + cols[None, :]).ravel()


def _canonical_witness_oracle(S):
    sizes = S._atom_cells[:-1]
    bad = np.flatnonzero(2 * sizes < S.cells)
    if bad.size:
        return False, S.cubes[bad[0]]
    cells = np.argsort(S.paint[0], kind="stable")
    return True, dict(zip(S.cubes, np.split(cells, np.cumsum(sizes))))


_IDS = lambda c: f"{c.dimension}d-K{c.finest_level}"  # noqa: E731


def _hard_values(rng, shape):
    """Rows with ties, zeros, an all-zero row and magnitudes 1e-150 to 1e150."""
    n = shape[-1]
    rows = [
        rng.normal(0.0, 2.0, shape),
        rng.integers(-2, 3, shape).astype(np.float64),  # ties and zeros
        10.0 ** rng.uniform(-150.0, 150.0, shape) * rng.choice([-1.0, 0.0, 1.0], shape),
        np.zeros(shape),
        np.full(shape, 1e-150),
        np.where(rng.random(shape) < 0.5, 1e150, 1e-150),
    ]
    if n > 1:
        one = np.zeros(shape)
        one[..., int(rng.integers(0, n))] = 3.0
        rows.append(one)
    return rows


def _hard_weights(rng, n):
    return [
        np.exp(rng.uniform(-1.5, 1.5, n)),
        np.ones(n),
        10.0 ** rng.uniform(-150.0, 150.0, n),
    ]


def _same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow to inf at 1e150
@pytest.mark.parametrize("config", _EVAL_GRIDS, ids=_IDS)
def test_weak_kernel_matches_the_three_former_bodies(config):
    rng = np.random.default_rng(2000 + 100 * config.dimension + config.finest_level)
    n = config.cell_count
    ps = (0.3, 1.0, float(rng.uniform(1.1, 12.0)), 40.0)
    for vals in _hard_values(rng, (n,)):
        f = GridFunction(config, vals)
        for wv in _hard_weights(rng, n):
            w = Weight(config, wv)
            for p in ps:
                assert _same_bits(measure.weak_norm(f, w, p), _weak_norm_oracle(f, w, p))
    atoms = int(rng.integers(1, n + 2))
    for vals in _hard_values(rng, (3, 2, atoms)):
        for masses in _hard_weights(rng, atoms):
            for p in ps:
                got = measure.atom_norms(vals, masses, p)
                want = _atom_norms_oracle(vals, masses, p)
                assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    corner = (0,) * config.dimension
    cubes = [cube(k, *corner) for k in range(config.finest_level + 1)]
    cubes.append(list(all_cubes(config))[-1])
    for vals in _hard_values(rng, (n,)):
        f = GridFunction(config, vals)
        for q in cubes:
            for p in (0.1, 0.5, float(rng.uniform(0.01, 0.99))):
                assert measure.kolmogorov_check(f, q, p) == _kolmogorov_oracle(f, q, p)


def _sweep_weights(rng, config):
    """Random weights, weights from 1e-150 to 1e150, in 1D power weights, and
    weights near underflow: from 1e-305 to 1e-295, whose dual powers come
    near or past overflow, and one with subnormal cells."""
    n = config.cell_count
    weights = [random_weight(rng, config) for _ in range(3)]
    weights.append(Weight(config, 10.0 ** rng.uniform(-150.0, 150.0, n)))
    if config.dimension == 1:
        weights += [power_weight(a, config) for a in (-0.9, -0.5, 0.5, 5.0)]
    weights.append(Weight(config, 10.0 ** rng.uniform(-305.0, -295.0, n)))
    weights.append(Weight(config, np.where(rng.random(n) < 0.5, 5e-324, 1e-300)))
    return weights


def _same_report(got, want):
    return _same_bits(got.value, want.value) and got.argmax_cube == want.argmax_cube


@pytest.mark.parametrize("config", _EVAL_GRIDS, ids=_IDS)
def test_ainfty_over_cube_sums_matches_the_one_level_pyramid(config):
    rng = np.random.default_rng(3000 + 100 * config.dimension + config.finest_level)
    for w in _sweep_weights(rng, config):
        assert _same_report(ainfty_constant(w), _ainfty_oracle(w))


def _assert_walk_matches_list(walk, name, per_level, config):
    """walk() reports the list body's maximum and witness bit for bit when
    every level of per_level is finite, and else refuses the finest level
    that is not."""
    bad = [k for k, values in enumerate(per_level) if not np.isfinite(values).all()]
    if bad:
        with pytest.raises(ValueError, match=f"^{name} at level {bad[-1]} is not finite$"):
            walk()
    else:
        assert _same_report(walk(), _argmax_over_levels_oracle(per_level, config))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN at the extremes
@pytest.mark.parametrize("config", _EVAL_GRIDS, ids=_IDS)
def test_ap_and_joint_walks_match_the_list_bodies(config):
    """A_p and the joint constant, walked level by level, against the bodies
    that kept every level's values and reduced the list at the end: value
    and witness bit for bit where every level is finite, and the refusal of
    the finest level that holds inf or NaN where one does."""
    rng = np.random.default_rng(4000 + 100 * config.dimension + config.finest_level)
    weights = _sweep_weights(rng, config)
    # p - 1 = 1, 0.5 and 2 are numpy's fast exponents; the others are not
    ps = (2.0, 1.5, 3.0, float(rng.uniform(1.01, 12.0)), 40.0)
    for w in weights:
        for p in ps:
            _assert_walk_matches_list(
                lambda: wc.ap_constant(w, p), "A_p constant", _ap_per_level_oracle(w, p), config
            )
    q = float(rng.uniform(1.5, 12.0))
    for w1, w2 in zip(weights, weights[1:] + weights[:1]):
        for a, b, P in [(w1, w2, random_exponents(rng)), (w1, w1, ExponentTuple(q, q))]:
            try:
                pair = pair_weights(a, b, P)
            except ValueError:  # a dual weight overflows
                assert _outcome(_apvec_oracle, a, b, P)[0] == "raised"
                continue
            per_level = _joint_per_level_oracle(a, b, P)
            _assert_walk_matches_list(
                lambda: wc.apvec_constant(pair), "joint constant", per_level, config
            )


def test_joint_walk_over_several_chunks_matches_the_list_body():
    """Finest levels of one chunk of _CHUNK_CELLS (1D K = 15) and of several
    (1D K = 16 and 17, 2D K = 8; at 1D K = 17 levels 16 and 17 take 2 and 4
    chunks) give the list body's joint constant and dual transform error bit
    for bit, off and on the diagonal."""
    for cfg, chunks in [(GridConfig(1, 17), 4), (GridConfig(1, 15), 1),
                        (GridConfig(1, 16), 2), (GridConfig(2, 8), 2)]:
        assert cfg.cell_count == chunks * wc._CHUNK_CELLS
        rng = np.random.default_rng(cfg.finest_level)
        w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
        for a, b, P in [(w1, w2, ExponentTuple(2.0, 3.0)), (w1, w1, ExponentTuple(6.0, 6.0))]:
            pair = pair_weights(a, b, P)
            assert _same_report(wc.apvec_constant(pair), _apvec_oracle(a, b, P))
            _, err = wc.dualize_first_entry(pair)
            assert _same_bits(err, _dualize_first_entry_oracle(a, b, P)[3])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the dual power of 1e-300
@pytest.mark.parametrize("config", _EVAL_GRIDS, ids=_IDS)
def test_level_walks_on_a_constant_weight_witness_the_unit_cube(config):
    """Every cube of every level ties, so the first cube in enumeration
    order, level 0 at the origin, is the witness of each constant."""
    origin = cube(0, *(0,) * config.dimension)
    other = Weight(config, np.full(config.cell_count, 2.0))
    for c in (1.0, 3.0, 0.3, 2.0**-40, 1e-300):
        w = Weight(config, np.full(config.cell_count, c))
        reports = [(ainfty_constant(w), _ainfty_oracle(w))]
        reports += [(wc.ap_constant(w, p), _ap_oracle(w, p)) for p in (2.0, 3.0, 7.3)]
        for w2, P in [(w, ExponentTuple(4.0, 4.0)), (other, ExponentTuple(2.0, 3.0))]:
            got = wc.apvec_constant(pair_weights(w, w2, P))
            reports.append((got, _apvec_oracle(w, w2, P)))
        for got, want in reports:
            assert _same_report(got, want) and got.argmax_cube == origin


@pytest.mark.parametrize("config", _GRIDS, ids=_IDS)
def test_cells_of_matches_its_block_arithmetic(config):
    for q in all_cubes(config):
        got, want = dyadic_module.cells_of(q, config), _cells_of_oracle(q, config)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _same_verdict(got, want):
    if got[0] != want[0]:
        return False
    if not want[0]:
        return got[1] == want[1]
    a, b = got[1], want[1]
    return list(a) == list(b) and all(np.array_equal(a[q], b[q]) for q in a)


@pytest.mark.parametrize("config", _GRIDS, ids=_IDS)
def test_witness_and_verdict_match_the_former_body(config):
    rng = np.random.default_rng(4000 + 100 * config.dimension + config.finest_level)
    every = list(all_cubes(config))
    sets = [S.cubes for S in _eval_families(rng, config)]
    sets += [every, every[1:]]
    sets += [[every[i] for i in rng.choice(len(every), 3)] for _ in range(8)]
    kinds = set()
    for cubes in sets:
        listed = list(cubes) + list(cubes[:1])
        rng.shuffle(listed)
        want = _canonical_witness_oracle(SparseFamily(config, cubes))
        kinds.add(want[0])
        assert _same_verdict(sparse.verify_sparse(listed, config), want)
        S = SparseFamily(config, listed)
        assert _same_verdict((S.witness is not None, S.witness), want if want[0] else (False, None))
        if want[0]:
            assert family_from_cubes(config, listed) == S
        else:
            with pytest.raises(ValueError, match=f"witness fails at {re.escape(str(want[1]))}"):
                family_from_cubes(config, listed)
    assert kinds == {True, False}
