"""The stopping, restriction and split code on family positions, against the
cube walks it replaced.

The oracles below are the former bodies of build_stopping (a breadth-first
walk of the containment forest), stopping_parent (a parent climb),
carleson_checks (sorted members, sums read from the cube-sum pyramid),
bilinear_form_decompose (routing by relation), restrict, sparse_split_eval
and sparse_sum_norm_ratios (cell loops routed by relation).  The sweep
asserts bit-for-bit agreement on generated families and on their cubes
listed shuffled and with a repeat, which the constructor normalises.
"""

from collections import deque

import numpy as np
import pytest

from conftest import random_exponents, random_function, random_weight
from test_sparse import _forest_oracle
from weaksparse import sparse, stopping
from weaksparse import testing_conditions as wtc
from weaksparse.constants import apvec_constant
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
from weaksparse.measure import GridFunction, Weight, dual_weight, joint_weight, lp_norm
from weaksparse.sparse import (
    SparseFamily,
    family_from_cubes,
    generate_sparse,
    restrict,
    sparse_split_eval,
)
from weaksparse.stopping import bilinear_form_decompose, build_stopping, stopping_parent

_KEY = lambda q: (q.level, q.coords)  # noqa: E731


# --- the oracles ---------------------------------------------------------------


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
    members = sorted(fam.members, key=_KEY)
    avg = _weighted_averages(members, fam.config, f, w)
    wsums = cube_sums(w.values, fam.config)
    volume = fam.config.cell_volume
    mass = {q: float(wsums[q.level][cube_index(q)] * volume) for q in members}
    child_mass_ok = all(
        sum(mass[c] for c in fam.children[q]) <= mass[q] / 2.0
        for q in members
        if fam.children.get(q)
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
    apv = apvec_constant(w1, w2, P).value
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
    ctx = f"S={len(S)} cubes, P=({P.p1:g},{P.p2:g})"
    return wtc._make_report(lhs1, rhs1, ctx), wtc._make_report(lhs2, rhs2, ctx)


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
    assert fam.members == want["members"]
    assert fam.generation == want["generation"]
    assert fam.children == want["children"]
    assert fam.maximal == want["maximal"]
    assert fam.wavg == want["wavg"]
    for p in (1.3, 2.5):
        assert stopping.carleson_checks(fam, f, w, p) == _carleson_oracle(fam, f, w, p)
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
        args = (
            fam,
            random_function(rng, cfg),
            random_function(rng, cfg),
            dual_weight(w2, P.p2),
            joint_weight(w1, w2, P),
            dual_weight(w1, P.p1),
        )
        assert bilinear_form_decompose(*args) == _bilinear_oracle(*args)


def _check_family(rng, S):
    cfg = S.config
    _check_stopping(S, random_function(rng, cfg), random_weight(rng, cfg))
    for _ in range(2):
        _check_at(rng, S, S.cubes[int(rng.integers(0, len(S)))])
    P = random_exponents(rng)
    w1, w2 = random_weight(rng, cfg), random_weight(rng, cfg)
    assert wtc.sparse_sum_norm_ratios(S, w1, w2, P) == _sparse_sum_norm_ratios_oracle(
        S, w1, w2, P
    )


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
        args = (S, f1, random_function(rng, config), s, s, s)
        assert _outcome(bilinear_form_decompose, *args) == _outcome(_bilinear_oracle, *args)


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
    for args in [
        (S, neg, neg, one, wrong, one),  # grid before roots and sign
        (S, neg, neg, one, one, one),  # roots before sign
        (restrict(S, cube(1, 0)), one, neg, one, one, one),
    ]:
        got = _outcome(bilinear_form_decompose, *args)
        assert got == _outcome(_bilinear_oracle, *args)
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
    stopping.carleson_checks(fam, f, w, 2.0)
    for q in S.cubes:
        stopping_parent(fam, q)
        Sp = restrict(S, q)
        sparse_split_eval(S, q, f, f.restricted(q))
        bilinear_form_decompose(Sp, f, f, w, w, w)
    assert calls == []
    outside = next(q for q in all_cubes(cfg) if q not in S)
    stopping_parent(fam, outside)  # the counter sees the climb of a cube outside
    assert calls and set(calls) == {"parent"}
