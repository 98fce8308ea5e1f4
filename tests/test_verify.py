import time

import numpy as np
import pytest

from weaksparse import dyadic as wd
from weaksparse.constants import pair_weights
from weaksparse import measure as wm
from weaksparse import testing_conditions as wtc
from weaksparse import verify as wv
from weaksparse.verify import SUITES, run_suite


def test_suite_names_cover_cli_choices():
    assert set(SUITES) == {"all", "dyadic", "lemmas", "stopping"}
    assert set(SUITES["all"]) >= set(SUITES["dyadic"]) | set(SUITES["stopping"])


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        run_suite("all", -1)


@pytest.mark.parametrize("seed", [1, 2026, 777])
def test_verdict_is_seed_independent(seed):
    report = run_suite("all", seed)
    assert report["passed"] is True
    assert report["seed"] == seed


def test_report_structure_and_runtime():
    start = time.perf_counter()
    report = run_suite("all")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert set(report) == {"suite", "seed", "passed", "checks"}
    names = [c["name"] for c in report["checks"]]
    assert names == list(SUITES["all"])
    for c in report["checks"]:
        assert isinstance(c["pass"], bool)


def test_failures_are_reported_not_thrown(monkeypatch):
    import weaksparse.verify as wv

    def boom(seed):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(wv._CHECKS, "dyadic_exhaustive", boom)
    report = run_suite("dyadic")
    assert report["passed"] is False
    failing = [c for c in report["checks"] if c["name"] == "dyadic_exhaustive"]
    assert "synthetic failure" in failing[0]["error"]


def _cellwise_local_testing_direction(seed):
    """check_local_testing_direction with one cellwise call per pair and cube."""
    rng = np.random.default_rng(seed)
    cfg = wd.GridConfig(1, 6)
    worst = 0.0
    failures = 0
    for _ in range(12):
        P = wv._random_exponents(rng)
        w1 = wv._random_weight(rng, cfg)
        w2 = wv._random_weight(rng, cfg)
        S = wv._random_family(rng, cfg)
        if len(S) == 0:
            continue
        fns = [
            wm.indicator(cfg, wd.cube(k, 0)) for k in range(0, cfg.finest_level, 2)
        ]
        fns.append(wv._random_nonneg(rng, cfg, zeros=0.0))
        pair = pair_weights(w1, w2, P)
        glob = max(
            wtc.global_weak_quantity(S, pair, fa, fb)
            for fa in fns
            for fb in fns
        )
        loc = max(
            wtc.local_testing_quantity(S, pair, fa, fb, q)
            for fa in fns
            for fb in fns
            for q in S.cubes
        )
        worst = max(worst, loc / glob)
        if loc > wv.LOCAL_GLOBAL_FACTOR * glob:
            failures += 1
    return {"pass": failures == 0, "failures": failures, "max_local_over_global": worst}


@pytest.mark.parametrize("seed", [wv._DEFAULT_SEED, 1, 7, 12345])
def test_local_testing_direction_matches_cellwise_check(seed):
    report = wv._jsonable(wv.check_local_testing_direction(seed))
    assert report == wv._jsonable(_cellwise_local_testing_direction(seed))
    assert report["max_local_over_global"] > 0.0


def test_joint_constant_check_computes_each_constant_once(monkeypatch):
    """Its 8 diagonal power pairs share one weight and skip build_family's
    constants, which the check never read: one derivation per pair."""
    calls = []
    real = wv.wc.pair_weights

    def counted(w1, w2, P):
        calls.append(w2 is w1)
        return real(w1, w2, P)

    monkeypatch.setattr(wv.wc, "pair_weights", counted)
    assert wv.check_joint_constant_inequalities(3)["pass"]
    assert len(calls) == 50 + 8 and calls.count(True) == 8


def test_delta_family_ratios_run_once_per_seed(monkeypatch):
    calls = []
    real = wtc.local_sigma_testing_ratio

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wtc, "local_sigma_testing_ratio", counted)
    wv.check_localized_testing_family(5)
    assert len(calls) == 8 * 4  # 8 deltas x 4 functions
    wv.check_sparse_sum_ratio_family(5)
    assert len(calls) == 8 * 4  # the aggregate check computes no localized row


def test_delta_family_is_computed_once_per_run(monkeypatch):
    wv.check_localized_testing_family(5)  # a direct call leaves nothing behind
    calls = []
    real = wtc.sparse_sum_norm_ratios

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wtc, "sparse_sum_norm_ratios", counted)
    first = run_suite("lemmas", 5)
    assert len(calls) == 8  # computed afresh, by the aggregate check only
    assert run_suite("lemmas", 5) == first
    assert len(calls) == 16  # the same seed again is computed again

