"""Acceptance gate: every check runs at its pinned tolerance and prints one
PASS/FAIL line.

All checks are exact closed-form comparisons or proof-shaped inequality
bounds; nothing here is statistical.  One check (criterion 10) is a
documented expected failure: the on-policy error bound with the exact
total-variation loss carries a constant that is provably too small by a
factor of up to two, and a rare random draw exhibits it.  The companion
factor-two bound is verified in tests/test_evaluate.py and the analysis
lives in the repository notes.
"""

import json
import time
from pathlib import Path

import pytest

from regretgap import harness
from regretgap.fixtures import random_deviation_class, random_mg
from regretgap.harness import (
    property_suite_results,
    run_suite,
    suite_br_oracle,
    suite_jirl_ub,
    suite_lemma1,
    suite_single_agent_eq,
)


def _report(num: int, name: str, rows) -> bool:
    ok = all(r.passed for r in rows)
    worst = max((r.runtime_ms for r in rows), default=0.0)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {name} "
          f"({len(rows)} checks, max {worst:.0f} ms)")
    for r in rows:
        if not r.passed:
            print(f"    failed: {r.fixture} measured={r.measured} "
                  f"expected={r.expected} bound={r.bound}")
    return ok


def test_criterion_01_occupancy_equal_pair_has_linear_regret_gap():
    rows = run_suite("thm3")
    assert _report(1, "occupancy-equal pair, regret gap H-2 for H in 4..32", rows)
    assert all(r.runtime_ms < 1000.0 for r in rows)


def test_criterion_02_coverage_construction_closed_forms():
    rows = run_suite("thm6-lb")
    assert _report(2, "coverage construction: bc error, moment error, gap 1.6", rows)


def test_criterion_03_single_agent_fork_loss_vs_gap():
    rows = run_suite("thm8-lb") + run_suite("thm10-lb")
    assert _report(3, "fork construction: losses <= eps, gap eps*H*(u'-1) = 0.5", rows)


def test_criterion_04_cloning_and_malice_bounds_on_random_suite():
    rows = run_suite("jbc-ub") + run_suite("malice-ub")
    assert _report(4, "j_bc and malice regret-gap bounds, 50 games, zero violations", rows)


def test_criterion_05_blades_bound_and_query_logging():
    rows = run_suite("blades-ub")
    assert _report(5, "blades regret-gap bound with positive query counts", rows)
    recs = property_suite_results()
    assert all(r["blades_queries"] > 0 for r in recs)


def test_property_suite_matches_its_pinned_outputs():
    """Every game's beta, u, expert regret, each learner's eps, regret and
    gap, and BLADES's query count, against tests/data: floats to 1e-12,
    counts exactly.  A BLAS other than the one that wrote the file may move
    a float by an ulp; a field that moves further is a changed result."""
    pinned = json.loads((Path(__file__).parent / "data" / "property_suite_pinned.json")
                        .read_text())["games"]
    recs = property_suite_results()
    assert [rec["index"] for rec in recs] == [row["index"] for row in pinned]
    for rec, row in zip(recs, pinned):
        for field, want in row.items():
            if isinstance(want, int):
                assert rec[field] == want, (rec["index"], field)
            else:
                assert abs(rec[field] - want) <= 1e-12, (rec["index"], field, rec[field], want)


def test_memoized_training_time_is_charged_to_rows():
    recs = property_suite_results()
    assert all(r["train_ms"] > 0 for r in recs)
    for suite in ("jbc-ub", "malice-ub", "blades-ub", "thm4-ce"):
        rows = run_suite(suite)
        assert all(row.runtime_ms >= rec["train_ms"] for row, rec in zip(rows, recs))


def test_rows_add_up_to_no_more_than_the_wall_time_of_their_suite(monkeypatch):
    """A cold property suite is charged its training once, through each
    row's train_ms, and not again on the first row; a stub stands in for
    the 50-game training."""
    fx = random_mg(0, n_states=3, horizon=3, full_coverage_expert=True)
    rec = {"game": fx.game, "phi": random_deviation_class(fx.game, per_agent=2, seed=0),
           "H": 3, "m": 2, "beta": 0.5, "u": 1.0, "regret_expert": 0.0,
           "blades_queries": 1, "train_ms": 20.0}
    for algo in ("bc", "malice", "blades"):
        rec.update({f"{algo}_eps": 0.0, f"{algo}_gap": 0.0, f"{algo}_regret": 0.0,
                    f"{algo}_policy": fx.expert})
    records = [dict(rec, index=k) for k in range(5)]
    for suite in ("jbc-ub", "malice-ub", "blades-ub", "thm4-ce"):
        cache = []

        def stub():
            if not cache:
                time.sleep(0.1)     # the cold call trains the five games
                cache.append(records)
            return cache[0]

        monkeypatch.setattr(harness, "property_suite_results", stub)
        t0 = time.perf_counter()
        rows = run_suite(suite)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        assert len(rows) == 5 and all(row.runtime_ms >= 20.0 for row in rows)
        assert sum(row.runtime_ms for row in rows) <= wall_ms + 5.0
    t0 = time.perf_counter()
    rows = run_suite("nfg")
    assert sum(row.runtime_ms for row in rows) <= (time.perf_counter() - t0) * 1000.0 + 5.0


def test_criterion_06_trained_policies_remain_near_equilibrium():
    rows = run_suite("thm4-ce")
    assert _report(6, "expert regret + regret gap certifies trained policies", rows)


def test_criterion_07_single_agent_equivalence():
    rows = suite_single_agent_eq()
    assert _report(7, "regret gap == value gap on 100 single-agent games", rows)


def test_criterion_08_reward_sweep_direction_check():
    rows = run_suite("thm1-dir")
    assert _report(8, "indicator-reward sweep: value gaps all zero, regret gap not", rows)


def test_criterion_09_one_shot_game_multiple_equilibria():
    rows = run_suite("nfg")
    assert _report(9, "one-shot game: zero regrets, value difference 1/3", rows)


@pytest.mark.xfail(
    strict=True,
    reason="the on-policy error bound with the exact TV loss is stated with "
           "constant u*H, but the provable constant is 2*u*H; a rare random "
           "draw (a 2-state, 2-step game) exceeds the stated bound by 13%. "
           "The factor-two bound is verified in test_evaluate.py.",
)
def test_criterion_10_on_policy_error_bound_tv_constant():
    rows = suite_lemma1()
    assert _report(10, "value difference <= eps*u*H with eps = E[TV]", rows)


def test_criterion_11_best_response_dp_equals_enumeration():
    rows = suite_br_oracle()
    assert _report(11, "per-step DP == stationary brute force on layered games", rows)


def test_criterion_12_no_regret_certificate():
    rows = run_suite("oco-regret")
    assert _report(12, "EG average regret <= 2 sqrt(log A / N) at N=4096", rows)


def test_criterion_13_moment_matching_learner():
    rows = suite_jirl_ub()
    assert _report(13, "j_irl: value gap <= raw moment error, error <= 0.05", rows)
