"""Plumbing tests for the bulk property suites.

The mathematical content of each suite is covered by the targeted module
tests; here we pin the runner contract: determinism, seed behavior, trial
accounting, and the violation-folding rules of the tally.
"""

import math

import pytest

from hessquot.selfcheck import (
    ALL_SUITES,
    DEFAULT_SEED,
    QUICK_TRIALS,
    SuiteReport,
    _Tally,
    run_suites,
)


class TestTally:
    def test_clean_checks_keep_negative_ratio(self):
        t = _Tally()
        t.add("slacky", -5e-13, 1e-12)
        assert t.worst_ratio == -0.5
        assert t.worst_check == "slacky"

    def test_ratio_clamped_at_minus_one(self):
        t = _Tally()
        t.add("very_slacky", -1.0, 1e-12)
        assert t.worst_ratio == -1.0

    def test_exact_budget_zero(self):
        t = _Tally()
        t.add("exact_ok", 0.0, 0.0)
        assert t.worst_ratio == 0.0
        t.add("exact_broken", 1e-300, 0.0)
        assert t.worst_ratio == math.inf
        assert t.worst_check == "exact_broken"

    def test_worst_wins(self):
        t = _Tally()
        t.add("small", 1e-13, 1e-12, count=10)
        t.add("big", 5e-12, 1e-12, count=3)
        t.add("medium", 2e-13, 1e-12)
        assert t.worst_check == "big"
        assert t.worst_ratio == pytest.approx(5.0)
        assert t.checks == 14


@pytest.fixture(scope="module")
def reports():
    return run_suites(trials=2000)


class TestReports:
    def test_all_suites_pass(self, reports):
        for rep in reports:
            assert rep.passed, rep.line()

    def test_registry_order_and_names(self, reports):
        assert [rep.name for rep in reports] == [name for name, _ in ALL_SUITES]

    def test_deterministic(self, reports):
        again = run_suites(trials=2000)
        for a, b in zip(reports, again):
            assert (a.worst_ratio, a.worst_check, a.checks) == (
                b.worst_ratio,
                b.worst_check,
                b.checks,
            )

    def test_seed_changes_draws_not_outcomes(self, reports):
        other = run_suites(trials=2000, seed=DEFAULT_SEED + 1)
        assert any(
            a.worst_ratio != b.worst_ratio
            for a, b in zip(reports, other)
            if a.name != "cone_margin_oracle"  # exact-equality suite is all zeros
        )
        for rep in other:
            assert rep.passed, rep.line()

    def test_line_format(self, reports):
        assert reports[0].line().startswith("pass  symmetric_functions")
        failing = SuiteReport("demo", 10, 1, 5, 2.0, "broken", 0.1)
        assert failing.line().startswith("FAIL")
        assert not failing.passed


class TestRunSuites:
    def test_quick_trial_count_passes(self):
        reports = run_suites(trials=QUICK_TRIALS, names=["degiorgi"])
        assert reports[0].trials == QUICK_TRIALS
        assert reports[0].passed

    def test_name_selection(self):
        reports = run_suites(trials=500, names=["quotient_concavity", "strong_concavity"])
        assert [rep.name for rep in reports] == ["quotient_concavity", "strong_concavity"]

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown suite"):
            run_suites(names=["nope"])
