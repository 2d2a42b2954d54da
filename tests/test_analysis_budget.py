"""Tests for the candidate budgets of the pseudo-polynomial scans."""

import pytest

from repro.analysis.budget import AnalysisBudgetExceeded, CandidateBudget
from repro.analysis.points import breakpoints_in
from repro.analysis.resetting import resetting_time
from repro.analysis.speedup import min_speedup, speedup_schedulable
from repro.model.task import MCTask
from repro.model.taskset import TaskSet
from repro.pipeline import AnalysisRequest, BatchRunner
from repro.pipeline.grouping import evaluate_chunk_grouped
from tests.conftest import multi_window_set


def near_critical_set() -> TaskSet:
    """HI-mode demand rate barely below the interesting speedups: the
    crossing horizon of Corollary 5 becomes enormous, so a bounded scan
    must either finish inside the budget or fail loudly."""
    return TaskSet(
        [
            MCTask.hi("h1", c_lo=1.0, c_hi=999.0, d_lo=1.0, d_hi=1000.0, period=1000.0),
            MCTask.hi("h2", c_lo=0.001, c_hi=0.9, d_lo=0.01, d_hi=1.0, period=1.0),
        ]
    )


class TestCandidateBudget:
    def test_charge_accumulates(self):
        budget = CandidateBudget(100, operation="test")
        budget.charge(60)
        assert budget.examined == 60
        assert budget.remaining == 40
        budget.charge(40)
        assert budget.remaining == 0

    def test_charge_raises_past_limit(self):
        budget = CandidateBudget(10, operation="test", context="window=(0, 5)")
        with pytest.raises(AnalysisBudgetExceeded) as err:
            budget.charge(11)
        assert err.value.operation == "test"
        assert err.value.examined == 11
        assert err.value.budget == 10
        assert "window=(0, 5)" in str(err.value)
        assert "max_candidates" in str(err.value)

    def test_rejects_non_positive_limit(self):
        with pytest.raises(ValueError):
            CandidateBudget(0)


class TestBreakpointsBudget:
    def test_budget_charged_by_enumeration(self, table1):
        budget = CandidateBudget(10_000, operation="points")
        pts = breakpoints_in(table1, 0.0, 40.0, kind="adb", budget=budget)
        assert budget.examined == pts.size

    def test_budget_exceeded_raises(self, table1):
        budget = CandidateBudget(3, operation="points")
        with pytest.raises(AnalysisBudgetExceeded):
            breakpoints_in(table1, 0.0, 400.0, kind="adb", budget=budget)


class TestResettingBudget:
    def test_small_budget_raises_with_diagnostics(self):
        ts = near_critical_set()
        # s barely above the HI-mode rate: the crossing horizon is huge.
        with pytest.raises(AnalysisBudgetExceeded) as err:
            resetting_time(ts, 1.9, max_candidates=1_000)
        message = str(err.value)
        assert "resetting_time" in message
        assert "scan reached" in message

    def test_default_budget_sufficient_for_canonical_sets(self, table1):
        result = resetting_time(table1, 2.0)
        assert result.delta_r == pytest.approx(6.0)

    def test_generous_budget_still_succeeds(self, table1):
        result = resetting_time(table1, 2.0, max_candidates=50)
        assert result.delta_r == pytest.approx(6.0)


class TestSpeedupBudget:
    def test_inexact_result_by_default(self):
        ts = multi_window_set()
        result = min_speedup(ts, max_candidates=50)
        assert not result.exact
        assert result.s_min < min_speedup(ts).s_min <= result.upper_bound

    def test_raise_mode(self):
        ts = multi_window_set()
        exact = min_speedup(ts)
        assert exact.exact
        assert exact.candidates_examined > 50
        with pytest.raises(AnalysisBudgetExceeded) as err:
            min_speedup(ts, max_candidates=50, on_budget="raise")
        assert "min_speedup" in str(err.value)

    def test_on_budget_validation(self, table1):
        with pytest.raises(ValueError):
            min_speedup(table1, on_budget="explode")
        with pytest.raises(ValueError):
            speedup_schedulable(table1, 2.0, on_budget="explode")

    def test_schedulable_raise_mode(self):
        ts = multi_window_set()
        # Just above s_min = 0.37898: the supply-line horizon B/(s - rate)
        # spans far more than 100 breakpoints, none of them a violation.
        assert min_speedup(ts).s_min <= 0.379
        with pytest.raises(AnalysisBudgetExceeded):
            speedup_schedulable(ts, 0.379, max_candidates=100, on_budget="raise")

    def test_exact_results_unchanged(self, table1):
        result = min_speedup(table1)
        assert result.exact
        assert result.s_min == pytest.approx(4.0 / 3.0)


class TestCertifiedVerdicts:
    """A budget-cut ``s_min`` is only a lower bound: a HI-mode verdict at a
    target speedup must compare the certified ``upper_bound`` instead."""

    #: Between the cut scan's lower bound (0.37840) and the exact s_min
    #: (0.37898): HI mode is infeasible at this speed, yet a verdict on
    #: the lower bound would call it feasible.
    SPEEDUP = 0.3787

    @pytest.mark.parametrize("population", [False, True])
    def test_request_hi_ok_uses_upper_bound(self, population):
        # ``population`` selects the grouped evaluator; a lone request
        # through the runner takes the per-item path.
        ts = multi_window_set()
        assert self.SPEEDUP < min_speedup(ts).s_min
        request = AnalysisRequest(taskset=ts, speedup=self.SPEEDUP, max_candidates=50)
        if population:
            [report] = evaluate_chunk_grouped([request])
        else:
            [report] = BatchRunner(jobs=1).run([request])
        assert report.speedup is not None and not report.speedup.exact
        assert report.speedup.s_min < self.SPEEDUP < report.speedup.upper_bound
        assert report.hi_ok is False

    def test_schedulable_resume_needs_a_proof(self):
        # s = 0.379 is feasible (s_min = 0.37898), but the budget caps the
        # whole Theorem-2 scan and the proof takes 159 candidates, so the
        # verdict stays False until a budget covers them.
        ts = multi_window_set()
        assert not speedup_schedulable(ts, 0.379, max_candidates=50)
        assert not speedup_schedulable(ts, 0.379, max_candidates=100)
        assert speedup_schedulable(ts, 0.379, max_candidates=200)
