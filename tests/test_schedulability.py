"""Unit tests for the dual-mode schedulability tests."""

import math

import pytest

from repro.analysis.population import lo_mode_schedulable_many, resetting_many
from repro.analysis.resetting import resetting_time
from repro.analysis.schedulability import (
    hi_mode_schedulable,
    lo_mode_schedulable,
    system_schedulable,
)
from repro.api import AnalysisReport, analyze
from repro.model.task import MCTask
from repro.model.taskset import TaskSet


class TestLoMode:
    def test_feasible_set(self, table1):
        assert lo_mode_schedulable(table1)

    def test_overloaded_set(self):
        ts = TaskSet(
            [
                MCTask.lo("a", c=5, d_lo=8, t_lo=8),
                MCTask.lo("b", c=5, d_lo=10, t_lo=10),
            ]
        )
        assert not lo_mode_schedulable(ts)  # utilization 1.125

    def test_deadline_constrained_infeasible_despite_low_utilization(self):
        """Demand criterion catches short deadlines the utilization misses."""
        ts = TaskSet(
            [
                MCTask.lo("a", c=2, d_lo=2, t_lo=10),
                MCTask.lo("b", c=2, d_lo=2, t_lo=10),
            ]
        )
        # Utilization is only 0.4, but both jobs demand 4 units by t=2.
        assert not lo_mode_schedulable(ts)

    def test_exact_boundary(self):
        ts = TaskSet([MCTask.lo("a", c=5, d_lo=5, t_lo=5)])
        assert lo_mode_schedulable(ts), "utilization exactly 1 with D=T"

    def test_speed_parameter(self):
        ts = TaskSet(
            [
                MCTask.lo("a", c=2, d_lo=2, t_lo=10),
                MCTask.lo("b", c=2, d_lo=2, t_lo=10),
            ]
        )
        assert lo_mode_schedulable(ts, speed=2.0)

    def test_empty(self):
        assert lo_mode_schedulable(TaskSet([]))
        assert not lo_mode_schedulable(
            TaskSet([MCTask.lo("a", c=1, d_lo=2, t_lo=2)]), speed=0.0
        )

    def test_hi_tasks_use_shortened_deadlines(self):
        """The LO-mode test sees HI tasks' D(LO), not D(HI)."""
        tight = TaskSet(
            [
                MCTask.hi("h", c_lo=4, c_hi=8, d_lo=4, d_hi=20, period=20),
                MCTask.lo("l", c=4, d_lo=4, t_lo=8),
            ]
        )
        # At Delta = 4 the demand is 8 > 4.
        assert not lo_mode_schedulable(tight)


class TestHiMode:
    def test_matches_speedup_result(self, table1):
        assert hi_mode_schedulable(table1, 4.0 / 3.0)
        assert not hi_mode_schedulable(table1, 1.2)


class TestNanSpeed:
    """Every guard is written so that a NaN speed fails: a NaN compares
    false both ways, so ``speed <= 0.0`` would let it through."""

    @pytest.mark.parametrize("front_end", ["scalar", "compiled", "population"])
    def test_nan_is_never_schedulable(self, table1, front_end):
        nan = math.nan
        if front_end == "population":
            assert lo_mode_schedulable_many([table1], nan) == [False]
            with pytest.raises(ValueError, match="speedup must be positive, got nan"):
                resetting_many([table1], nan)
            return
        # Table I needs s_min = 4/3: unit speed already fails HI mode.
        assert hi_mode_schedulable(table1, 1.0, engine=front_end) is False
        assert hi_mode_schedulable(table1, nan, engine=front_end) is False
        assert lo_mode_schedulable(table1, nan, engine=front_end) is False
        with pytest.raises(ValueError, match="speedup must be positive, got nan"):
            resetting_time(table1, nan, engine=front_end)


class TestSystemReport:
    """The dual-mode protocol, read off the report of ``repro.api.analyze``."""

    def test_without_target_speedup(self, table1):
        report = analyze(table1)
        assert isinstance(report, AnalysisReport)
        assert report.lo_ok
        assert report.s_min == pytest.approx(4.0 / 3.0)
        assert report.target_speedup is None
        assert report.resetting_result is None
        assert report.hi_ok is None
        assert report.speedup.ok  # finite s_min exists

    def test_with_target_speedup(self, table1):
        report = analyze(table1, speedup=2.0)
        assert report.lo_ok and report.hi_ok
        assert report.delta_r == pytest.approx(6.0)
        assert report.resetting_result.within(6.0)
        assert not report.resetting_result.within(5.9)
        assert analyze(table1, speedup=2.0, budget=6.0).ok
        assert not analyze(table1, speedup=2.0, budget=5.9).ok

    def test_insufficient_speedup(self, table1):
        report = analyze(table1, speedup=1.2, budget=100.0)
        assert report.hi_ok is False
        assert report.resetting_result is None
        assert report.within_budget is False
        assert not report.ok

    def test_budget_without_target(self, table1):
        report = analyze(table1, budget=100.0)
        assert report.within_budget is False, "no resetting info"
        assert not report.ok

    def test_infinite_s_min_reported(self):
        ts = TaskSet([MCTask.hi("h", c_lo=2, c_hi=4, d_lo=8, d_hi=8, period=8)])
        report = analyze(ts)
        assert math.isinf(report.s_min)
        assert not report.speedup.ok

    def test_system_schedulable_forwards_to_analyze(self, table1):
        with pytest.warns(DeprecationWarning, match="repro.api.analyze"):
            report = system_schedulable(table1, 2.0)
        assert report.to_dict() == analyze(table1, speedup=2.0).to_dict()
