"""Unit tests for Theorem 2 (minimum processor speedup)."""

import math

import numpy as np
import pytest

from repro.analysis.dbf import total_dbf_hi
from repro.analysis.kernels import compile_taskset, get_evaluator
from repro.analysis.population import min_speedup_many
from repro.analysis.speedup import SpeedupResult, min_speedup, speedup_schedulable
from repro.model.task import MCTask
from repro.model.taskset import TaskSet
from repro.model.transform import terminate_lo_tasks


class TestPaperOracles:
    def test_table1_example1(self, table1):
        result = min_speedup(table1)
        assert result.s_min == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert result.exact

    def test_table1_degraded(self, table1_degraded):
        result = min_speedup(table1_degraded)
        assert result.s_min == pytest.approx(0.875, abs=1e-9)
        assert not result.requires_speedup, "system can slow down (Example 1)"

    def test_divisor_zero_rule(self):
        """No LO-mode deadline shortening => infinite speedup (Sec. III)."""
        ts = TaskSet([MCTask.hi("h", c_lo=2, c_hi=4, d_lo=8, d_hi=8, period=8)])
        result = min_speedup(ts)
        assert math.isinf(result.s_min)
        assert result.critical_delta is None

    def test_equal_wcets_no_infinity(self):
        """D(LO) = D(HI) is fine when C(HI) = C(LO) (no extra load)."""
        ts = TaskSet([MCTask.hi("h", c_lo=2, c_hi=2, d_lo=8, d_hi=8, period=8)])
        assert math.isfinite(min_speedup(ts).s_min)


class TestComputation:
    def test_empty_taskset(self):
        result = min_speedup(TaskSet([]))
        assert result.s_min == 0.0 and result.exact

    def test_all_terminated(self):
        ts = terminate_lo_tasks(
            TaskSet([MCTask.lo("l", c=2, d_lo=6, t_lo=6)])
        )
        assert min_speedup(ts).s_min == 0.0

    def test_single_lo_task_density_one(self):
        """A lone non-degraded LO task needs exactly unit speed."""
        ts = TaskSet([MCTask.lo("l", c=3, d_lo=10, t_lo=10)])
        assert min_speedup(ts).s_min == pytest.approx(1.0)

    def test_certificate_delta_attains_ratio(self, table1):
        result = min_speedup(table1)
        demand = total_dbf_hi(table1, result.critical_delta)
        assert demand / result.critical_delta == pytest.approx(result.s_min)

    def test_result_is_sufficient(self, simple_pair):
        """No Delta violates the supply at the computed s_min."""
        s = min_speedup(simple_pair).s_min
        deltas = np.linspace(0.01, 300, 30001)
        demand = np.asarray(total_dbf_hi(simple_pair, deltas))
        assert np.all(demand <= s * deltas + 1e-6)

    def test_result_is_necessary(self, table1):
        """Slightly below s_min some interval is overloaded."""
        result = min_speedup(table1)
        s = 0.999 * result.s_min
        demand = total_dbf_hi(table1, result.critical_delta)
        assert demand > s * result.critical_delta

    def test_brute_force_cross_check(self, rng):
        """Dense scan on random sets never finds a higher ratio."""
        from tests.conftest import random_implicit_taskset

        for trial in range(10):
            ts = random_implicit_taskset(rng, n_hi=2, n_lo=2, x=0.5, y=2.0)
            result = min_speedup(ts)
            deltas = np.linspace(1e-3, 400, 40001)
            ratios = np.asarray(total_dbf_hi(ts, deltas)) / deltas
            assert ratios.max() <= result.s_min + 1e-6, f"trial {trial}"

    def test_float_conversion(self, table1):
        assert float(min_speedup(table1)) == pytest.approx(4.0 / 3.0)

    def test_dataclass_fields(self, table1):
        result = min_speedup(table1)
        assert isinstance(result, SpeedupResult)
        assert result.upper_bound >= result.s_min
        assert result.candidates_examined > 0


class TestMonotonicity:
    def test_more_preparation_never_hurts(self):
        """Smaller D(LO) for the HI task => s_min non-increasing."""
        previous = math.inf
        for d_lo in (7, 6, 5, 4, 3, 2):
            ts = TaskSet(
                [
                    MCTask.hi("h", c_lo=2, c_hi=4, d_lo=d_lo, d_hi=8, period=8),
                    MCTask.lo("l", c=2, d_lo=6, t_lo=6),
                ]
            )
            s = min_speedup(ts).s_min
            assert s <= previous + 1e-9
            previous = s

    def test_more_degradation_never_hurts(self, table1):
        previous = math.inf
        tau1 = table1.by_name("tau1")
        for y in (1.0, 1.5, 2.0, 3.0, 5.0):
            tau2 = MCTask.lo("tau2", c=2, d_lo=4, t_lo=4, d_hi=4 * y, t_hi=4 * y)
            s = min_speedup(TaskSet([tau1, tau2])).s_min
            assert s <= previous + 1e-9
            previous = s

    def test_termination_is_weakest_demand(self, table1):
        terminated = terminate_lo_tasks(table1)
        assert min_speedup(terminated).s_min <= min_speedup(table1).s_min + 1e-9


def _fig7_lone_hi_set(c_lo: float, period: float) -> TaskSet:
    """Fig.-7 shape: gamma = 10, the LO task terminated, and exact-x tuning
    clamped the lone HI task's D(LO) to C(LO), so its intercept is ~0."""
    return TaskSet(
        [
            MCTask.hi(
                "h", c_lo=c_lo, c_hi=10.0 * c_lo, d_lo=c_lo, d_hi=period,
                period=period,
            ),
            MCTask.lo("l", c=4.0, d_lo=31.0, t_lo=31.0, d_hi=math.inf, t_hi=math.inf),
        ]
    )


def _zero_intercept_set() -> TaskSet:
    """D(LO) = C(LO) and D(HI) = T in dyadic numbers: both DBF_HI
    intercepts are exactly 0.0 and the HI-mode rate is exactly 1.0."""
    return TaskSet(
        [
            MCTask.hi("a", c_lo=1.0, c_hi=2.0, d_lo=1.0, d_hi=4.0, period=4.0),
            MCTask.hi("b", c_lo=1.0, c_hi=4.0, d_lo=1.0, d_hi=8.0, period=8.0),
        ]
    )


class TestTightEnvelope:
    """The per-task DBF_HI intercept certifies the supremum early."""

    @pytest.mark.parametrize("engine", ["scalar", "compiled"])
    @pytest.mark.parametrize("c_lo, period", [(2.5, 97.3), (2.0, 97.0)])
    def test_fig7_lone_hi_task_certifies_in_first_window(self, engine, c_lo, period):
        ts = _fig7_lone_hi_set(c_lo, period)
        ev = get_evaluator(ts, engine)
        first = ev.breakpoints_in(0.0, ev.initial_window(), kind="dbf")
        result = min_speedup(ts, engine=engine)
        assert result.exact
        assert result.s_min == pytest.approx(ev.rate, rel=1e-15, abs=0.0)
        # Zero once the rounded intercept is 0.0, one window otherwise.
        assert result.candidates_examined <= first.size
        assert min_speedup_many([ts])[0] == result

    def test_zero_intercept_returns_rate(self):
        ts = _zero_intercept_set()
        assert compile_taskset(ts).dbf_excess == 0.0
        for result in (
            min_speedup(ts, engine="scalar"),
            min_speedup(ts),
            min_speedup_many([ts])[0],
        ):
            assert result.exact
            assert result.s_min == result.upper_bound == 1.0

    @pytest.mark.parametrize("engine", ["scalar", "compiled"])
    def test_zero_intercept_below_rate_not_schedulable(self, engine):
        ts = _zero_intercept_set()
        assert not speedup_schedulable(ts, 0.9, engine=engine)
        assert speedup_schedulable(ts, 1.0, engine=engine)


class TestSchedulableAt:
    def test_at_s_min(self, table1):
        s = min_speedup(table1).s_min
        assert speedup_schedulable(table1, s)
        assert speedup_schedulable(table1, s + 0.1)

    def test_below_s_min(self, table1):
        s = min_speedup(table1).s_min
        assert not speedup_schedulable(table1, 0.99 * s)

    def test_infinite_demand_never_schedulable(self):
        ts = TaskSet([MCTask.hi("h", c_lo=2, c_hi=4, d_lo=8, d_hi=8, period=8)])
        assert not speedup_schedulable(ts, 100.0)

    def test_empty_schedulable(self):
        assert speedup_schedulable(TaskSet([]), 0.1)

    def test_nonpositive_speed(self, table1):
        assert not speedup_schedulable(table1, 0.0)
        assert not speedup_schedulable(table1, -1.0)

    def test_consistency_with_min_speedup(self, rng):
        from tests.conftest import random_implicit_taskset

        for _ in range(10):
            ts = random_implicit_taskset(rng, n_hi=2, n_lo=1, x=0.6, y=1.5)
            s = min_speedup(ts).s_min
            assert speedup_schedulable(ts, s * 1.001)
            assert not speedup_schedulable(ts, s * 0.95)
