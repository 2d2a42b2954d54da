"""Unit tests for the demand-bound functions (Eqs. 4-10)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dbf import (
    FLOOR_SLACK,
    adb_hi,
    adb_hi_excess_bound,
    arrival_window,
    carry_over_demand,
    carry_over_window,
    dbf_hi,
    dbf_hi_excess_bound,
    dbf_hi_task_excess,
    dbf_lo,
    extended_mod,
    hi_mode_rate,
    total_adb_hi,
    total_dbf_hi,
    total_dbf_lo,
)
from repro.analysis.points import breakpoints_in
from repro.model.task import MCTask
from repro.model.taskset import TaskSet


@st.composite
def envelope_tasks(draw):
    """HI, plain LO, degraded LO and terminated tasks, constrained deadlines."""
    kind = draw(st.sampled_from(["hi", "lo", "degraded", "terminated"]))
    period = draw(st.floats(min_value=1.0, max_value=200.0))
    c_lo = draw(st.floats(min_value=0.01, max_value=period / 2))
    if kind == "hi":
        c_hi = min(draw(st.floats(min_value=1.0, max_value=10.0)) * c_lo, period)
        d_hi = draw(st.floats(min_value=c_hi, max_value=period))
        d_lo = draw(st.floats(min_value=c_lo, max_value=d_hi))
        return MCTask.hi("h", c_lo=c_lo, c_hi=c_hi, d_lo=d_lo, d_hi=d_hi, period=period)
    d_lo = draw(st.floats(min_value=c_lo, max_value=period))
    if kind == "lo":
        return MCTask.lo("l", c=c_lo, d_lo=d_lo, t_lo=period)
    if kind == "terminated":
        return MCTask.lo(
            "l", c=c_lo, d_lo=d_lo, t_lo=period, d_hi=math.inf, t_hi=math.inf
        )
    t_hi = draw(st.floats(min_value=1.0, max_value=4.0)) * period
    d_hi = draw(st.floats(min_value=d_lo, max_value=t_hi))
    return MCTask.lo("l", c=c_lo, d_lo=d_lo, t_lo=period, d_hi=d_hi, t_hi=t_hi)


def _probe_points(task: MCTask, periods: int) -> np.ndarray:
    """0, every DBF_HI breakpoint in ``(0, periods*T]`` and every midpoint."""
    horizon = periods * task.t_hi
    bps = breakpoints_in(TaskSet([task]), 0.0, horizon, kind="dbf")
    edges = np.concatenate(([0.0], bps))
    mids = 0.5 * (edges[:-1] + edges[1:])
    return np.sort(np.concatenate((edges, mids)))


class TestExtendedMod:
    def test_matches_integer_mod(self):
        assert extended_mod(7.0, 3.0) == pytest.approx(1.0)
        assert extended_mod(9.0, 3.0) == pytest.approx(0.0)

    def test_real_operands(self):
        assert extended_mod(7.5, 2.5) == pytest.approx(0.0)
        assert extended_mod(7.9, 2.5) == pytest.approx(0.4)

    def test_infinite_divisor(self):
        assert extended_mod(7.5, math.inf) == pytest.approx(7.5)

    def test_vectorized(self):
        out = extended_mod(np.array([0.0, 4.0, 5.0, 8.0]), 4.0)
        assert out == pytest.approx([0.0, 0.0, 1.0, 0.0])


class TestDbfLo:
    def test_eq4_values(self):
        t = MCTask.lo("l", c=2, d_lo=6, t_lo=6)
        assert dbf_lo(t, 0.0) == 0.0
        assert dbf_lo(t, 5.9) == 0.0
        assert dbf_lo(t, 6.0) == 2.0, "jump exactly at the deadline"
        assert dbf_lo(t, 11.9) == 2.0
        assert dbf_lo(t, 12.0) == 4.0

    def test_constrained_deadline(self):
        t = MCTask.lo("l", c=1, d_lo=3, t_lo=6)
        assert dbf_lo(t, 3.0) == 1.0
        assert dbf_lo(t, 8.9) == 1.0
        assert dbf_lo(t, 9.0) == 2.0

    def test_vectorized_matches_scalar(self):
        t = MCTask.lo("l", c=2, d_lo=5, t_lo=7)
        deltas = np.linspace(0, 50, 101)
        vec = dbf_lo(t, deltas)
        for d, v in zip(deltas, vec):
            assert dbf_lo(t, float(d)) == pytest.approx(v)


class TestCarryOver:
    def test_window_eq5(self):
        t = MCTask.hi("h", c_lo=2, c_hi=4, d_lo=4, d_hi=8, period=8)
        assert carry_over_window(t, 0.0) == pytest.approx(-4.0)
        assert carry_over_window(t, 4.0) == pytest.approx(0.0)
        assert carry_over_window(t, 7.0) == pytest.approx(3.0)
        assert carry_over_window(t, 8.0) == pytest.approx(-4.0), "mod wraps"

    def test_demand_eq6(self):
        t = MCTask.hi("h", c_lo=2, c_hi=4, d_lo=4, d_hi=8, period=8)
        assert carry_over_demand(t, -1.0) == 0.0
        assert carry_over_demand(t, 0.0) == pytest.approx(2.0), "C(HI)-C(LO)"
        assert carry_over_demand(t, 1.0) == pytest.approx(3.0)
        assert carry_over_demand(t, 5.0) == pytest.approx(4.0), "capped at C(HI)"

    def test_terminated_window_is_minus_inf(self):
        t = MCTask.lo("l", c=2, d_lo=6, t_lo=6, d_hi=math.inf, t_hi=math.inf)
        assert carry_over_window(t, 10.0) == -math.inf
        assert arrival_window(t, 10.0) == -math.inf


class TestDbfHi:
    def test_hand_computed_sequence(self):
        """tau1 = (C_LO=2, C_HI=4, D_LO=4, D_HI=T=8)."""
        t = MCTask.hi("h", c_lo=2, c_hi=4, d_lo=4, d_hi=8, period=8)
        expected = {0.0: 0, 3.9: 0, 4.0: 2, 5.0: 3, 6.0: 4, 7.9: 4, 8.0: 4, 12.0: 6, 16.0: 8}
        for delta, value in expected.items():
            assert dbf_hi(t, delta) == pytest.approx(value), f"Delta={delta}"

    def test_lo_task_in_hi_mode(self):
        """Non-degraded LO task: carry-over ramp from 0 with slope 1."""
        t = MCTask.lo("l", c=2, d_lo=6, t_lo=6)
        assert dbf_hi(t, 0.0) == pytest.approx(0.0)
        assert dbf_hi(t, 1.0) == pytest.approx(1.0)
        assert dbf_hi(t, 2.0) == pytest.approx(2.0)
        assert dbf_hi(t, 5.9) == pytest.approx(2.0)
        assert dbf_hi(t, 6.0) == pytest.approx(2.0)
        assert dbf_hi(t, 8.0) == pytest.approx(4.0)

    def test_degraded_lo_task(self):
        t = MCTask.lo("l", c=2, d_lo=4, t_lo=4, d_hi=15, t_hi=20)
        # gap = 11: no demand before Delta=11.
        assert dbf_hi(t, 10.9) == 0.0
        assert dbf_hi(t, 11.0) == pytest.approx(0.0)
        assert dbf_hi(t, 12.0) == pytest.approx(1.0)
        assert dbf_hi(t, 13.0) == pytest.approx(2.0)
        assert dbf_hi(t, 20.0) == pytest.approx(2.0)

    def test_terminated_is_zero(self):
        t = MCTask.lo("l", c=2, d_lo=6, t_lo=6, d_hi=math.inf, t_hi=math.inf)
        deltas = np.linspace(0, 100, 11)
        assert np.all(np.asarray(dbf_hi(t, deltas)) == 0.0)

    def test_zero_interval_demand_when_no_preparation(self):
        """D(LO) == D(HI) with C(HI) > C(LO): demand at Delta = 0."""
        t = MCTask.hi("h", c_lo=2, c_hi=4, d_lo=8, d_hi=8, period=8)
        assert dbf_hi(t, 0.0) == pytest.approx(2.0)

    def test_envelope_bound(self):
        """DBF_HI(Delta) <= rate * Delta + B for all sampled Delta."""
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=2, c_hi=4, d_lo=4, d_hi=8, period=8),
                MCTask.lo("l", c=2, d_lo=6, t_lo=6),
            ]
        )
        rate, excess = hi_mode_rate(ts), dbf_hi_excess_bound(ts)
        deltas = np.linspace(0, 200, 2001)
        demand = np.asarray(total_dbf_hi(ts, deltas))
        assert np.all(demand <= rate * deltas + excess + 1e-9)

    @given(task=envelope_tasks())
    @settings(max_examples=200, deadline=None)
    def test_tight_intercept_bounds_and_is_attained(self, task):
        """``DBF_HI <= U*Delta + b`` everywhere, with equality reached in
        the first period (the excess repeats every period)."""
        b = dbf_hi_task_excess(
            task.c_lo, task.c_hi, task.d_lo, task.d_hi, task.t_hi,
            task.terminated_in_hi,
        )
        assert b >= 0.0
        if task.terminated_in_hi:
            assert b == 0.0
            return
        u = task.c_hi / task.t_hi
        deltas = _probe_points(task, 3)
        excess = np.asarray(dbf_hi(task, deltas)) - u * deltas
        tol = FLOOR_SLACK * (1.0 + task.t_hi + deltas)
        assert np.all(excess <= b + tol)
        first = deltas <= task.t_hi
        assert excess[first].max() >= b - 1e-9 * task.c_hi

    def test_tight_intercept_closed_forms(self):
        # Implicit-deadline HI task: b = C(HI) * (x - C(LO)/T).
        t = MCTask.hi("h", c_lo=2.0, c_hi=4.0, d_lo=4.0, d_hi=8.0, period=8.0)
        assert dbf_hi_excess_bound(TaskSet([t])) == pytest.approx(4.0 * (0.5 - 0.25))
        # Single-job LO task (T(HI) = inf, D(HI) finite): b = C(HI).
        one = MCTask.lo("l", c=2.0, d_lo=4.0, t_lo=4.0, d_hi=10.0, t_hi=math.inf)
        assert dbf_hi_excess_bound(TaskSet([one])) == 2.0

    def test_monotone_nondecreasing(self):
        t = MCTask.hi("h", c_lo=3, c_hi=5, d_lo=4, d_hi=9, period=9)
        deltas = np.linspace(0, 100, 4001)
        values = np.asarray(dbf_hi(t, deltas))
        assert np.all(np.diff(values) >= -1e-9)


class TestAdbHi:
    def test_hand_computed_sequence(self):
        """tau1 = (2, 4, 4, 8, 8): w* = (D mod 8) - 4."""
        t = MCTask.hi("h", c_lo=2, c_hi=4, d_lo=4, d_hi=8, period=8)
        assert adb_hi(t, 0.0) == pytest.approx(4.0)
        assert adb_hi(t, 3.9) == pytest.approx(4.0)
        assert adb_hi(t, 4.0) == pytest.approx(6.0)
        assert adb_hi(t, 6.0) == pytest.approx(8.0)
        assert adb_hi(t, 8.0) == pytest.approx(8.0)
        assert adb_hi(t, 12.0) == pytest.approx(10.0)  # (1+1)*4 + r(0) = 8 + 2
        assert adb_hi(t, 14.0) == pytest.approx(12.0)  # ramp: 8 + min(2,2) + 2

    def test_implicit_lo_task(self):
        """LO task with D = T: one full carry-over plus one job at 0."""
        t = MCTask.lo("l", c=2, d_lo=6, t_lo=6)
        assert adb_hi(t, 0.0) == pytest.approx(2.0)
        assert adb_hi(t, 1.0) == pytest.approx(3.0)
        assert adb_hi(t, 2.0) == pytest.approx(4.0)
        assert adb_hi(t, 5.9) == pytest.approx(4.0)
        assert adb_hi(t, 6.0) == pytest.approx(4.0)  # (1+1)*2 + r(0), r = 0 for LO
        assert adb_hi(t, 7.0) == pytest.approx(5.0)

    def test_terminated_counts_single_carryover(self):
        t = MCTask.lo("l", c=2, d_lo=6, t_lo=6, d_hi=math.inf, t_hi=math.inf)
        assert adb_hi(t, 0.0) == pytest.approx(2.0)
        assert adb_hi(t, 100.0) == pytest.approx(2.0)

    def test_drop_terminated_carryover(self):
        t = MCTask.lo("l", c=2, d_lo=6, t_lo=6, d_hi=math.inf, t_hi=math.inf)
        assert adb_hi(t, 100.0, drop_terminated_carryover=True) == 0.0

    def test_adb_dominates_dbf(self):
        """Arrived demand includes deadline-bearing demand and more."""
        tasks = [
            MCTask.hi("h", c_lo=2, c_hi=4, d_lo=4, d_hi=8, period=8),
            MCTask.lo("l", c=2, d_lo=6, t_lo=6),
            MCTask.lo("d", c=1, d_lo=4, t_lo=4, d_hi=10, t_hi=12),
        ]
        deltas = np.linspace(0, 60, 601)
        for t in tasks:
            assert np.all(
                np.asarray(adb_hi(t, deltas)) >= np.asarray(dbf_hi(t, deltas)) - 1e-9
            )

    def test_envelope_bound(self):
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=2, c_hi=4, d_lo=4, d_hi=8, period=8),
                MCTask.lo("l", c=2, d_lo=6, t_lo=6, d_hi=math.inf, t_hi=math.inf),
            ]
        )
        rate = hi_mode_rate(ts)
        excess = adb_hi_excess_bound(ts)
        deltas = np.linspace(0, 200, 2001)
        demand = np.asarray(total_adb_hi(ts, deltas))
        assert np.all(demand <= rate * deltas + excess + 1e-9)


class TestTotals:
    def test_totals_sum_per_task(self, simple_pair):
        deltas = np.linspace(0, 40, 81)
        total = np.asarray(total_dbf_hi(simple_pair, deltas))
        manual = sum(np.asarray(dbf_hi(t, deltas)) for t in simple_pair)
        assert total == pytest.approx(manual)

    def test_total_scalar_round_trip(self, simple_pair):
        assert isinstance(total_dbf_hi(simple_pair, 5.0), float)
        assert isinstance(total_dbf_lo(simple_pair, 5.0), float)
        assert isinstance(total_adb_hi(simple_pair, 5.0), float)

    def test_empty_taskset(self):
        empty = TaskSet([])
        assert total_dbf_hi(empty, 10.0) == 0.0
        deltas = np.linspace(0, 10, 5)
        assert np.all(np.asarray(total_adb_hi(empty, deltas)) == 0.0)

    def test_chunking_consistency(self, simple_pair, monkeypatch):
        import repro.analysis.dbf as dbf_mod

        deltas = np.linspace(0, 50, 501)
        full = np.asarray(total_dbf_hi(simple_pair, deltas))
        monkeypatch.setattr(dbf_mod, "_CHUNK_CELLS", 64)
        chunked = np.asarray(total_dbf_hi(simple_pair, deltas))
        assert chunked == pytest.approx(full)
