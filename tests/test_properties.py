"""Property-based tests (hypothesis) for the core analysis machinery."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis import kernels
from repro.analysis.dbf import (
    adb_hi,
    dbf_hi,
    dbf_lo,
    extended_mod,
    hi_mode_rate,
    total_dbf_hi,
)
from repro.analysis.population import min_speedup_many
from repro.analysis.resetting import resetting_time
from repro.analysis.speedup import DEFAULT_RTOL, min_speedup
from repro.model.task import MCTask
from repro.model.taskset import TaskSet
from repro.model.transform import apply_uniform_scaling

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
finite_pos = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)


@st.composite
def hi_tasks(draw):
    period = draw(st.floats(min_value=2.0, max_value=100.0))
    c_lo = draw(st.floats(min_value=0.1, max_value=period / 2))
    gamma = draw(st.floats(min_value=1.0, max_value=3.0))
    c_hi = min(gamma * c_lo, period)
    d_hi = draw(st.floats(min_value=c_hi, max_value=period))
    d_lo = draw(st.floats(min_value=c_lo, max_value=d_hi))
    return MCTask.hi("h", c_lo=c_lo, c_hi=c_hi, d_lo=d_lo, d_hi=d_hi, period=period)


@st.composite
def lo_tasks(draw):
    period = draw(st.floats(min_value=2.0, max_value=100.0))
    c = draw(st.floats(min_value=0.1, max_value=period / 2))
    d_lo = draw(st.floats(min_value=c, max_value=period))
    y = draw(st.floats(min_value=1.0, max_value=4.0))
    t_hi = y * period
    d_hi = draw(st.floats(min_value=d_lo, max_value=t_hi))
    return MCTask.lo("l", c=c, d_lo=d_lo, t_lo=period, d_hi=d_hi, t_hi=t_hi)


@st.composite
def tasksets(draw):
    n_hi = draw(st.integers(min_value=1, max_value=3))
    n_lo = draw(st.integers(min_value=0, max_value=3))
    tasks = []
    for i in range(n_hi):
        t = draw(hi_tasks())
        tasks.append(MCTask(**{**t.__dict__, "name": f"h{i}"}))
    for i in range(n_lo):
        t = draw(lo_tasks())
        tasks.append(MCTask(**{**t.__dict__, "name": f"l{i}"}))
    return TaskSet(tasks)


# ----------------------------------------------------------------------
# Extended mod
# ----------------------------------------------------------------------
class TestExtendedModProperties:
    @given(a=st.floats(min_value=0, max_value=1e5), b=st.floats(min_value=1e-2, max_value=1e3))
    def test_range(self, a, b):
        """Within scheduling-scale quotients the mod stays in [0, b) up to
        the documented breakpoint-inclusion slack (FLOOR_SLACK-relative)."""
        m = extended_mod(a, b)
        slack = 1e-8 * (1.0 + a / b) * b
        assert -slack <= m < b + slack

    @given(a=st.floats(min_value=0, max_value=1e4), b=st.floats(min_value=0.01, max_value=100))
    def test_reconstruction(self, a, b):
        m = extended_mod(a, b)
        k = round((a - m) / b)
        assert a == pytest.approx(k * b + m, abs=1e-6 * (1 + abs(a)))


# ----------------------------------------------------------------------
# Demand functions
# ----------------------------------------------------------------------
class TestDemandProperties:
    @given(task=hi_tasks(), d1=finite_pos, d2=finite_pos)
    @settings(max_examples=60)
    def test_dbf_hi_monotone(self, task, d1, d2):
        lo, hi = min(d1, d2), max(d1, d2)
        assert dbf_hi(task, lo) <= dbf_hi(task, hi) + 1e-9

    @given(task=lo_tasks(), d1=finite_pos, d2=finite_pos)
    @settings(max_examples=60)
    def test_dbf_lo_monotone(self, task, d1, d2):
        lo, hi = min(d1, d2), max(d1, d2)
        assert dbf_lo(task, lo) <= dbf_lo(task, hi) + 1e-9

    @given(task=hi_tasks(), delta=finite_pos)
    @settings(max_examples=60)
    def test_adb_dominates_dbf(self, task, delta):
        assert adb_hi(task, delta) >= dbf_hi(task, delta) - 1e-9

    @given(task=hi_tasks(), delta=finite_pos)
    @settings(max_examples=60)
    def test_dbf_within_envelope(self, task, delta):
        rate = task.c_hi / task.t_hi
        assert dbf_hi(task, delta) <= rate * delta + task.c_hi + 1e-9

    @given(task=hi_tasks())
    @settings(max_examples=60)
    def test_vectorized_equals_scalar(self, task):
        deltas = np.linspace(0.0, 3 * task.t_hi, 37)
        vec = np.asarray(dbf_hi(task, deltas))
        scalar = np.asarray([dbf_hi(task, float(d)) for d in deltas])
        assert vec == pytest.approx(scalar)

    @given(task=hi_tasks(), k=st.integers(min_value=1, max_value=4), delta=finite_pos)
    @settings(max_examples=60)
    def test_period_shift_adds_full_jobs(self, task, k, delta):
        """DBF_HI(Delta + k*T) = DBF_HI(Delta) + k*C(HI)."""
        shifted = dbf_hi(task, delta + k * task.t_hi)
        assert shifted == pytest.approx(dbf_hi(task, delta) + k * task.c_hi, abs=1e-6)


# ----------------------------------------------------------------------
# Theorem 2 / Corollary 5
# ----------------------------------------------------------------------
class TestAnalysisProperties:
    @given(ts=tasksets())
    @settings(max_examples=30, deadline=None)
    def test_s_min_sufficient(self, ts):
        result = min_speedup(ts)
        assume(math.isfinite(result.s_min))
        deltas = np.linspace(0.01, 10 * max(t.t_hi for t in ts if math.isfinite(t.t_hi)), 2000)
        demand = np.asarray(total_dbf_hi(ts, deltas))
        assert np.all(demand <= result.s_min * deltas * (1 + 1e-9) + 1e-6)

    @given(ts=tasksets())
    @settings(max_examples=30, deadline=None)
    def test_s_min_at_least_rate(self, ts):
        result = min_speedup(ts)
        assert result.s_min >= hi_mode_rate(ts) - 1e-9

    @given(ts=tasksets(), extra=st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_resetting_finite_above_rate(self, ts, extra):
        s = hi_mode_rate(ts) + extra
        result = resetting_time(ts, s)
        assert math.isfinite(result.delta_r)

    @given(ts=tasksets(), s1=st.floats(min_value=1.0, max_value=3.0), s2=st.floats(min_value=1.0, max_value=3.0))
    @settings(max_examples=30, deadline=None)
    def test_resetting_monotone_in_s(self, ts, s1, s2):
        assume(hi_mode_rate(ts) < min(s1, s2) - 0.01)
        lo_s, hi_s = min(s1, s2), max(s1, s2)
        assert (
            resetting_time(ts, hi_s).delta_r
            <= resetting_time(ts, lo_s).delta_r + 1e-6
        )

    @given(ts=tasksets())
    @settings(max_examples=20, deadline=None)
    def test_s_min_scale_invariant(self, ts):
        """Uniformly scaling time units leaves s_min unchanged."""
        result = min_speedup(ts)
        scaled = ts.map(lambda t: t.scaled(7.0))
        assert min_speedup(scaled).s_min == pytest.approx(result.s_min, rel=1e-6)

    @given(ts=tasksets(), s=st.floats(min_value=1.5, max_value=4.0))
    @settings(max_examples=20, deadline=None)
    def test_resetting_scales_with_time_units(self, ts, s):
        assume(hi_mode_rate(ts) < s - 0.1)
        base = resetting_time(ts, s).delta_r
        scaled = resetting_time(ts.map(lambda t: t.scaled(3.0)), s).delta_r
        assert scaled == pytest.approx(3.0 * base, rel=1e-6)


# ----------------------------------------------------------------------
# Curve toolkit cross-properties
# ----------------------------------------------------------------------
class TestCurveProperties:
    @given(task=hi_tasks())
    @settings(max_examples=25, deadline=None)
    def test_curve_matches_dbf_everywhere(self, task):
        from repro.analysis.curves import dbf_hi_curve

        horizon = 4.0 * task.t_hi
        curve = dbf_hi_curve(task, horizon)
        # Sample exactly at the curve's breakpoints and at segment
        # midpoints: dbf_hi applies an inclusive rounding slack at jumps,
        # so a point epsilon below a jump legitimately disagrees.
        ends = np.append(curve.starts[1:], horizon)
        xs = np.unique(np.concatenate([curve.starts, 0.5 * (curve.starts + ends)]))
        assert np.allclose(curve(xs), np.asarray(dbf_hi(task, xs)), atol=1e-6)

    @given(ts=tasksets())
    @settings(max_examples=15, deadline=None)
    def test_curve_sup_ratio_never_exceeds_theorem2(self, ts):
        from repro.analysis.curves import total_curve

        result = min_speedup(ts)
        assume(math.isfinite(result.s_min))
        horizon = 10.0 * max(t.t_hi for t in ts if math.isfinite(t.t_hi))
        ratio, _ = total_curve(ts, horizon).sup_ratio()
        assert ratio <= result.s_min * (1 + 1e-9) + 1e-9

    @given(ts=tasksets(), s=st.floats(min_value=1.5, max_value=4.0))
    @settings(max_examples=15, deadline=None)
    def test_curve_crossing_matches_corollary5(self, ts, s):
        from repro.analysis.curves import adb_hi_curve, total_curve
        from repro.analysis.dbf import adb_hi_excess_bound

        assume(hi_mode_rate(ts) < s - 0.2)
        bound = resetting_time(ts, s).delta_r
        horizon = max(
            2.0 * bound,
            adb_hi_excess_bound(ts),
            2.0 * max(t.t_hi for t in ts if math.isfinite(t.t_hi)),
        )
        crossing = total_curve(ts, horizon, builder=adb_hi_curve).first_crossing(s)
        assert crossing is not None
        assert crossing == pytest.approx(bound, rel=1e-6)


# ----------------------------------------------------------------------
# Metamorphic relations of the exact s_min, on every scan driver
# ----------------------------------------------------------------------
knob_y = st.one_of(st.floats(min_value=1.0, max_value=4.0), st.just(math.inf))


def _s_min_everywhere(sets):
    """Each set's Theorem-2 result from the scalar engine, the compiled
    engine and the population lockstep, which must agree exactly."""
    kernels.clear_memo()
    results = min_speedup_many(sets)
    for ts, population in zip(sets, results):
        assert min_speedup(ts, engine="scalar") == min_speedup(ts) == population
    return results


def _not_above(low, high):
    """``low <= high`` within the scan's relative tolerance."""
    return low.s_min <= high.s_min * (1.0 + DEFAULT_RTOL)


class TestSpeedupMetamorphic:
    @given(
        ts=tasksets(),
        x1=st.floats(min_value=0.05, max_value=1.0),
        x2=st.floats(min_value=0.05, max_value=1.0),
        y=knob_y,
    )
    @settings(max_examples=25, deadline=None)
    def test_s_min_does_not_grow_as_x_shrinks(self, ts, x1, x2, y):
        """Shorter LO deadlines of HI tasks (Eq. 13) leave less carry-over
        demand at the switch."""
        small, large = sorted((x1, x2))
        at_small, at_large = _s_min_everywhere(
            [apply_uniform_scaling(ts, small, y), apply_uniform_scaling(ts, large, y)]
        )
        assert _not_above(at_small, at_large)

    @given(
        ts=tasksets(),
        x=st.floats(min_value=0.05, max_value=1.0),
        y1=knob_y,
        y2=knob_y,
    )
    @settings(max_examples=25, deadline=None)
    def test_s_min_does_not_grow_as_y_grows(self, ts, x, y1, y2):
        """Stretching LO tasks' HI-mode deadlines and periods (Eq. 14,
        termination at ``y = inf``) only removes HI-mode demand."""
        small, large = sorted((y1, y2))
        at_small, at_large = _s_min_everywhere(
            [apply_uniform_scaling(ts, x, small), apply_uniform_scaling(ts, x, large)]
        )
        assert _not_above(at_large, at_small)

    @given(
        ts=tasksets(),
        task=lo_tasks(),
        position=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_terminated_lo_task_changes_nothing(self, ts, task, position):
        """A LO task terminated at the switch (``D(HI) = T(HI) = inf``)
        adds no HI-mode demand and no breakpoint."""
        terminated = MCTask.lo(
            "dropped", c=task.c_lo, d_lo=task.d_lo, t_lo=task.t_lo,
            d_hi=math.inf, t_hi=math.inf,
        )
        tasks = list(ts)
        tasks.insert(min(position, len(tasks)), terminated)
        before, after = _s_min_everywhere([ts, TaskSet(tasks)])
        assert after.to_dict() == before.to_dict()
