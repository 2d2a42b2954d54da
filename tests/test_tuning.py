"""Unit tests for overrun-preparation (x) tuning."""

import pytest

from repro.analysis import kernels, tuning
from repro.analysis.schedulability import lo_mode_schedulable
from repro.analysis.tuning import (
    density_preparation_factor,
    exact_preparation_factor,
    min_preparation_factor,
    structural_floor,
)
from repro.model.task import MCTask, ModelError
from repro.model.taskset import TaskSet
from repro.model.transform import shorten_hi_deadlines


@pytest.fixture
def implicit_mix():
    return TaskSet(
        [
            MCTask.hi("h1", c_lo=1, c_hi=2, d_lo=10, d_hi=10, period=10),
            MCTask.hi("h2", c_lo=2, c_hi=4, d_lo=20, d_hi=20, period=20),
            MCTask.lo("l1", c=4, d_lo=20, t_lo=20),
        ]
    )


class TestDensity:
    def test_closed_form_value(self, implicit_mix):
        # U^LO_HI = 0.2, U^LO_LO = 0.2: x = 0.2 / 0.8 = 0.25
        assert density_preparation_factor(implicit_mix) == pytest.approx(0.25)

    def test_density_x_is_lo_feasible(self, implicit_mix):
        x = density_preparation_factor(implicit_mix)
        assert lo_mode_schedulable(shorten_hi_deadlines(implicit_mix, x))

    def test_infeasible_returns_none(self):
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=6, c_hi=8, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=5, d_lo=10, t_lo=10),
            ]
        )
        assert density_preparation_factor(ts) is None

    def test_no_hi_tasks(self):
        ts = TaskSet([MCTask.lo("l", c=4, d_lo=20, t_lo=20)])
        assert density_preparation_factor(ts) == 1.0

    def test_respects_structural_floor(self):
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=5, c_hi=6, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=1, d_lo=10, t_lo=10),
            ]
        )
        # density x = 0.5/0.9 = 0.556 > floor C/D = 0.5
        assert density_preparation_factor(ts) == pytest.approx(0.5 / 0.9)
        assert structural_floor(ts) == pytest.approx(0.5)


class TestExact:
    def test_no_larger_than_density(self, implicit_mix):
        """The exact test admits every density-feasible x and maybe more."""
        exact = exact_preparation_factor(implicit_mix)
        dens = density_preparation_factor(implicit_mix)
        assert exact <= dens + 1e-6

    def test_result_is_feasible(self, implicit_mix):
        x = exact_preparation_factor(implicit_mix)
        assert lo_mode_schedulable(shorten_hi_deadlines(implicit_mix, x))

    def test_slightly_below_is_infeasible(self):
        """The bisection returns a near-minimal x (unless at the floor)."""
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=4, c_hi=8, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=5, d_lo=10, t_lo=10),
            ]
        )
        x = exact_preparation_factor(ts, tol=1e-5)
        floor = structural_floor(ts)
        if x > floor + 1e-6:
            assert not lo_mode_schedulable(shorten_hi_deadlines(ts, x * 0.99))

    def test_infeasible_returns_none(self):
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=6, c_hi=8, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=5, d_lo=10, t_lo=10),
            ]
        )
        assert exact_preparation_factor(ts) is None

    def test_no_hi_tasks(self):
        ts = TaskSet([MCTask.lo("l", c=4, d_lo=20, t_lo=20)])
        assert exact_preparation_factor(ts) == 1.0
        # LO-only overload: no x can help, the LO demand itself is infeasible.
        bad = TaskSet(
            [
                MCTask.lo("a", c=3, d_lo=4, t_lo=4),
                MCTask.lo("b", c=2, d_lo=4, t_lo=4),
            ]
        )
        assert exact_preparation_factor(bad) is None


class TestExactMemo:
    def test_infeasible_result_is_served_from_the_memo(self, monkeypatch):
        """A set infeasible even at x = 1 memoises ``None``; the second
        call is a memo hit and runs no probe."""
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=6, c_hi=8, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=5, d_lo=10, t_lo=10),
            ]
        )
        kernels.clear_memo()
        assert exact_preparation_factor(ts) is None
        probes = []

        def probe(*args, **kwargs):
            probes.append(args)
            return lo_mode_schedulable(*args, **kwargs)

        monkeypatch.setattr(tuning, "lo_mode_schedulable", probe)
        before = kernels.PERF.snapshot()
        assert exact_preparation_factor(ts) is None
        delta = kernels.PERF.delta_since(before)
        assert (delta["memo_hits"], delta["memo_misses"]) == (1, 0)
        assert probes == []


class TestDispatcher:
    def test_methods_agree_on_feasibility(self, implicit_mix):
        assert min_preparation_factor(implicit_mix, method="density") is not None
        assert min_preparation_factor(implicit_mix, method="exact") is not None

    def test_unknown_method(self, implicit_mix):
        with pytest.raises(ModelError):
            min_preparation_factor(implicit_mix, method="bogus")
