"""Tests for the sensitivity-analysis module."""

import math

import pytest

from repro.analysis.sensitivity import (
    max_tolerable_gamma,
    max_tolerable_load_scale,
    min_speedup_margin,
)
from repro.analysis.speedup import min_speedup
from repro.model.task import MCTask
from repro.model.taskset import TaskSet
from repro.model.transform import scale_wcet_uncertainty


@pytest.fixture
def prepared():
    """Implicit-deadline set with preparation, gamma = 1 initially."""
    return TaskSet(
        [
            MCTask.hi("h", c_lo=2, c_hi=2, d_lo=5, d_hi=10, period=10),
            MCTask.lo("l", c=2, d_lo=10, t_lo=10, d_hi=20, t_hi=20),
        ]
    )


class TestGamma:
    def test_result_is_feasible_boundary(self, prepared):
        gamma = max_tolerable_gamma(prepared, s=2.0)
        assert gamma is not None and gamma > 1.0
        scaled = scale_wcet_uncertainty(prepared, gamma)
        assert min_speedup(scaled).s_min <= 2.0 + 1e-6
        # Slightly beyond breaks (unless clamped by structure/cap).
        if gamma < 4.9:  # structural cap: C(HI) <= D(HI) = 10, C(LO) = 2
            beyond = scale_wcet_uncertainty(prepared, min(gamma * 1.05, 5.0))
            assert min_speedup(beyond).s_min > 2.0 - 1e-6

    def test_monotone_in_speedup(self, prepared):
        g1 = max_tolerable_gamma(prepared, s=1.2)
        g2 = max_tolerable_gamma(prepared, s=2.0)
        assert g2 >= g1 - 1e-6

    def test_reset_budget_tightens(self, prepared):
        free = max_tolerable_gamma(prepared, s=2.0)
        tight = max_tolerable_gamma(prepared, s=2.0, reset_budget=5.0)
        assert tight is None or tight <= free + 1e-6

    def test_none_when_base_infeasible(self):
        ts = TaskSet(
            [MCTask.hi("h", c_lo=2, c_hi=2, d_lo=10, d_hi=10, period=10)]
        )
        # gamma > 1 instantly requires infinite speedup (no preparation);
        # gamma = 1 is fine, so a result exists but stays at ~1.
        gamma = max_tolerable_gamma(ts, s=2.0)
        assert gamma == pytest.approx(1.0, abs=1e-2)

    def test_rejects_bad_speedup(self, prepared):
        with pytest.raises(ValueError):
            max_tolerable_gamma(prepared, s=0.0)


class TestMargin:
    def test_table1(self, table1):
        assert min_speedup_margin(table1, 2.0) == pytest.approx(2.0 - 4.0 / 3.0)
        assert min_speedup_margin(table1, 1.0) < 0.0

    def test_infinite_requirement(self):
        ts = TaskSet([MCTask.hi("h", c_lo=2, c_hi=4, d_lo=8, d_hi=8, period=8)])
        assert min_speedup_margin(ts, 5.0) == -math.inf


class TestLoadScale:
    def test_boundary_property(self, table1):
        factor = max_tolerable_load_scale(table1, s=2.0)
        assert factor is not None and factor >= 1.0

    def test_heavier_design_smaller_headroom(self, table1):
        generous = max_tolerable_load_scale(table1, s=3.0)
        strict = max_tolerable_load_scale(table1, s=1.4)
        assert generous >= strict - 1e-6

    def test_none_when_broken(self, table1):
        # s below s_min = 4/3: the design is already infeasible.
        assert max_tolerable_load_scale(table1, s=1.2) is None

    def test_rejects_bad_speedup(self, table1):
        with pytest.raises(ValueError):
            max_tolerable_load_scale(table1, s=-1.0)


@pytest.mark.parametrize(
    "tolerable", [max_tolerable_gamma, max_tolerable_load_scale], ids=["gamma", "load_scale"]
)
@pytest.mark.parametrize("s", [math.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
def test_speedup_must_be_positive(table1, tolerable, s):
    # NaN fails ``s > 0`` like every other speed the search cannot use,
    # as it does for resetting_time.
    with pytest.raises(ValueError, match="speedup must be positive"):
        tolerable(table1, s)
