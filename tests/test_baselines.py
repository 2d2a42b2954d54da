"""Unit tests for the EDF-VD baseline."""

import pytest

from repro.baselines.edf_vd import (
    edf_vd_schedulable,
    edf_vd_speedup_bound,
    edf_vd_virtual_deadline_factor,
)
from repro.model.task import MCTask
from repro.model.taskset import TaskSet


@pytest.fixture
def implicit_mc():
    """U^LO_LO = 0.3, U^HI_LO = 0.3, U^HI_HI = 0.6."""
    return TaskSet(
        [
            MCTask.hi("h", c_lo=3, c_hi=6, d_lo=10, d_hi=10, period=10),
            MCTask.lo("l", c=6, d_lo=20, t_lo=20),
        ]
    )


class TestEdfVd:
    def test_plain_edf_sufficient_case(self):
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=1, c_hi=3, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=6, d_lo=20, t_lo=20),
            ]
        )
        # U^LO_LO + U^HI_HI = 0.3 + 0.3 = 0.6 <= 1.
        result = edf_vd_schedulable(ts)
        assert result.schedulable and result.plain_edf and result.x is None

    def test_virtual_deadline_case(self, implicit_mc):
        # U^LO_LO + U^HI_HI = 0.9 <= 1 -> plain EDF branch already.
        result = edf_vd_schedulable(implicit_mc)
        assert result.schedulable

    def test_needs_vd(self):
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=2, c_hi=7, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=4, d_lo=20, t_lo=20),
            ]
        )
        # U^LO_LO=0.2, U^HI_LO=0.2, U^HI_HI=0.7: plain edf 0.9 <= 1 again...
        result = edf_vd_schedulable(ts)
        assert result.schedulable

    def test_vd_branch_engages(self):
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=2, c_hi=8, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=5, d_lo=20, t_lo=20),
            ]
        )
        # U^LO_LO=0.25, U^HI_HI=0.8: sum 1.05 > 1; x = 0.2/0.75 = 0.267;
        # x*U^LO_LO + U^HI_HI = 0.0667 + 0.8 <= 1 -> schedulable via VD.
        result = edf_vd_schedulable(ts)
        assert result.schedulable and not result.plain_edf
        assert result.x == pytest.approx(0.2 / 0.75)

    def test_unschedulable(self):
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=3, c_hi=9.5, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=8, d_lo=20, t_lo=20),
            ]
        )
        # U^LO_LO=0.4, U^HI_HI=0.95: x*0.4 + 0.95 > 1 for any positive x.
        assert not edf_vd_schedulable(ts).schedulable

    def test_factor_none_when_lo_mode_impossible(self):
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=6, c_hi=8, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=5, d_lo=10, t_lo=10),
            ]
        )
        assert edf_vd_virtual_deadline_factor(ts) is None

    def test_factor_for_hi_only_set(self):
        ts = TaskSet([MCTask.hi("h", c_lo=3, c_hi=6, d_lo=10, d_hi=10, period=10)])
        assert edf_vd_virtual_deadline_factor(ts) == pytest.approx(0.3)

    def test_speedup_bound_constant(self):
        assert edf_vd_speedup_bound() == pytest.approx(4.0 / 3.0)
