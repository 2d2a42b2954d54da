"""Shared fixtures: canonical task sets used across the suite."""

import numpy as np
import pytest

from repro.model.task import MCTask
from repro.model.taskset import TaskSet


@pytest.fixture
def simple_pair() -> TaskSet:
    """A small hand-analyzed set.

    tau1 (HI): C(LO)=2, C(HI)=4, D(LO)=4, D(HI)=T=8
    tau2 (LO): C=2, D=T=6 (no degradation)

    Hand-computed values used in tests:
      DBF_HI(tau1, .): 0@[0,4), 2@4, ramps to 4@6, 4@8, 6@12, 8@16
      s_min = 1 (at Delta=2, from tau2's carry-over)
      Delta_R(2) = 6, Delta_R(4) = 2
    """
    return TaskSet(
        [
            MCTask.hi("tau1", c_lo=2, c_hi=4, d_lo=4, d_hi=8, period=8),
            MCTask.lo("tau2", c=2, d_lo=6, t_lo=6),
        ],
        name="simple_pair",
    )


@pytest.fixture
def table1() -> TaskSet:
    from repro.experiments.table1 import table1_taskset

    return table1_taskset()


@pytest.fixture
def table1_degraded() -> TaskSet:
    from repro.experiments.table1 import table1_degraded_taskset

    return table1_degraded_taskset()


@pytest.fixture
def lo_overload() -> TaskSet:
    """LO mode overloaded (U_LO = 1.125), HI mode feasible at s = 2.

    The degraded LO tasks give ``s_min = 11/14`` and ``Delta_R(2) = 5.5``,
    so a recovery budget is met while the design as a whole is not.
    """
    return TaskSet(
        [
            MCTask.hi("h", c_lo=1, c_hi=2, d_lo=4, d_hi=10, period=10),
            MCTask.lo("a", c=5, d_lo=8, t_lo=8, d_hi=16, t_hi=16),
            MCTask.lo("b", c=4, d_lo=10, t_lo=10, d_hi=20, t_hi=20),
        ],
        name="lo_overload",
    )


@pytest.fixture
def fms() -> TaskSet:
    from repro.generator.fms import fms_taskset

    return fms_taskset()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_implicit_taskset(rng: np.random.Generator, n_hi=2, n_lo=2, x=0.5, y=2.0):
    """Small random implicit-deadline set under the Section-V knobs.

    Helper (not a fixture) so hypothesis/property tests can build many.
    """
    from repro.model.transform import apply_uniform_scaling

    tasks = []
    for i in range(n_hi):
        period = float(rng.uniform(5, 50))
        c_lo = float(rng.uniform(0.05, 0.15)) * period
        gamma = float(rng.uniform(1.0, 3.0))
        tasks.append(
            MCTask.hi(f"hi{i}", c_lo, min(gamma * c_lo, period), period, period, period)
        )
    for i in range(n_lo):
        period = float(rng.uniform(5, 50))
        c = float(rng.uniform(0.05, 0.15)) * period
        tasks.append(MCTask.lo(f"lo{i}", c, period, period))
    return apply_uniform_scaling(TaskSet(tasks, name="random"), x, y)


def multi_window_set() -> TaskSet:
    """Two HI tasks whose Theorem-2 scan needs three windows (159 breakpoints).

    The periods (99.4, 1024.2) are incommensurate and each D(LO) is more
    than twice its C(LO), so the per-task DBF_HI intercepts peak at phases
    that only nearly align around Delta = 3071.4.  Until the scan gets
    there the tight envelope cannot certify the supremum, which makes
    this set the budget tests' fixture: 50 candidates end the first
    window with an inexact result (or a raise).
    """
    return TaskSet(
        [
            MCTask.hi("a", c_lo=8.0, c_hi=29.7, d_lo=18.0, d_hi=99.4, period=99.4),
            MCTask.hi("b", c_lo=21.2, c_hi=81.1, d_lo=46.2, d_hi=1024.2, period=1024.2),
        ],
        name="multi_window",
    )
