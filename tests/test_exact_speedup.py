"""Exact rational oracle for the Theorem-2 supremum (Eq. 8).

Deliberately naive and independent of the analysis code: Eq. (7) is
evaluated in :class:`fractions.Fraction` arithmetic at every breakpoint
of one hyperperiod.  On integer-parameter task sets the total excess
``e(Delta) = DBF_HI(Delta) - rate*Delta`` repeats every hyperperiod
``H``, so a positive ``e(Delta)/Delta`` is largest inside ``(0, H]``,
and the ratio ``rate + e(Delta)/Delta`` tends to ``rate``.  Hence
``s_min`` is the larger of the best breakpoint ratio in ``(0, H]`` and
``rate``.
"""

import math
from fractions import Fraction
from typing import List, Optional

import numpy as np
import pytest

from repro.analysis import kernels
from repro.analysis.population import min_speedup_many
from repro.analysis.speedup import min_speedup
from repro.model.task import MCTask
from repro.model.taskset import TaskSet

#: Periods dividing 120, so every hyperperiod stays small.
PERIODS = (2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120)

#: Relative agreement required between the float engines and the oracle.
REL = 1e-12


def exact_dbf_hi(task: MCTask, delta: Fraction) -> Fraction:
    """Eq. (7) with exact floor and mod (finite ``T(HI)`` only)."""
    if task.terminated_in_hi:
        return Fraction(0)
    period = Fraction(task.t_hi)
    jobs = delta // period
    w = delta - jobs * period - (Fraction(task.d_hi) - Fraction(task.d_lo))
    carry = Fraction(0)
    if w >= 0:
        c_lo = Fraction(task.c_lo)
        carry = min(w, c_lo) + Fraction(task.c_hi) - c_lo
    return jobs * Fraction(task.c_hi) + carry


def exact_s_min(taskset: TaskSet) -> Optional[Fraction]:
    """Theorem 2's ``s_min`` exactly; ``None`` means ``+inf``."""
    active = [t for t in taskset if not t.terminated_in_hi]
    if not active:
        return Fraction(0)
    if sum(exact_dbf_hi(t, Fraction(0)) for t in active) > 0:
        return None
    hyper = math.lcm(*(int(t.t_hi) for t in active))
    points = set()
    for t in active:
        period = int(t.t_hi)
        gap = Fraction(t.d_hi) - Fraction(t.d_lo)
        for offset in (Fraction(0), gap, gap + Fraction(t.c_lo)):
            for k in range(hyper // period + 1):
                point = k * period + offset
                if 0 < point <= hyper:
                    points.add(point)
    best = max(sum(exact_dbf_hi(t, p) for t in active) / p for p in points)
    rate = sum(Fraction(t.c_hi) / Fraction(t.t_hi) for t in active)
    return max(best, rate)


def random_integer_taskset(rng: np.random.Generator, name: str) -> TaskSet:
    """HI, plain LO, degraded LO and terminated tasks, integer parameters."""
    tasks: List[MCTask] = []
    for i in range(int(rng.integers(1, 4))):
        period = int(rng.choice(PERIODS))
        c_lo = int(rng.integers(1, max(2, period // 4 + 1)))
        c_hi = min(c_lo * int(rng.integers(1, 4)), period)
        d_hi = int(rng.integers(c_hi, period + 1))
        d_lo = int(rng.integers(c_lo, d_hi + 1))
        tasks.append(MCTask.hi(f"h{i}", c_lo, c_hi, d_lo, d_hi, period))
    for i in range(int(rng.integers(0, 3))):
        period = int(rng.choice(PERIODS[:8]))
        c = int(rng.integers(1, max(2, period // 4 + 1)))
        d_lo = int(rng.integers(c, period + 1))
        mode = rng.integers(0, 3)
        if mode == 0:
            tasks.append(MCTask.lo(f"l{i}", c, d_lo, period))
        elif mode == 1:
            tasks.append(
                MCTask.lo(f"l{i}", c, d_lo, period, d_hi=math.inf, t_hi=math.inf)
            )
        else:
            t_hi = period * int(rng.choice((2, 3, 4)))
            d_hi = int(rng.integers(d_lo, t_hi + 1))
            tasks.append(MCTask.lo(f"l{i}", c, d_lo, period, d_hi=d_hi, t_hi=t_hi))
    return TaskSet(tasks, name=name)


class TestExactOracle:
    def test_table1_is_four_thirds(self, table1):
        assert exact_s_min(table1) == Fraction(4, 3)

    def test_table1_degraded_is_seven_eighths(self, table1_degraded):
        assert exact_s_min(table1_degraded) == Fraction(7, 8)

    def test_zero_interval_demand_is_infinite(self):
        ts = TaskSet([MCTask.hi("h", c_lo=2, c_hi=4, d_lo=8, d_hi=8, period=8)])
        assert exact_s_min(ts) is None


class TestFloatEnginesAgainstOracle:
    @pytest.fixture(scope="class")
    def integer_sets(self):
        rng = np.random.default_rng(20150309)
        return [random_integer_taskset(rng, f"int{i}") for i in range(60)]

    @staticmethod
    def _check(value: float, exact: Optional[Fraction]) -> None:
        if exact is None:
            assert math.isinf(value)
            return
        tol = REL * float(exact)
        assert abs(value - float(exact)) <= tol
        # Never optimistic: a float s_min below the exact value is the
        # direction that lets a HI job miss its deadline.
        assert Fraction(value) >= exact - Fraction(tol)

    def test_canonical_sets(self, table1, table1_degraded):
        # Zero intercept (D(LO) = C(LO), D(HI) = T): s_min is the rate, 1.
        at_rate = TaskSet(
            [
                MCTask.hi("a", c_lo=1, c_hi=2, d_lo=1, d_hi=4, period=4),
                MCTask.hi("b", c_lo=1, c_hi=4, d_lo=1, d_hi=8, period=8),
            ]
        )
        assert exact_s_min(at_rate) == 1
        for ts in (table1, table1_degraded, at_rate):
            exact = exact_s_min(ts)
            for engine in ("scalar", "compiled"):
                self._check(min_speedup(ts, engine=engine).s_min, exact)

    def test_random_integer_sets(self, integer_sets):
        kernels.clear_memo()
        exact = [exact_s_min(ts) for ts in integer_sets]
        population = min_speedup_many(integer_sets)
        for ts, want, pop in zip(integer_sets, exact, population):
            scalar = min_speedup(ts, engine="scalar")
            compiled = min_speedup(ts)
            assert scalar == compiled == pop
            self._check(scalar.s_min, want)
            assert scalar.exact
