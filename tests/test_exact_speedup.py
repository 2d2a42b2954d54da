"""Exact rational oracle for the Theorem-2 supremum (Eq. 8).

Deliberately naive and independent of the analysis code: Eq. (7) is
evaluated in :class:`fractions.Fraction` arithmetic at every breakpoint
of one hyperperiod.  On integer-parameter task sets the total excess
``e(Delta) = DBF_HI(Delta) - rate*Delta`` repeats every hyperperiod
``H``, so a positive ``e(Delta)/Delta`` is largest inside ``(0, H]``,
and the ratio ``rate + e(Delta)/Delta`` tends to ``rate``.  Hence
``s_min`` is the larger of the best breakpoint ratio in ``(0, H]`` and
``rate``.

A LO task with ``T(HI) = inf`` but finite ``D(HI)`` keeps one carry-over
job in HI mode: its demand rises once, up to ``gap + C(LO)`` with
``gap = D(HI) - D(LO)``, and stays at ``C(HI)`` after.  Past the last
such point ``A`` the excess repeats every ``H`` again, so the scan runs
over ``(0, A + H]``.
"""

import math
from fractions import Fraction
from typing import List, Optional

import numpy as np
import pytest

from repro.analysis import kernels
from repro.analysis.dbf import adb_hi
from repro.analysis.population import min_speedup_many, resetting_many
from repro.analysis.resetting import resetting_time
from repro.analysis.speedup import min_speedup, speedup_schedulable
from repro.model.task import MCTask
from repro.model.taskset import TaskSet

#: Periods dividing 120, so every hyperperiod stays small.
PERIODS = (2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120)

#: Relative agreement required between the float engines and the oracle.
REL = 1e-12


def exact_dbf_hi(task: MCTask, delta: Fraction) -> Fraction:
    """Eq. (7) with exact floor and mod (``Delta mod inf = Delta``)."""
    if task.terminated_in_hi:
        return Fraction(0)
    if math.isinf(task.t_hi):
        jobs, w = Fraction(0), delta
    else:
        period = Fraction(task.t_hi)
        jobs = delta // period
        w = delta - jobs * period
    w -= Fraction(task.d_hi) - Fraction(task.d_lo)
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
    periodic = [t for t in active if not math.isinf(t.t_hi)]
    carried = [t for t in active if math.isinf(t.t_hi)]
    points = set()
    for t in carried:
        gap = Fraction(t.d_hi) - Fraction(t.d_lo)
        points.update((gap, gap + Fraction(t.c_lo)))
    horizon = max(points, default=Fraction(0)) + math.lcm(
        *(int(t.t_hi) for t in periodic)
    )
    for t in periodic:
        period = int(t.t_hi)
        gap = Fraction(t.d_hi) - Fraction(t.d_lo)
        for offset in (Fraction(0), gap, gap + Fraction(t.c_lo)):
            for k in range(int(horizon // period) + 1):
                points.add(k * period + offset)
    best = max(
        (
            sum(exact_dbf_hi(t, p) for t in active) / p
            for p in points
            if 0 < p <= horizon
        ),
        default=Fraction(0),
    )
    rate = sum(Fraction(t.c_hi) / Fraction(t.t_hi) for t in periodic)
    return max(best, rate)


def carried_task(name: str, c: int, d_lo: int, d_hi: int) -> MCTask:
    """A LO task whose one HI-mode job is the carry-over (``T(HI) = inf``)."""
    return MCTask.lo(name, c, d_lo, d_lo, d_hi=d_hi, t_hi=math.inf)


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

    def test_carried_job_alone(self):
        # DBF_HI(8) = min(8 - 6, 2) = 2: s_min = 2/8.
        assert exact_s_min(TaskSet([carried_task("a", 2, 4, 10)])) == Fraction(1, 4)

    def test_carried_job_beside_hi_task(self):
        # Delta = 8: the carried job's 2 plus the HI task's carry-over 2.
        ts = TaskSet(
            [
                carried_task("a", 2, 4, 10),
                MCTask.hi("b", c_lo=1, c_hi=2, d_lo=5, d_hi=10, period=10),
            ]
        )
        assert exact_s_min(ts) == Fraction(1, 2)


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

    @pytest.mark.parametrize(
        "extra, want",
        [
            ([], Fraction(1, 4)),
            (
                [MCTask.hi("b", c_lo=1, c_hi=2, d_lo=5, d_hi=10, period=10)],
                Fraction(1, 2),
            ),
        ],
    )
    def test_carried_job_exact_on_every_engine(self, extra, want):
        ts = TaskSet([carried_task("a", 2, 4, 10)] + extra)
        kernels.clear_memo()
        kernels.clear_compile_cache()
        [population] = min_speedup_many([ts])
        for result in (min_speedup(ts, engine="scalar"), min_speedup(ts), population):
            assert result.exact
            self._check(result.s_min, want)
        # Just below the exact value a HI job misses its deadline.
        assert not speedup_schedulable(ts, 0.9 * float(want))

    def test_random_sets_with_carried_jobs(self, integer_sets):
        rng = np.random.default_rng(8)
        sets = []
        for i, base in enumerate(integer_sets[:30]):
            carried = []
            for j in range(int(rng.integers(1, 3))):
                c = int(rng.integers(1, 5))
                d_lo = int(rng.integers(c, 3 * c + 1))
                d_hi = int(rng.integers(d_lo, d_lo + 40))
                carried.append(carried_task(f"c{j}", c, d_lo, d_hi))
            sets.append(TaskSet(list(base) + carried, name=f"carried{i}"))
        kernels.clear_memo()
        population = min_speedup_many(sets)
        for ts, pop in zip(sets, population):
            scalar = min_speedup(ts, engine="scalar")
            assert scalar == min_speedup(ts) == pop
            assert scalar.exact
            self._check(scalar.s_min, exact_s_min(ts))


class TestCarriedJobArrivedDemand:
    """ADB_HI needs no carry-over breakpoints: with ``T(HI) = inf`` the
    pending job's arrived demand is the constant ``C(HI)`` (Eq. 9 gives
    ``w* = -inf``), so the lattice-only "adb" table misses nothing."""

    def test_constant_arrived_demand(self):
        task = carried_task("a", 2, 4, 10)
        deltas = np.array([0.0, 1.0, 6.0, 8.0, 10.0, 1e6])
        assert np.array_equal(adb_hi(task, deltas), np.full(deltas.size, 2.0))

    def test_resetting_agrees_across_engines(self):
        ts = TaskSet(
            [
                carried_task("a", 2, 4, 10),
                MCTask.hi("b", c_lo=1, c_hi=2, d_lo=5, d_hi=10, period=10),
            ]
        )
        kernels.clear_memo()
        [population] = resetting_many([ts], 1.0)
        scalar = resetting_time(ts, 1.0, engine="scalar")
        assert scalar == resetting_time(ts, 1.0) == population
