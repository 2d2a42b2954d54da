"""Population-batched analysis: byte identity against the per-set paths.

The contract under test (see ``DESIGN.md``): every ``*_many`` front-end
in :mod:`repro.analysis.population` and the grouped pipeline path (the
batch runner's default for groups of two or more requests) return, set
by set, *exactly* — bit for bit, not approximately — what the per-set
scalar and compiled paths return.
Grouping only changes execution; results, budget outcomes, failure
payloads and report dictionaries are invariant.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.analysis import kernels, population as population_module
from repro.analysis.budget import AnalysisBudgetExceeded
from repro.analysis.population import (
    lo_mode_schedulable_many,
    min_preparation_factor_many,
    min_speedup_many,
    resetting_many,
)
from repro.analysis.resetting import resetting_time
from repro.analysis.schedulability import LoProbe, lo_mode_schedulable
from repro.analysis.speedup import min_speedup
from repro.analysis.tuning import exact_preparation_factor, min_preparation_factor
from repro.generator.taskgen import GeneratorConfig, generate_taskset, population
from repro.io import save_taskset
from repro.model.task import MCTask, ModelError
from repro.model.taskset import TaskSet
from repro.model.transform import apply_uniform_scaling, terminate_lo_tasks
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import AnalysisRequest, BatchRunner, evaluate_captured
from tests.conftest import multi_window_set


def _clear_caches() -> None:
    kernels.clear_memo()
    kernels.clear_compile_cache()


def _population(u, count, seed, x=0.5, y=1.5, config=None):
    sets = population(u, count, seed=seed, config=config or GeneratorConfig())
    return [apply_uniform_scaling(ts, x, y) for ts in sets]


def near_critical_set() -> TaskSet:
    """Corollary-5 crossing horizon near-divergent (test_analysis_budget)."""
    return TaskSet(
        [
            MCTask.hi("h1", c_lo=1.0, c_hi=999.0, d_lo=1.0, d_hi=1000.0, period=1000.0),
            MCTask.hi("h2", c_lo=0.001, c_hi=0.9, d_lo=0.01, d_hi=1.0, period=1.0),
        ]
    )


def _scaled(sets, factor=1.37):
    """Non-integer periods: every timing parameter times ``factor``."""
    return [TaskSet([t.scaled(factor) for t in ts], name=ts.name) for ts in sets]


def _without_hi(sets):
    """The LO tasks of each set alone (sets without HI tasks)."""
    return [
        TaskSet([t for t in ts if t.is_lo], name=ts.name)
        for ts in sets
        if any(t.is_lo for t in ts)
    ]


def dense_window_set(lo_c: float) -> TaskSet:
    """120 HI and 80 LO tasks at LO utilization just below 1.

    Near-critical probes scan LO windows holding more lattice points
    than the fused breakpoint generator takes, so the exact-x bisection
    reaches both per-set fallbacks (``breakpoints_in`` and
    ``lo_demand_ok``) at probe factors below 1.
    """
    tasks = [
        MCTask.hi(
            f"h{i}", c_lo=0.05, c_hi=0.1, d_lo=10.0 + i % 3,
            d_hi=10.0 + i % 3, period=10.0 + i % 3,
        )
        for i in range(120)
    ]
    tasks += [MCTask.lo(f"l{i}", c=lo_c, d_lo=10.0, t_lo=10.0) for i in range(80)]
    return TaskSet(tasks, name=f"dense{lo_c:g}")


def long_horizon_set() -> TaskSet:
    """Its LO horizon lies beyond the first scan window at most probe
    factors, so a probe whose first window passes scans more windows."""
    return TaskSet(
        [
            MCTask.hi("h0", c_lo=2.0, c_hi=4.0, d_lo=15.0, d_hi=15.0, period=15.0),
            MCTask.hi("h1", c_lo=4.0, c_hi=8.0, d_lo=19.0, d_hi=19.0, period=19.0),
            MCTask.lo("l0", c=1.0, d_lo=1.0, t_lo=7.0),
            MCTask.lo("l1", c=1.0, d_lo=20.0, t_lo=22.0),
            MCTask.lo("l2", c=1.0, d_lo=3.0, t_lo=9.0),
            MCTask.lo("l3", c=6.0, d_lo=17.0, t_lo=18.0),
        ],
        name="long_horizon",
    )


def excess_order_set() -> TaskSet:
    """12 tasks whose LO excess terms at ``x = 0.5`` sum to different
    floats pairwise and in task order."""
    tasks = []
    for i in range(12):
        period = 10.0 + i
        if i % 3 == 0:
            tasks.append(
                MCTask.hi(
                    f"h{i}", c_lo=1.0, c_hi=2.0, d_lo=period, d_hi=period, period=period
                )
            )
        else:
            tasks.append(
                MCTask.lo(
                    f"l{i}", c=1.0 + 0.1 * (3 * i % 7), d_lo=period - 1.0 - 3 * i % 5,
                    t_lo=period,
                )
            )
    return TaskSet(tasks, name="excess_order")


def _primes_above(start, count):
    primes = []
    n = start + 1
    while len(primes) < count:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            primes.append(n)
        n += 1
    return primes


def overflow_horizon_set() -> TaskSet:
    """45 LO tasks on the primes above 10^7 with ``D = T - 1000``, plus a
    HI task: the LO scan's hyperperiod overflows the float range, so the
    scan horizon raises ``OverflowError`` for this set alone."""
    tasks = [
        MCTask.lo(f"l{i}", c=1, d_lo=p - 1000, t_lo=p)
        for i, p in enumerate(_primes_above(10**7, 45))
    ]
    tasks.append(MCTask.hi("h", c_lo=1, c_hi=2, d_lo=50, d_hi=100, period=100))
    return TaskSet(tasks, name="overflow")


def implicit_prime_set() -> TaskSet:
    """The same 45 prime periods with implicit deadlines and no HI task:
    a zero LO excess settles its scan before any horizon is computed."""
    return TaskSet(
        [
            MCTask.lo(f"l{i}", c=1, d_lo=p, t_lo=p)
            for i, p in enumerate(_primes_above(10**7, 45))
        ],
        name="implicit",
    )


def _count_calls(monkeypatch, name):
    """Record every ``CompiledTaskSet.<name>`` call (the per-set fallbacks)."""
    calls = []
    original = getattr(kernels.CompiledTaskSet, name)

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(kernels.CompiledTaskSet, name, counted)
    return calls


def _sized_set(n: int, tag: int) -> TaskSet:
    """``n`` tasks, HI and LO alternating, on distinct integer periods."""
    tasks = []
    for i in range(n):
        period = 10.0 * (i + 2)
        if i % 2:
            tasks.append(MCTask.lo(f"l{i}", c=1.0, d_lo=period, t_lo=period))
        else:
            tasks.append(
                MCTask.hi(
                    f"h{i}", c_lo=1.0, c_hi=2.0, d_lo=period, d_hi=period, period=period
                )
            )
    return TaskSet(tasks, name=f"n{n}_{tag}")


@pytest.fixture(scope="module")
def small_population():
    """Seeded 200-set small-task-set population (the figs 6-7 regime)."""
    return _population(0.6, 200, seed=7)


@pytest.fixture(scope="module")
def ragged_population():
    """1-task sets interleaved with ~60-task sets: extreme raggedness."""
    tiny = _population(0.3, 6, seed=21, config=GeneratorConfig(u_lo_range=(0.2, 0.4)))
    huge = _population(
        0.75, 6, seed=23, x=0.6, y=2.0,
        config=GeneratorConfig(u_lo_range=(0.004, 0.012)),
    )
    mixed = [ts for pair in zip(tiny, huge) for ts in pair]
    sizes = sorted(len(ts) for ts in mixed)
    assert sizes[0] <= 3 and sizes[-1] >= 40  # genuinely ragged
    return mixed


class TestByteIdentity:
    def test_min_speedup_200_sets(self, small_population):
        _clear_caches()
        scalar = [min_speedup(ts, engine="scalar") for ts in small_population]
        _clear_caches()
        compiled = [min_speedup(ts, engine="compiled") for ts in small_population]
        _clear_caches()
        pop = min_speedup_many(small_population)
        assert [r.to_dict() for r in scalar] == [r.to_dict() for r in compiled]
        assert [r.to_dict() for r in scalar] == [r.to_dict() for r in pop]
        # The trajectory-sensitive fields too, not only the verdicts.
        assert [r.candidates_examined for r in scalar] == [
            r.candidates_examined for r in pop
        ]

    def test_resetting_200_sets(self, small_population):
        _clear_caches()
        scalar = [resetting_time(ts, 2.0) for ts in small_population]
        _clear_caches()
        pop = resetting_many(small_population, 2.0)
        assert [r.to_dict() for r in scalar] == [r.to_dict() for r in pop]

    def test_resetting_crossing_demand_is_fused(self, small_population, monkeypatch):
        sets = small_population[:60]
        _clear_caches()
        scalar = [resetting_time(ts, 2.0, engine="scalar") for ts in sets]
        assert any(r.finite and not r.at_breakpoint for r in scalar)
        per_set = _count_calls(monkeypatch, "total_adb_hi")
        _clear_caches()
        assert [r.to_dict() for r in scalar] == [
            r.to_dict() for r in resetting_many(sets, 2.0)
        ]
        # Every interior crossing's demand came from the fused passes.
        assert not per_set

    def test_lo_schedulable_200_sets(self, small_population):
        _clear_caches()
        scalar = [lo_mode_schedulable(ts, 0.85) for ts in small_population]
        _clear_caches()
        assert scalar == lo_mode_schedulable_many(small_population, 0.85)

    def test_exact_x_200_sets(self, small_population):
        _clear_caches()
        scalar = [
            min_preparation_factor(ts, method="exact") for ts in small_population
        ]
        _clear_caches()
        assert scalar == min_preparation_factor_many(
            small_population, method="exact"
        )
        oracle = [
            min_preparation_factor(ts, method="exact", engine="scalar")
            for ts in small_population
        ]
        assert oracle == scalar

    @pytest.mark.parametrize("case", ["ragged", "non_integer", "no_hi", "dense"])
    def test_exact_x_matches_both_engines(
        self, case, small_population, ragged_population, monkeypatch
    ):
        """The bisection's probe columns reach every per-set fallback."""
        sets = {
            "ragged": lambda: ragged_population,
            "non_integer": lambda: _scaled(small_population[:60]),
            "no_hi": lambda: _without_hi(small_population[:60]),
            "dense": lambda: [dense_window_set(c) for c in (0.05625, 0.056425)],
        }[case]()
        _clear_caches()
        oracle = [
            min_preparation_factor(ts, method="exact", engine="scalar")
            for ts in sets
        ]
        _clear_caches()
        compiled = [min_preparation_factor(ts, method="exact") for ts in sets]
        _clear_caches()
        pruned = _count_calls(monkeypatch, "lo_demand_ok")
        dense = _count_calls(monkeypatch, "breakpoints_in")
        pop = min_preparation_factor_many(sets, method="exact")
        assert oracle == compiled == pop
        assert any(x is not None for x in pop)
        if case == "ragged":
            assert pruned  # windows too large to fuse
        if case == "dense":
            assert pruned and dense  # and windows too dense to fuse
        if case == "no_hi":
            assert set(pop) <= {1.0, None}

    def test_ragged_extremes(self, ragged_population):
        _clear_caches()
        scalar = [min_speedup(ts, engine="scalar") for ts in ragged_population]
        _clear_caches()
        pop = min_speedup_many(ragged_population)
        assert [r.to_dict() for r in scalar] == [r.to_dict() for r in pop]
        _clear_caches()
        reset_scalar = [resetting_time(ts, 2.5) for ts in ragged_population]
        _clear_caches()
        reset_pop = resetting_many(ragged_population, 2.5)
        assert [r.to_dict() for r in reset_scalar] == [
            r.to_dict() for r in reset_pop
        ]

    def test_single_set_population(self, table1):
        _clear_caches()
        alone = min_speedup_many([table1])[0]
        _clear_caches()
        assert alone.to_dict() == min_speedup(table1).to_dict()

    def test_empty_population(self):
        assert min_speedup_many([]) == []
        assert resetting_many([], 2.0) == []
        assert lo_mode_schedulable_many([]) == []
        assert min_preparation_factor_many([], method="exact") == []


class TestCompileRegistryOverflow:
    """``compile_tasksets`` resolves duplicates from its own batch, so a
    call that compiles more cold sets than the 512-entry registry holds
    still answers every repeated set."""

    @staticmethod
    def _cold_sets(count):
        return [
            TaskSet(
                [MCTask.hi("h", c_lo=1.0, c_hi=2.0, d_lo=2.0, d_hi=4.0 + i, period=4.0 + i)],
                name=f"cold{i}",
            )
            for i in range(count)
        ]

    @staticmethod
    def _per_set(sets):
        _clear_caches()
        return [min_speedup(ts).to_dict() for ts in sets]

    def test_duplicate_after_513_cold_sets(self):
        sets = self._cold_sets(513)
        sets.append(TaskSet(list(sets[0]), name="copy"))
        _clear_caches()
        lockstep = [r.to_dict() for r in api.min_speedup_many(sets)]
        assert lockstep == self._per_set(sets)

    def test_registry_hit_beside_512_cold_sets(self, table1):
        _clear_caches()
        kernels.compile_taskset(table1)
        sets = [TaskSet(list(table1), name="table1")] + self._cold_sets(512)
        lockstep = [r.to_dict() for r in api.min_speedup_many(sets)]
        assert lockstep == self._per_set(sets)


class TestBucketLayout:
    """Every set of at most 16 tasks shares one padded bucket; larger sets
    keep power-of-two buckets of their own height."""

    def test_small_sets_share_one_bucket(self):
        sets = [_sized_set(2 + i % 11, i) for i in range(60)]
        sets.append(TaskSet([], name="empty"))
        assert sorted({len(ts) for ts in sets}) == [0] + list(range(2, 13))
        pop = kernels.compile_population(sets)
        assert list(pop._bucket_members) == [12]
        assert pop._bucket_members[12] == list(range(len(sets)))

    def test_large_member_keeps_its_own_bucket(
        self, small_population, ragged_population
    ):
        large = max(ragged_population, key=len)
        assert len(large) >= 40
        sets = small_population[:63] + [large]
        height = 1 << (len(large) - 1).bit_length()
        pop = kernels.compile_population(sets)
        assert pop._bucket_members[height] == [63]
        small = max(len(ts) for ts in sets[:63])
        assert pop._bucket_members[small] == list(range(63))
        assert len(pop._bucket_members) == 2
        _clear_caches()
        assert [min_speedup(ts, engine="scalar").to_dict() for ts in sets] == [
            r.to_dict() for r in min_speedup_many(sets)
        ]
        assert [resetting_time(ts, 2.0, engine="scalar").to_dict() for ts in sets] == [
            r.to_dict() for r in resetting_many(sets, 2.0)
        ]
        assert [
            lo_mode_schedulable(ts, 0.85, engine="scalar") for ts in sets
        ] == lo_mode_schedulable_many(sets, 0.85)
        assert [
            min_preparation_factor(ts, method="exact", engine="scalar") for ts in sets
        ] == min_preparation_factor_many(sets, method="exact")


class TestBudgetParity:
    """Budget exhaustion is part of the byte-identity contract."""

    def test_inexact_outcome_matches_per_set(self, table1):
        hard = multi_window_set()
        batch = [table1, hard, table1]
        _clear_caches()
        per_set = [
            min_speedup(ts, max_candidates=100, on_budget="inexact").to_dict()
            for ts in batch
        ]
        assert not per_set[1]["exact"]
        _clear_caches()
        pop = min_speedup_many(batch, max_candidates=100, on_budget="inexact")
        assert per_set == [r.to_dict() for r in pop]

    @staticmethod
    def _same_error(per_set, fused):
        assert (fused.examined, fused.budget, fused.context) == (
            per_set.examined, per_set.budget, per_set.context,
        )
        assert str(fused) == str(per_set)

    def test_raise_mode_raises_like_per_set(self, table1):
        hard = multi_window_set()
        _clear_caches()
        exact = min_speedup(hard)
        assert exact.exact
        assert exact.candidates_examined > 50
        with pytest.raises(AnalysisBudgetExceeded) as per_set:
            min_speedup(hard, max_candidates=50, on_budget="raise")
        with pytest.raises(AnalysisBudgetExceeded) as fused:
            min_speedup_many(
                [table1, hard], max_candidates=50, on_budget="raise"
            )
        self._same_error(per_set.value, fused.value)

    def test_resetting_budget_raises_like_per_set(self, table1):
        hard = near_critical_set()
        with pytest.raises(AnalysisBudgetExceeded) as per_set:
            resetting_time(hard, 1.9, max_candidates=1_000)
        assert "scan reached Delta=" in per_set.value.context
        with pytest.raises(AnalysisBudgetExceeded) as fused:
            resetting_many([table1, hard], 1.9, max_candidates=1_000)
        self._same_error(per_set.value, fused.value)


def carry_set(table1) -> TaskSet:
    """Table 1 plus a LO task with ``T(HI) = inf`` and a finite ``D(HI)``:
    its ``DBF_HI`` points outside the lattice leave every window of the
    set to its own ``breakpoints_in``."""
    return TaskSet(
        list(table1)
        + [MCTask.lo("c", c=1.0, d_lo=3.0, t_lo=8.0, d_hi=9.0, t_hi=math.inf)],
        name="carry",
    )


class TestColumnarWindows:
    """The Theorem-2 ``peak`` and Corollary-5 ``window`` phases answer a
    round's windows in columns; every route through them matches the
    per-set scans report for report."""

    @staticmethod
    def _check(sets, speed=2.0):
        _clear_caches()
        peaks = [min_speedup(ts, engine="scalar").to_dict() for ts in sets]
        crossings = [resetting_time(ts, speed, engine="scalar").to_dict() for ts in sets]
        _clear_caches()
        assert peaks == [r.to_dict() for r in min_speedup_many(sets)]
        assert crossings == [r.to_dict() for r in resetting_many(sets, speed)]

    def test_windows_left_alone(self, table1, small_population, monkeypatch):
        sets = small_population[:6] + [carry_set(table1), near_critical_set()]
        alone = _count_calls(monkeypatch, "breakpoints_in")
        self._check(sets)
        # The carry set's DBF_HI windows, and a dense ADB_HI window near
        # the crossing horizon.
        assert sets[6] in [member.taskset for member in alone]
        assert sets[7] in [member.taskset for member in alone]

    def test_windows_filling_a_chunk(self, small_population, monkeypatch):
        sets = small_population[:6] + [near_critical_set(), dense_window_set(0.05625)]
        peaks = _count_calls(monkeypatch, "window_peak")
        crossings = _count_calls(monkeypatch, "total_adb_hi")
        self._check(sets)
        assert peaks and crossings

    def test_empty_windows(self, table1, small_population, monkeypatch):
        empty = []
        original = population_module._window_points

        def recorded(pop, kind, *window):
            points, owner, bounds = original(pop, kind, *window)
            empty.append(int((np.diff(bounds) == 0).sum()))
            return points, owner, bounds

        monkeypatch.setattr(population_module, "_window_points", recorded)
        # A crossing horizon far below the first breakpoint: the early
        # windows hold no breakpoint.
        self._check(small_population[:4] + [table1], speed=50.0)
        assert any(empty)

    def test_mixed_drop_flags_and_a_nan_speed(self, small_population):
        sets = [terminate_lo_tasks(ts) for ts in small_population[:8]]
        speeds = [2.0, 2.0, 3.0, math.nan, 2.5, 2.0, 1.5, 2.0]
        drops = [k % 3 == 1 for k in range(len(sets))]
        _clear_caches()
        expected = []
        for ts, speed, drop in zip(sets, speeds, drops):
            try:
                expected.append(
                    resetting_time(
                        ts, speed, drop_terminated_carryover=drop, engine="scalar"
                    ).to_dict()
                )
            except ValueError as error:
                expected.append(str(error))
        # The flag matters for these sets.
        assert resetting_time(sets[1], 2.0).to_dict() != expected[1]
        _clear_caches()
        outcomes = population_module._resetting_lockstep(
            kernels.compile_tasksets(sets), speeds, drops, [10**6] * len(sets)
        )
        assert [
            str(o) if isinstance(o, ValueError) else o.to_dict() for o in outcomes
        ] == expected
        assert isinstance(outcomes[3], ValueError)
        with pytest.raises(ValueError, match="speedup must be positive"):
            resetting_many(sets[:2], math.nan)


class TestWindowPeaks:
    """``kernels.window_peaks`` on many windows at once against one
    window at a time and the exhaustive first argmax."""

    @staticmethod
    def _windows():
        """``(candidates, ratios, best)`` per window, with ratios exact."""
        tie = np.ones(64)
        # An interior ratio equal to the coarse peak at a later coarse
        # index (31): the interior candidate comes first and wins.
        tie[20] = tie[31] = 2.0
        rising = np.linspace(1.0, 3.0, 64)  # every stripe stays live
        rng = np.random.default_rng(11)
        return [
            (np.arange(1.0, 65.0), tie, 0.0),
            (np.arange(1.0, 65.0), rising, 0.5),
            (np.arange(3.0, 13.0), rng.uniform(1, 2, 10), 0.0),  # fewer than 3 stripes
            (np.arange(1.0, 101.0), np.ones(100), 5.0),  # every stripe pruned
            (np.arange(1.0, 90.0), rng.uniform(1, 2, 89), 1.2),
        ]

    def test_flat_matches_one_window_at_a_time(self):
        windows = self._windows()
        candidates = np.concatenate([c for c, _, _ in windows])
        demand = np.concatenate([c * r for c, r, _ in windows])
        bounds = np.concatenate(([0], np.cumsum([c.size for c, _, _ in windows])))
        best = np.array([b for _, _, b in windows])
        calls = []

        def flat(chosen):
            calls.append(chosen)
            return demand[chosen]

        before = kernels.PERF.snapshot()
        ratio, delta = kernels.window_peaks(candidates, bounds, best, flat)
        pruned = kernels.PERF.delta_since(before)["pruned"]
        assert len(calls) == 2
        before = kernels.PERF.snapshot()
        for j, (c, r, b) in enumerate(windows):
            one = kernels.window_peaks(
                c, np.array([0, c.size]), np.array([b]), lambda chosen: (c * r)[chosen]
            )
            assert (one[0][0], one[1][0]) == (ratio[j], delta[j])
        assert kernels.PERF.delta_since(before)["pruned"] == pruned > 0
        exhaustive = [int(np.argmax(c * r / c)) for c, r, _ in windows]
        assert delta[0] == windows[0][0][20] and ratio[0] == 2.0
        for j in (0, 1, 2, 4):
            c, r, _ = windows[j]
            assert (ratio[j], delta[j]) == ((c * r / c)[exhaustive[j]], c[exhaustive[j]])

class TestProbeColumns:
    """``CompiledPopulation.probe_lo_deadline_factors`` against the derived
    probe snapshots the per-set bisection scans."""

    def test_probe_tables_match_derived_snapshots(
        self, small_population, ragged_population
    ):
        sets = ragged_population + _scaled(small_population[:30])
        _clear_caches()
        members = kernels.compile_tasksets(sets)
        before = [member.d_lo.tobytes() for member in members]
        pop = kernels.compile_population(members)
        rng = np.random.default_rng(4)
        for _ in range(3):
            indices = sorted(
                rng.choice(len(members), size=len(members) // 2, replace=False).tolist()
            )
            xs = rng.uniform(0.2, 1.0, size=len(indices)).tolist()
            derived = [
                members[index].with_hi_lo_deadline_factor(x)
                for index, x in zip(indices, xs)
            ]
            d_lo, bounds, excesses, longest = pop.probe_lo_deadline_factors(indices, xs)
            windows = [
                (index, 0.0, 3.0 * probe.lo_max_period)
                for index, probe in zip(indices, derived)
            ]
            points = pop.breakpoints_many(windows, kind="lo")
            demands = pop.eval_many(
                "lo", [(index, cand) for index, cand in zip(indices, points)]
            )
            for k, (index, probe, cand, demand, (_, lo, hi)) in enumerate(
                zip(indices, derived, points, demands, windows)
            ):
                assert d_lo[bounds[k] : bounds[k + 1]].tobytes() == probe.d_lo.tobytes()
                # Bit for bit: a pairwise sum differs in the last bits.
                assert float(excesses[k]).hex() == probe.lo_excess.hex()
                assert longest[k] == max(probe.d_lo.tolist())
                assert pop.snapshot(index).d_lo.tobytes() == probe.d_lo.tobytes()
                own = probe.breakpoints_in(lo, hi, kind="lo")
                assert cand.tobytes() == own.tobytes()
                own_demand = np.asarray(probe.total_dbf_lo(cand))
                assert demand.tobytes() == own_demand.tobytes()
        # Only the population's own tables moved, never a member.
        assert [member.d_lo.tobytes() for member in members] == before
        with pytest.raises(ValueError):
            pop.eval_many("dbf", [(0, np.array([1.0, 2.0]))])
        with pytest.raises(ValueError):
            pop.breakpoints_many([(0, 0.0, 10.0)], kind="adb")


class TestColumnarProbeRound:
    """The exact-x lockstep answers each bisection level in columns."""

    @pytest.mark.parametrize("others", [0, 1], ids=["alone", "beside_table1"])
    def test_one_member_round_sums_excess_in_task_order(self, table1, others):
        ts = excess_order_set()
        probe = kernels.compile_taskset(ts).with_hi_lo_deadline_factor(0.5)
        terms = probe.c_lo / probe.t_lo * np.maximum(probe.t_lo - probe.d_lo, 0.0)
        # The premise: NumPy's pairwise sum differs from the task order.
        assert float(np.add.reduce(terms)).hex() != probe.lo_excess.hex()
        pop = kernels.compile_population([ts] + [table1] * others)
        d_lo, bounds, excess, longest = pop.probe_lo_deadline_factors([0], [0.5])
        assert float(excess[0]).hex() == probe.lo_excess.hex()
        assert d_lo.tobytes() == probe.d_lo.tobytes()
        assert bounds.tolist() == [0, len(ts)]
        assert longest[0] == max(probe.d_lo.tolist())

    def test_first_window_short_of_horizon_goes_on_as_its_scan(self, monkeypatch):
        ts = long_horizon_set()
        continued = []
        original = population_module.lo_scan_steps

        def recorded(ev, speed):
            if isinstance(ev, LoProbe):
                continued.append(ev)
            return original(ev, speed)

        monkeypatch.setattr(population_module, "lo_scan_steps", recorded)
        _clear_caches()
        before = kernels.PERF.snapshot()
        lockstep = min_preparation_factor_many([ts], method="exact")
        fused = kernels.PERF.delta_since(before)
        _clear_caches()
        before = kernels.PERF.snapshot()
        alone = exact_preparation_factor(ts)
        per_set = kernels.PERF.delta_since(before)
        assert lockstep == [alone] and 0.5 < alone < 1.0
        assert len(continued) >= 10
        # No window is scanned twice: the same breakpoints, the same
        # pruning as the per-set bisection.
        assert fused["candidates"] == per_set["candidates"] > 0
        assert fused["pruned"] == per_set["pruned"]

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        shapes=st.lists(
            st.sampled_from(["base", "no_hi", "large", "long", "overloaded"]),
            min_size=1,
            max_size=7,
        ),
    )
    def test_mixed_groups_match_per_set(self, seed, shapes):
        # Members settle after 1 probe (no HI tasks, overloaded), 2 or
        # about 14, so late rounds hold a single member.
        sets = []
        for k, shape in enumerate(shapes):
            if shape == "large":
                sets.append(_sized_set(17 + (seed + k) % 16, k))
            elif shape == "long":
                sets.append(long_horizon_set())
            else:
                (ts,) = _population(0.9 if shape == "overloaded" else 0.7, 1, seed=seed + k)
                if shape == "overloaded":
                    ts = TaskSet(list(ts) + [MCTask.lo("extra", c=9.0, d_lo=10.0, t_lo=10.0)])
                sets.append((_without_hi([ts]) or [ts])[0] if shape == "no_hi" else ts)
        _clear_caches()
        scalar = [
            min_preparation_factor(ts, method="exact", engine="scalar") for ts in sets
        ]
        _clear_caches()
        compiled = [min_preparation_factor(ts, method="exact") for ts in sets]
        _clear_caches()
        assert scalar == compiled == min_preparation_factor_many(sets, method="exact")

    def test_lockstep_scans_import_no_numpy_ma(self, tmp_path):
        """``np.unique`` imports ``numpy.ma`` on first use (NumPy 2.4), a
        cost a freshly forked pool worker would pay inside its chunk."""
        paths = []
        for k, lo_c in enumerate((0.05625, 0.056425)):
            paths.append(str(tmp_path / f"dense{k}.json"))
            save_taskset(dense_window_set(lo_c), paths[-1])
        src = str(Path(__file__).resolve().parent.parent / "src")
        script = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "from repro.io import load_taskset\n"
            "from repro.analysis.population import (\n"
            "    min_preparation_factor_many, min_speedup_many, resetting_many)\n"
            f"sets = [load_taskset(path) for path in {paths!r}]\n"
            "min_preparation_factor_many(sets, method='exact')\n"
            "min_speedup_many(sets)\n"
            "resetting_many(sets, 2.0)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def _requests(tasksets):
    """Pipeline requests exercising tuning, budgets and failures."""
    requests = [
        AnalysisRequest(
            taskset=ts, speedup=2.0, auto_x="exact", y=2.0, resetting="always"
        )
        for ts in tasksets
    ]
    # A tuned-x request, a budget-failure capture and a scalar-engine
    # holdout ride along in the same batch: grouping must keep all of
    # their reports (including failure payloads) byte-identical.
    requests.append(
        AnalysisRequest(
            taskset=tasksets[0], speedup=2.0, x=0.5, y=1.5, resetting="auto",
            reset_budget=500.0,
        )
    )
    requests.append(
        AnalysisRequest(
            taskset=near_critical_set(), speedup=1.9, x=0.9,
            resetting="always", max_candidates=1_000,
        )
    )
    requests.append(
        AnalysisRequest(
            taskset=tasksets[1], speedup=2.0, auto_x="density", y=2.0,
            engine="scalar",
        )
    )
    # Every tuning mode the configured-column derivation serves.  y=None
    # resets LO tasks whose HI parameters were degraded or terminated.
    degraded = apply_uniform_scaling(tasksets[2], 0.8, 3.0)
    terminated = terminate_lo_tasks(tasksets[3])
    no_hi = _without_hi(tasksets[4:6])
    requests += [
        AnalysisRequest(taskset=degraded, speedup=2.0, x=0.6),
        AnalysisRequest(taskset=terminated, speedup=2.0, x=0.6, resetting="always"),
        AnalysisRequest(taskset=degraded, speedup=2.0, auto_x="exact"),
        AnalysisRequest(
            taskset=tasksets[5], speedup=2.0, auto_x="exact", y=math.inf,
            resetting="auto", reset_budget=5000.0,
        ),
        AnalysisRequest(taskset=tasksets[6], speedup=2.0, x=0.5, y=math.inf),
        AnalysisRequest(taskset=tasksets[7], speedup=2.0, auto_x="density", y=2.0),
        AnalysisRequest(taskset=terminated, speedup=2.0, auto_x="density"),
        AnalysisRequest(taskset=no_hi[0], speedup=2.0, auto_x="exact", y=2.0),
        AnalysisRequest(taskset=no_hi[1], speedup=2.0, x=0.4, y=1.5),
        AnalysisRequest(taskset=no_hi[1], speedup=2.0),
        AnalysisRequest(
            taskset=tasksets[8], speedup=2.0, auto_x="exact", y=2.0,
            closed_form=True,
        ),
        AnalysisRequest(
            taskset=tasksets[9], speedup=2.0, x=0.5, y=2.0, closed_form=True,
            per_task=True,
        ),
        AnalysisRequest(taskset=degraded, speedup=2.0, per_task=True, lo_test=True),
    ]
    # The remaining request branches: an explicit x >= 1 on a set with
    # HI tasks, an exact tuning infeasible even at x = 1 (LO utilization
    # above 1), explicit lo_test both ways, resetting="never", a budget
    # without a speedup, no speedup at all, and a multiproc item (on the
    # scalar engine, whose admission runs no population batch).
    overloaded = TaskSet(
        [
            MCTask.hi("h", c_lo=3.0, c_hi=4.0, d_lo=4.0, d_hi=4.0, period=4.0),
            MCTask.lo("l", c=2.0, d_lo=4.0, t_lo=4.0),
        ],
        name="overloaded",
    )
    requests += [
        AnalysisRequest(taskset=tasksets[10], speedup=2.0, x=1.0, y=2.0),
        AnalysisRequest(taskset=overloaded, speedup=2.0, auto_x="exact", y=2.0),
        AnalysisRequest(
            taskset=tasksets[11], speedup=2.0, auto_x="exact", y=2.0, lo_test=True
        ),
        AnalysisRequest(taskset=tasksets[12], speedup=2.0, lo_test=False),
        AnalysisRequest(
            taskset=tasksets[13], speedup=2.0, x=0.5, y=2.0, resetting="never",
            reset_budget=500.0,
        ),
        AnalysisRequest(
            taskset=tasksets[14], auto_x="exact", y=2.0, reset_budget=500.0
        ),
        AnalysisRequest(taskset=tasksets[15]),
        AnalysisRequest(
            taskset=tasksets[16], cores=2, speedup_cap=2.0, x=0.6, y=2.0,
            engine="scalar",
        ),
    ]
    return requests


class TestGroupedPipeline:
    @pytest.fixture(scope="class")
    def pipeline_requests(self):
        rng = np.random.default_rng(99)
        tasksets = [
            generate_taskset(0.6, rng, GeneratorConfig(), name=f"pp{i}")
            for i in range(40)
        ]
        return _requests(tasksets)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grouped_reports_byte_identical(self, pipeline_requests, jobs):
        # Reference: chunk_size=1 keeps every request on the per-item path.
        _clear_caches()
        plain_metrics = MetricsRegistry()
        plain = BatchRunner(jobs=jobs, chunk_size=1, metrics=plain_metrics).run(
            pipeline_requests
        )
        _clear_caches()
        grouped_metrics = MetricsRegistry()
        grouped = BatchRunner(jobs=jobs, metrics=grouped_metrics).run(
            pipeline_requests
        )
        assert [r.to_dict() for r in plain] == [r.to_dict() for r in grouped]
        assert plain_metrics.counter("kernels.population_batches") == 0
        assert grouped_metrics.counter("kernels.population_batches") > 0

    def test_analyze_many_population_flag(self, pipeline_requests):
        # Reference: evaluate_captured per request, never grouped.
        _clear_caches()
        before = kernels.PERF.snapshot()
        plain = [evaluate_captured(request) for request in pipeline_requests]
        assert kernels.PERF.delta_since(before)["population_batches"] == 0
        _clear_caches()
        before = kernels.PERF.snapshot()
        grouped = api.analyze_many(pipeline_requests)
        assert kernels.PERF.delta_since(before)["population_batches"] > 0
        assert [r.to_dict() for r in plain] == [r.to_dict() for r in grouped]


class TestGroupedFailures:
    """A set whose analysis raises fails alone, in every path."""

    @staticmethod
    def _requests(table1):
        bad = overflow_horizon_set()
        return [
            AnalysisRequest(taskset=table1, speedup=2.0),
            AnalysisRequest(taskset=bad, speedup=2.0),
            AnalysisRequest(taskset=table1, speedup=2.0, auto_x="exact", y=2.0),
            AnalysisRequest(taskset=bad, speedup=2.0, auto_x="exact", y=2.0),
            AnalysisRequest(
                taskset=implicit_prime_set(), speedup=2.0, auto_x="exact", y=2.0
            ),
        ]

    def test_member_error_fails_only_its_item(self, table1):
        requests = self._requests(table1)
        _clear_caches()
        reference = [evaluate_captured(request).to_dict() for request in requests]
        for index in (1, 3):
            failure = reference[index]["failure"]
            assert (failure["stage"], failure["error_type"]) == (
                "analysis", "OverflowError",
            )
        # No horizon is computed for a zero LO excess: the implicit
        # variant tunes to x = 1 beside the failing set.
        assert reference[4]["failure"] is None
        assert reference[4]["x_applied"] == 1.0
        counters = {}
        for jobs in (1, 2):
            _clear_caches()
            metrics = MetricsRegistry()
            reports = BatchRunner(jobs=jobs, metrics=metrics).run(requests)
            assert [report.to_dict() for report in reports] == reference
            counters[jobs] = MetricsRegistry.strip_timing(metrics.snapshot())
        # Equal counters: no failed pool chunk was isolated and redone.
        assert counters[1] == counters[2]
        assert counters[1]["counters"]["kernels.population_batches"] == 1
        _clear_caches()
        assert [r.to_dict() for r in api.analyze_many(requests)] == reference

    @pytest.mark.parametrize(
        "options",
        [
            {"speedup": math.nan},
            {"reset_budget": math.nan},
            {"x": math.nan},
            {"x": 0.5, "y": math.nan},
            {"speedup": True},
            {"x": True},
            {"max_candidates": True},
            {"cores": True, "speedup_cap": 2.0},
            {"cores": 2, "speedup_cap": math.nan},
            {"cores": 2, "speedup_cap": 2.0, "degraded_y": math.nan},
        ],
    )
    def test_nan_and_bool_options_rejected(self, table1, options):
        # NaN fails every bound and a bool is no number: the request
        # boundary rejects both, so neither evaluation path sees them.
        with pytest.raises(ModelError):
            AnalysisRequest(taskset=table1, **options)
        # inf stays accepted wherever a bound admits it.
        AnalysisRequest(
            taskset=table1, speedup=math.inf, reset_budget=math.inf, x=0.5,
            y=math.inf,
        )

    def test_population_front_ends_raise_like_per_set(self, table1):
        bad = overflow_horizon_set()
        with pytest.raises(OverflowError):
            lo_mode_schedulable(bad)
        with pytest.raises(OverflowError):
            lo_mode_schedulable_many([table1, bad])
        with pytest.raises(OverflowError):
            min_preparation_factor(bad, method="exact")
        with pytest.raises(OverflowError):
            min_preparation_factor_many([table1, bad], method="exact")
        assert min_preparation_factor_many(
            [table1, implicit_prime_set()], method="exact"
        ) == [min_preparation_factor(table1, method="exact"), 1.0]


class TestCounters:
    def test_perf_counters_surface_batches(self, small_population):
        _clear_caches()
        before = kernels.PERF.snapshot()
        min_speedup_many(small_population[:25])
        delta = kernels.PERF.delta_since(before)
        assert delta["population_batches"] == 1
        assert delta["population_sets"] == 25

    def test_metrics_registry_surfaces_population(self):
        rng = np.random.default_rng(5)
        requests = [
            AnalysisRequest(
                taskset=generate_taskset(0.6, rng, GeneratorConfig(), name=f"m{i}"),
                speedup=2.0,
                auto_x="density",
                y=2.0,
            )
            for i in range(10)
        ]
        _clear_caches()
        metrics = MetricsRegistry()
        BatchRunner(jobs=1, metrics=metrics).run(requests)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["kernels.population_batches"] >= 1
        assert snapshot["counters"]["kernels.population_sets"] >= 10

    def test_per_set_run_records_no_population(self, small_population):
        _clear_caches()
        before = kernels.PERF.snapshot()
        [min_speedup(ts, engine="compiled") for ts in small_population[:5]]
        delta = kernels.PERF.delta_since(before)
        assert delta["population_batches"] == 0
        assert delta["population_sets"] == 0


class TestPropertyByteIdentity:
    """Randomized populations: the identity holds for any seed/shape."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=1, max_value=12),
        u=st.sampled_from([0.4, 0.6, 0.75]),
    )
    def test_min_speedup_many_matches_per_set(self, seed, count, u):
        sets = _population(u, count, seed=seed)
        _clear_caches()
        per_set = [min_speedup(ts, engine="scalar").to_dict() for ts in sets]
        _clear_caches()
        assert per_set == [r.to_dict() for r in min_speedup_many(sets)]

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=1, max_value=10),
        s=st.sampled_from([1.5, 2.0, 3.0]),
    )
    def test_resetting_many_matches_per_set(self, seed, count, s):
        sets = _population(0.6, count, seed=seed)
        _clear_caches()
        per_set = [resetting_time(ts, s).to_dict() for ts in sets]
        _clear_caches()
        assert per_set == [r.to_dict() for r in resetting_many(sets, s)]

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=1, max_value=10),
        u=st.sampled_from([0.4, 0.6, 0.75]),
        shape=st.sampled_from(["base", "non_integer", "no_hi"]),
    )
    def test_exact_x_many_matches_per_set(self, seed, count, u, shape):
        sets = _population(u, count, seed=seed)
        if shape == "non_integer":
            sets = _scaled(sets)
        elif shape == "no_hi":
            sets = _without_hi(sets)
        _clear_caches()
        per_set = [min_preparation_factor(ts, method="exact") for ts in sets]
        _clear_caches()
        assert per_set == min_preparation_factor_many(sets, method="exact")
