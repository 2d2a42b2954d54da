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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.analysis import kernels
from repro.analysis.budget import AnalysisBudgetExceeded
from repro.analysis.population import (
    lo_mode_schedulable_many,
    min_preparation_factor_many,
    min_speedup_many,
    resetting_many,
)
from repro.analysis.resetting import resetting_time
from repro.analysis.schedulability import lo_mode_schedulable
from repro.analysis.speedup import min_speedup
from repro.analysis.tuning import min_preparation_factor
from repro.generator.taskgen import GeneratorConfig, generate_taskset, population
from repro.model.task import MCTask
from repro.model.taskset import TaskSet
from repro.model.transform import apply_uniform_scaling, terminate_lo_tasks
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import AnalysisRequest, BatchRunner, evaluate_captured
from repro.pipeline.grouping import evaluate_chunk_grouped
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

    def test_raise_mode_raises_like_per_set(self, table1):
        hard = multi_window_set()
        _clear_caches()
        exact = min_speedup(hard)
        assert exact.exact
        assert exact.candidates_examined > 50
        with pytest.raises(AnalysisBudgetExceeded):
            min_speedup(hard, max_candidates=50, on_budget="raise")
        with pytest.raises(AnalysisBudgetExceeded):
            min_speedup_many(
                [table1, hard], max_candidates=50, on_budget="raise"
            )

    def test_resetting_budget_raises_like_per_set(self, table1):
        hard = near_critical_set()
        with pytest.raises(AnalysisBudgetExceeded):
            resetting_time(hard, 1.9, max_candidates=1_000)
        with pytest.raises(AnalysisBudgetExceeded):
            resetting_many([table1, hard], 1.9, max_candidates=1_000)


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
            rows = pop.probe_lo_deadline_factors(indices, xs)
            windows = [
                (index, 0.0, 3.0 * probe.lo_max_period)
                for index, probe in zip(indices, derived)
            ]
            points = pop.breakpoints_many(windows, kind="lo")
            demands = pop.eval_many(
                "lo", [(index, cand) for index, cand in zip(indices, points)]
            )
            for index, probe, (d_lo, excess), cand, demand, (_, lo, hi) in zip(
                indices, derived, rows, points, demands, windows
            ):
                assert d_lo.tobytes() == probe.d_lo.tobytes()
                # Bit for bit: a pairwise sum differs in the last bits.
                assert excess.hex() == probe.lo_excess.hex()
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

    def test_nan_y_fails_like_per_item(self, table1):
        # Request validation admits y = NaN; the per-item transform's task
        # validation turns it into a failure naming the first LO task.
        requests = [
            AnalysisRequest(taskset=table1, speedup=2.0, x=0.5, y=math.nan),
            AnalysisRequest(taskset=table1, speedup=2.0, x=0.5, y=2.0),
        ]
        reference = [evaluate_captured(request).to_dict() for request in requests]
        assert reference[0]["failure"]["error_type"] == "ModelError"
        grouped = [report.to_dict() for report in evaluate_chunk_grouped(requests)]
        assert repr(grouped) == repr(reference)

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
