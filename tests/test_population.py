"""Population-batched analysis: byte identity against the per-set paths.

The contract under test (see ``DESIGN.md``): every ``*_many`` front-end
in :mod:`repro.analysis.population` and the population-grouped pipeline
(``population=True``) return, set by set, *exactly* — bit for bit, not
approximately — what the per-set scalar and compiled paths return.
Grouping only changes execution; results, budget outcomes, failure
payloads and report dictionaries are invariant.
"""

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
from repro.model.transform import apply_uniform_scaling
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import AnalysisRequest, BatchRunner
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
        _clear_caches()
        plain = BatchRunner(jobs=jobs).run(pipeline_requests)
        _clear_caches()
        grouped = BatchRunner(jobs=jobs, population=True).run(pipeline_requests)
        assert [r.to_dict() for r in plain] == [r.to_dict() for r in grouped]

    def test_analyze_many_population_flag(self, pipeline_requests):
        _clear_caches()
        plain = api.analyze_many(pipeline_requests)
        _clear_caches()
        grouped = api.analyze_many(pipeline_requests, population=True)
        assert [r.to_dict() for r in plain] == [r.to_dict() for r in grouped]


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
        BatchRunner(jobs=1, population=True, metrics=metrics).run(requests)
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
