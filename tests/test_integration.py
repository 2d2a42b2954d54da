"""End-to-end pipeline tests: generate -> tune -> analyse -> simulate."""

import math

import numpy as np
import pytest

from repro.analysis.resetting import resetting_time
from repro.analysis.speedup import min_speedup
from repro.analysis.tuning import min_preparation_factor
from repro.api import analyze
from repro.generator.taskgen import GeneratorConfig, generate_taskset
from repro.model.transform import apply_uniform_scaling, terminate_lo_tasks
from repro.sim.scheduler import SimConfig, simulate
from repro.sim.workload import OverrunModel, SporadicSource, SynchronousWorstCaseSource


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_full_pipeline_degradation(seed):
    """The paper's workflow end to end, with worst-case simulation."""
    rng = np.random.default_rng(seed)
    base = generate_taskset(0.6, rng, GeneratorConfig())
    x = min_preparation_factor(base, method="exact")
    assert x is not None
    configured = apply_uniform_scaling(base, min(x, 1 - 1e-9), 2.0)

    report = analyze(configured, speedup=3.0)
    assert report.lo_ok and report.hi_ok
    assert math.isfinite(report.s_min)
    assert report.resetting_result is not None and report.resetting_result.finite

    s = max(report.s_min, 1.0) * 1.01
    source = SynchronousWorstCaseSource(
        OverrunModel(first_job_overruns=True, probability=1.0)
    )
    horizon = 5.0 * max(t.t_lo for t in configured)
    result = simulate(configured, SimConfig(speedup=s, horizon=horizon), source)
    assert result.miss_count == 0, f"seed {seed}"
    bound = resetting_time(configured, s).delta_r
    assert result.max_episode_length <= bound + 1e-6


@pytest.mark.parametrize("seed", [404, 505])
def test_full_pipeline_termination(seed):
    rng = np.random.default_rng(seed)
    base = generate_taskset(0.7, rng, GeneratorConfig())
    x = min_preparation_factor(base, method="exact")
    assert x is not None
    configured = terminate_lo_tasks(
        apply_uniform_scaling(base, min(x, 1 - 1e-9), 1.0)
    )
    s = max(min_speedup(configured).s_min, 1.0) * 1.01
    source = SynchronousWorstCaseSource(
        OverrunModel(first_job_overruns=True, probability=0.5, rng=np.random.default_rng(1))
    )
    horizon = 5.0 * max(t.t_lo for t in configured)
    result = simulate(configured, SimConfig(speedup=s, horizon=horizon), source)
    assert result.miss_count == 0
    for episode in result.episodes:
        if episode.end is not None:
            assert episode.length <= resetting_time(configured, s).delta_r + 1e-6


def test_sporadic_workload_respects_bounds(table1):
    """Random sporadic arrivals with random overruns stay within bounds."""
    rng = np.random.default_rng(9)
    source = SporadicSource(
        rng,
        mean_slack_factor=0.3,
        overrun=OverrunModel(probability=0.4, rng=np.random.default_rng(10)),
    )
    result = simulate(table1, SimConfig(speedup=2.0, horizon=2000.0), source)
    assert result.miss_count == 0
    bound = resetting_time(table1, 2.0).delta_r
    closed = [e.length for e in result.episodes if e.end is not None]
    assert closed, "overruns occurred"
    assert max(closed) <= bound + 1e-6


def test_energy_decreases_with_less_boost_time(table1):
    """Faster recovery at higher speed costs more power but less time."""
    source = SynchronousWorstCaseSource(OverrunModel(first_job_overruns=True))
    fast = simulate(table1, SimConfig(speedup=3.0, horizon=100.0), source)
    slow = simulate(table1, SimConfig(speedup=1.5, horizon=100.0), source)
    assert fast.boosted_time < slow.boosted_time
