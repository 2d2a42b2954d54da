"""Tests for the partitioned multiprocessor extension."""

import math

import numpy as np
import pytest

from repro.analysis.schedulability import lo_mode_schedulable
from repro.analysis.speedup import min_speedup
from repro.generator.fms import fms_taskset
from repro.model.task import MCTask
from repro.model.taskset import TaskSet
from repro.multiproc import (
    PartitioningError,
    partition_tasks,
    partitioned_design,
)
from repro.multiproc.partition import min_cores


@pytest.fixture
def heavy_mix():
    """Too much load for one core under a 2x cap, fine for two."""
    tasks = []
    for i in range(4):
        tasks.append(
            MCTask.hi(f"h{i}", c_lo=2, c_hi=5, d_lo=5, d_hi=10, period=10)
        )
    for i in range(4):
        tasks.append(MCTask.lo(f"l{i}", c=2, d_lo=10, t_lo=10))
    return TaskSet(tasks, name="heavy")


class TestPartitioning:
    def test_every_task_assigned_once(self, heavy_mix):
        parts = partition_tasks(heavy_mix, 3)
        names = [t.name for p in parts for t in p]
        assert sorted(names) == sorted(t.name for t in heavy_mix)

    def test_each_core_feasible(self, heavy_mix):
        for core in partition_tasks(heavy_mix, 3, speedup_cap=2.0):
            if len(core):
                assert lo_mode_schedulable(core)
                assert min_speedup(core).s_min <= 2.0 + 1e-9

    def test_single_core_insufficient(self, heavy_mix):
        with pytest.raises(PartitioningError):
            partition_tasks(heavy_mix, 1, speedup_cap=2.0)

    def test_heuristics_agree_on_feasibility(self, heavy_mix):
        for heuristic in ("first_fit", "worst_fit", "best_fit"):
            parts = partition_tasks(heavy_mix, 3, heuristic=heuristic)
            assert sum(len(p) for p in parts) == len(heavy_mix)

    def test_worst_fit_balances(self, heavy_mix):
        worst = partition_tasks(heavy_mix, 2, heuristic="worst_fit")
        loads = sorted(p.u_lo_system for p in worst)
        assert loads[-1] - loads[0] < 0.35, "worst-fit spreads the load"

    def test_validation(self, heavy_mix):
        with pytest.raises(PartitioningError):
            partition_tasks(heavy_mix, 0)
        with pytest.raises(PartitioningError):
            partition_tasks(heavy_mix, 2, heuristic="magic_fit")
        with pytest.raises(PartitioningError):
            partition_tasks(heavy_mix, 2, speedup_cap=0.0)


class TestDesign:
    def test_full_design(self, heavy_mix):
        design = partitioned_design(heavy_mix, 3, speedup_cap=2.0)
        assert design.used_cores >= 2
        assert design.max_s_min <= 2.0 + 1e-9
        assert math.isfinite(design.max_delta_r)
        assert set(design.assignment()) == {t.name for t in heavy_mix}

    def test_table_renders(self, heavy_mix):
        design = partitioned_design(heavy_mix, 3)
        text = design.table()
        assert "core" in text and "s_min" in text

    def test_fms_fits_after_preparation(self):
        """The un-prepared FMS (D(LO) = D(HI)) fits nowhere — preparation
        is a prerequisite for the speedup scheme, also per core."""
        from repro.model.transform import shorten_hi_deadlines

        with pytest.raises(PartitioningError):
            partitioned_design(fms_taskset(2.0), 2, speedup_cap=4.0)
        prepared = shorten_hi_deadlines(fms_taskset(2.0), 0.5)
        design = partitioned_design(prepared, 2, speedup_cap=4.0)
        assert design.used_cores >= 1
        assert design.max_s_min <= 4.0

    def test_heterogeneous_provisioning(self, heavy_mix):
        design = partitioned_design(
            heavy_mix, 3, speedup_cap=2.0, evaluate_at_cap=False
        )
        for core in design.cores:
            if core.resetting is not None:
                assert core.resetting.speedup <= 2.0 * 1.01 + 1e-9


    def test_scalar_design_runs_no_kernels(self, table1):
        # The scalar engine is the independent reference: admission and
        # the per-core s_min / Delta_R all stay on the per-task loops.
        from repro.analysis import kernels

        kernels.clear_memo()
        kernels.clear_compile_cache()
        kernels.perf_reset()
        scalar = partitioned_design(table1, 2, engine="scalar")
        assert kernels.PERF.compiles == 0
        assert kernels.PERF.kernel_evals == 0
        compiled = partitioned_design(table1, 2)
        assert scalar.assignment() == compiled.assignment()
        assert scalar.max_s_min == compiled.max_s_min
        assert scalar.max_delta_r == compiled.max_delta_r
        for ours, theirs in zip(scalar.cores, compiled.cores):
            assert ours.s_min.to_dict() == theirs.s_min.to_dict()
            assert (ours.resetting is None) == (theirs.resetting is None)
            if ours.resetting is not None:
                assert ours.resetting.to_dict() == theirs.resetting.to_dict()


class TestMinCores:
    def test_heavy_mix_needs_two(self, heavy_mix):
        assert min_cores(heavy_mix, speedup_cap=2.0) == 2

    def test_monotone_in_cap(self, heavy_mix):
        generous = min_cores(heavy_mix, speedup_cap=4.0)
        strict = min_cores(heavy_mix, speedup_cap=1.2)
        assert generous <= strict

    def test_unpartitionable_raises(self):
        ts = TaskSet(
            [MCTask.hi("h", c_lo=2, c_hi=4, d_lo=8, d_hi=8, period=8)]
        )  # infinite s_min on any core
        with pytest.raises(PartitioningError):
            min_cores(ts, max_cores=3)

    def test_random_population_partitionable(self):
        from repro.generator.taskgen import GeneratorConfig, generate_taskset

        rng = np.random.default_rng(5)
        for _ in range(3):
            ts = generate_taskset(0.8, rng, GeneratorConfig())
            prepared = ts.map(
                lambda t: t.with_lo_deadline(0.5 * t.d_hi) if t.is_hi else t
            )
            n = min_cores(prepared, speedup_cap=2.0, max_cores=8)
            assert 1 <= n <= 8
