"""Small-scale runs of the Figure 6/7 sweeps (shape checks)."""

import math

import numpy as np
import pytest

from repro.experiments import fig6, fig7
from repro.generator.taskgen import FIG7_CONFIG, GeneratorConfig


@pytest.fixture(scope="module")
def fig6_points():
    return fig6.run(u_bounds=(0.4, 0.9), sets_per_point=30, seed=99)


class TestFig6:
    def test_median_grows_with_utilization(self, fig6_points):
        lo, hi = fig6_points
        assert hi.s_min_stats().median > lo.s_min_stats().median
        assert hi.delta_r_stats().median > lo.delta_r_stats().median

    def test_low_utilization_slowdown(self, fig6_points):
        """Paper: for U_bound <= 0.5 the system can even slow down."""
        lo = fig6_points[0]
        assert lo.s_min_stats().maximum < 1.0

    def test_speedup_improves_schedulability(self, fig6_points):
        hi = fig6_points[1]
        assert hi.schedulable_fraction(1.9) >= hi.schedulable_fraction(1.0)
        assert hi.schedulable_fraction(3.0) >= hi.schedulable_fraction(1.9)

    def test_samples_complete(self, fig6_points):
        for p in fig6_points:
            assert len(p.samples) == 30

    def test_more_degradation_lowers_median(self):
        sweep = fig6.run_sweep(
            u_bounds=(0.7,), ys=(1.5, 3.0), s_values=(3.0,), sets_per_point=25, seed=5
        )
        mild = sweep[(3.0, 1.5)][0]
        strong = sweep[(3.0, 3.0)][0]
        assert strong.s_min_stats().median <= mild.s_min_stats().median + 1e-9
        assert strong.delta_r_stats().median <= mild.delta_r_stats().median + 1e-9

    def test_more_speed_lowers_reset_median(self):
        sweep = fig6.run_sweep(
            u_bounds=(0.7,), ys=(2.0,), s_values=(2.0, 3.0), sets_per_point=25, seed=5
        )
        slow = sweep[(2.0, 2.0)][0]
        fast = sweep[(3.0, 2.0)][0]
        assert fast.delta_r_stats().median <= slow.delta_r_stats().median + 1e-9

    def test_render(self, fig6_points):
        sweep = fig6.run_sweep(
            u_bounds=(0.4, 0.9), ys=(2.0,), s_values=(3.0,), sets_per_point=10, seed=5
        )
        text = fig6.render(fig6_points, sweep)
        assert "Figure 6a" in text and "Figure 6d" in text

    def test_evaluate_infeasible_set(self):
        """A LO-infeasible set reports lo_ok = False under Figure 6's options."""
        from repro import api
        from repro.model.task import MCTask
        from repro.model.taskset import TaskSet

        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=6, c_hi=8, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=5, d_lo=10, t_lo=10),
            ]
        )
        report = api.analyze(ts, speedup=3.0, auto_x="exact", y=2.0, resetting="always")
        assert not report.lo_ok


class TestFig7:
    @pytest.fixture(scope="class")
    def grid(self):
        return fig7.run(u_points=(0.3, 0.8), sets_per_point=12, seed=4)

    def test_fractions_in_range(self, grid):
        assert np.all((0.0 <= grid.with_speedup) & (grid.with_speedup <= 1.0))
        assert np.all((0.0 <= grid.without_speedup) & (grid.without_speedup <= 1.0))

    def test_speedup_region_contains_baseline(self, grid):
        """Paper: the speedup region strictly contains the EDF-VD one."""
        assert np.all(grid.with_speedup >= grid.without_speedup - 1e-9)
        assert grid.with_speedup.sum() > grid.without_speedup.sum()

    def test_easy_corner_fully_schedulable(self, grid):
        assert grid.with_speedup[0, 0] == 1.0

    def test_monotone_in_load(self, grid):
        assert grid.with_speedup[1, 1] <= grid.with_speedup[0, 0] + 1e-9

    def test_render(self, grid):
        text = fig7.render(grid)
        assert "With temporary speedup" in text
        assert "EDF-VD" in text

    def test_accept_respects_budget(self):
        rng = np.random.default_rng(0)
        from repro.generator.taskgen import generate_taskset_with_targets

        ts = generate_taskset_with_targets(0.5, 0.5, rng, FIG7_CONFIG)
        assert fig7.accept(ts, 2.0, math.inf) or True  # smoke
        # A zero budget can only fail (Delta_R > 0 whenever tasks exist).
        assert not fig7.accept(ts, 2.0, 0.0)
