"""Tests for the per-figure experiment modules (paper oracles + shapes)."""

import math

import numpy as np
import pytest

from repro.experiments import common, fig1, fig3, fig4, fig5, table1 as t1mod


class TestTable1Module:
    def test_oracles(self):
        from repro.analysis.resetting import resetting_time
        from repro.analysis.speedup import min_speedup

        ts = t1mod.table1_taskset()
        tsd = t1mod.table1_degraded_taskset()
        assert min_speedup(ts).s_min == pytest.approx(t1mod.EXPECTED_S_MIN)
        assert min_speedup(tsd).s_min == pytest.approx(t1mod.EXPECTED_S_MIN_DEGRADED)
        assert resetting_time(ts, 2.0).delta_r == pytest.approx(
            t1mod.EXPECTED_DELTA_R_AT_2
        )

    def test_degraded_parameters(self):
        tau2 = t1mod.table1_degraded_taskset().by_name("tau2")
        assert tau2.d_hi == 15.0 and tau2.t_hi == 20.0

    def test_render(self):
        text = t1mod.render()
        assert "tau1" in text and "Degraded" in text


class TestFig1:
    def test_panels(self):
        panels = fig1.run(horizon=30.0, samples=61)
        assert len(panels) == 2
        no_deg, deg = panels
        assert no_deg.s_min == pytest.approx(4.0 / 3.0)
        assert deg.s_min == pytest.approx(0.875)

    def test_supply_dominates_demand(self):
        """The computed s_min supply line sits above the demand curve."""
        for panel in fig1.run(horizon=60.0, samples=601):
            assert np.all(panel.demand <= panel.supply + 1e-6)

    def test_supply_touches_demand_at_critical_delta(self):
        panel = fig1.run(horizon=30.0, samples=31)[0]
        from repro.analysis.dbf import total_dbf_hi
        from repro.experiments.table1 import table1_taskset

        demand = total_dbf_hi(table1_taskset(), panel.critical_delta)
        assert demand == pytest.approx(panel.s_min * panel.critical_delta)

    def test_render(self):
        text = fig1.render(horizon=20.0)
        assert "s_min = 1.33333" in text
        assert "with degradation" in text


class TestFig3:
    def test_panel_a_oracles(self):
        curves = fig3.run_a()
        by_s = {round(c.s, 4): c for c in curves}
        assert by_s[2.0].delta_r == pytest.approx(6.0)
        assert by_s[round(4 / 3, 4)].delta_r == pytest.approx(42.75)

    def test_panel_b_monotone(self):
        for series in fig3.run_b(s_lo=1.5, s_hi=4.0, points=11):
            finite = series.delta_r[np.isfinite(series.delta_r)]
            assert np.all(np.diff(finite) <= 1e-9)

    def test_degradation_curve_below_plain(self):
        plain, degraded = fig3.run_b(s_lo=2.0, s_hi=4.0, points=9)
        assert np.all(degraded.delta_r <= plain.delta_r + 1e-9)

    def test_render(self):
        text = fig3.render()
        assert "Delta_R = 6" in text


class TestFig4:
    def test_grid_monotonicity(self):
        grid = fig4.run_a(xs=np.linspace(0.3, 0.8, 6), ys=np.linspace(1.0, 3.0, 5))
        # Decreasing along x upward... increasing x -> larger bound.
        assert np.all(np.diff(grid.s_min, axis=0) >= -1e-9)
        # Increasing y -> smaller bound.
        assert np.all(np.diff(grid.s_min, axis=1) <= 1e-9)

    def test_series_b_divergence(self):
        series = fig4.run_b(s_mins=(1.0,), s_max=3.0, points=10)[0]
        assert series.delta_r[0] > series.delta_r[-1]
        assert series.delta_r[0] > 10 * series.delta_r[-1] * 0.1

    def test_higher_load_longer_reset(self):
        low, high = fig4.run_b(s_mins=(0.8, 1.5), s_max=4.0, points=9)
        shared = np.linspace(2.0, 4.0, 5)
        low_r = np.interp(shared, low.speedups, low.delta_r)
        high_r = np.interp(shared, high.speedups, high.delta_r)
        assert np.all(high_r >= low_r - 1e-9)

    def test_render(self):
        assert "Figure 4a" in fig4.render()


class TestFig5:
    def test_grid_a_shape_and_monotonicity(self):
        grid = fig5.run_a(xs=np.linspace(0.4, 0.9, 4), ys=np.linspace(1.5, 3.0, 4))
        assert grid.s_min.shape == (4, 4)
        # Less preparation (larger x) never lowers the exact speedup.
        assert np.all(np.diff(grid.s_min, axis=0) >= -1e-6)
        # More degradation never raises it.
        assert np.all(np.diff(grid.s_min, axis=1) <= 1e-6)

    def test_grid_b_monotonicity(self):
        grid = fig5.run_b(speedups=np.linspace(1.5, 3.0, 4), gammas=np.linspace(1.0, 2.5, 4))
        finite = np.isfinite(grid.delta_r)
        assert finite.all()
        # Faster processor -> shorter reset (rows), heavier gamma -> longer (cols).
        assert np.all(np.diff(grid.delta_r, axis=0) <= 1e-6)
        assert np.all(np.diff(grid.delta_r, axis=1) >= -1e-6)

    def test_headline(self):
        assert fig5.run_headline(s=2.0) < 3000.0


class TestCommonHelpers:
    def test_box_stats(self):
        stats = common.BoxStats.of([1.0, 2.0, 3.0, 4.0, math.inf])
        assert stats.count == 4
        assert stats.median == pytest.approx(2.5)
        assert "med=" in stats.row()

    def test_box_stats_empty(self):
        stats = common.BoxStats.of([math.inf])
        assert stats.count == 0 and math.isnan(stats.median)

    def test_series_table(self):
        text = common.series_table("x", [1, 2], {"a": [0.5, math.inf]})
        assert "inf" in text and "0.5" in text

    def test_contour_grid(self):
        grid = np.array([[1.0, 2.0], [3.0, math.inf]])
        text = common.contour_grid("r", "c", [0.1, 0.2], [10, 20], grid)
        assert "inf" in text

    def test_ascii_curve(self):
        text = common.ascii_curve([0, 1, 2], [0, 1, 4], title="t")
        assert "*" in text and text.startswith("t")

    def test_ascii_curve_no_data(self):
        assert "no finite data" in common.ascii_curve([0], [math.inf], title="x")
