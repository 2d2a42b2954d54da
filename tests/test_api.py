"""Public facade: repro.api, result protocol, removed shims, report I/O."""

import math
import warnings

import numpy as np
import pytest

import repro
from repro import api
from repro.analysis.result import AnalysisResult, decode_float, encode_float
from repro.experiments.table1 import table1_degraded_taskset, table1_taskset


class TestAnalyze:
    def test_table1_example(self):
        report = api.analyze(table1_taskset(), speedup=2.0, budget=7.0)
        assert report.s_min == pytest.approx(4.0 / 3.0)
        assert report.delta_r == pytest.approx(6.0)
        assert report.lo_ok and report.hi_ok and report.within_budget
        assert report.ok

    def test_budget_violation(self):
        report = api.analyze(table1_taskset(), speedup=2.0, budget=1.0)
        assert report.hi_ok
        assert report.within_budget is False
        assert not report.ok

    def test_without_target_speedup(self):
        report = api.analyze(table1_degraded_taskset())
        assert report.s_min == pytest.approx(0.875)
        assert report.hi_ok is None
        assert report.resetting_result is None

    def test_with_design_knobs(self):
        report = api.analyze(
            table1_taskset(), speedup=3.0, auto_x="density", y=2.0,
            closed_form=True,
        )
        assert report.x_applied is not None and 0.0 < report.x_applied < 1.0
        assert report.closed_form is not None
        # Lemma 6 upper-bounds the exact Theorem-2 value.
        assert report.closed_form.s_min_bound >= report.s_min - 1e-9

    def test_analyze_many_mixes_tasksets_and_requests(self):
        explicit = api.AnalysisRequest(taskset=table1_taskset(), speedup=3.0)
        reports = api.analyze_many(
            [table1_taskset(), explicit, table1_degraded_taskset()], speedup=2.0
        )
        assert [r.target_speedup for r in reports] == [2.0, 3.0, 2.0]


class TestResultProtocol:
    def test_all_result_types_satisfy_protocol(self):
        ts = table1_taskset()
        results = [
            api.min_speedup(ts),
            api.resetting_time(ts, 2.0),
            api.closed_form_bounds(ts, 0.5, 2.0, 2.0),
            api.analyze(ts, speedup=2.0),
        ]
        for result in results:
            assert isinstance(result, AnalysisResult)
            assert isinstance(result.ok, bool)
            assert isinstance(result.value, float)
            assert isinstance(result.diagnostics, dict)
            assert isinstance(result.to_dict(), dict)

    def test_component_round_trips(self):
        ts = table1_taskset()
        s = api.min_speedup(ts)
        assert type(s).from_dict(s.to_dict()) == s
        r = api.resetting_time(ts, 2.0)
        assert type(r).from_dict(r.to_dict()) == r
        c = api.closed_form_bounds(ts, 0.5, 2.0, 2.0)
        assert type(c).from_dict(c.to_dict()) == c

    def test_float_encoding(self):
        assert encode_float(math.inf) == "inf"
        assert encode_float(-math.inf) == "-inf"
        assert encode_float(math.nan) == "nan"
        assert encode_float(1.5) == 1.5
        assert encode_float(None) is None
        assert decode_float("inf") == math.inf
        assert decode_float("-inf") == -math.inf
        assert math.isnan(decode_float("nan"))
        assert decode_float(None) is None
        assert decode_float(1.5) == 1.5


class TestReportIO:
    def test_report_file_round_trip(self, tmp_path):
        report = api.analyze(table1_taskset(), speedup=2.0, budget=7.0)
        path = tmp_path / "report.json"
        api.save_report(report, path)
        clone = api.load_report(path)
        assert clone.to_dict() == report.to_dict()

    def test_rejects_unknown_report_version(self, tmp_path):
        from repro.io import report_to_json, report_from_json

        report = api.analyze(table1_taskset(), speedup=2.0)
        text = report_to_json(report).replace(
            '"schema_version": 1', '"schema_version": 42'
        )
        with pytest.raises(ValueError, match="unsupported"):
            report_from_json(text)

    def test_rejects_wrong_format(self):
        from repro.io import report_from_json

        with pytest.raises(ValueError, match="not a repro-mc"):
            report_from_json('{"format": "something-else", "schema_version": 1}')

    def test_infinite_resetting_time_round_trips(self, tmp_path):
        # s below the HI-mode demand rate: the backlog never drains, so
        # Delta_R = inf must survive the JSON round trip.
        report = api.analyze(table1_taskset(), speedup=1.2, resetting="always")
        assert math.isinf(report.delta_r)
        path = tmp_path / "inf.json"
        api.save_report(report, path)
        assert math.isinf(api.load_report(path).delta_r)


class TestDeprecationShims:
    @pytest.mark.parametrize(
        "name",
        [
            "min_speedup", "resetting_time", "system_schedulable",
            "lo_mode_schedulable", "hi_mode_schedulable", "dbf_hi",
            "dbf_lo", "adb_hi", "closed_form_speedup",
            "closed_form_resetting_time", "min_preparation_factor",
        ],
    )
    def test_old_top_level_name_warns_and_works(self, name):
        """The 1.x top-level names: their shims are gone since 2.0.0, so
        each one now raises AttributeError (the test keeps its 1.x name)."""
        with pytest.raises(AttributeError):
            getattr(repro, name)
        assert name not in dir(repro)

    def test_new_surface_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.analyze(table1_taskset())
            api.min_speedup(table1_taskset())

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_export


class TestDemandCurve:
    def test_matches_raw_dbf_functions(self):
        from repro.analysis.dbf import total_adb_hi, total_dbf_hi, total_dbf_lo

        ts = table1_taskset()
        deltas = np.linspace(0.0, 40.0, 81)
        np.testing.assert_array_equal(
            api.demand_curve(ts, deltas, kind="dbf_hi"),
            np.asarray(total_dbf_hi(ts, deltas), dtype=float),
        )
        np.testing.assert_array_equal(
            api.demand_curve(ts, deltas, kind="dbf_lo"),
            np.asarray(total_dbf_lo(ts, deltas), dtype=float),
        )
        np.testing.assert_array_equal(
            api.demand_curve(ts, deltas, kind="adb_hi"),
            np.asarray(total_adb_hi(ts, deltas), dtype=float),
        )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            api.demand_curve(table1_taskset(), [1.0], kind="dbf_mid")


class TestServiceSurface:
    """The service exports ride on the facade (satellite of the
    analysis-as-a-service PR); RL005 enforces docstrings/annotations,
    this pins identity and availability."""

    def test_service_exports_present(self):
        for name in ("serve", "AnalysisClient", "ServiceError",
                     "WorkQueueCore", "JobHandle", "job_fingerprint",
                     "WireError", "WIRE_VERSION"):
            assert name in api.__all__
            assert hasattr(api, name)

    def test_reexports_are_the_service_objects(self):
        from repro.service.client import AnalysisClient, ServiceError
        from repro.service.server import serve

        assert api.serve is serve
        assert api.AnalysisClient is AnalysisClient
        assert api.ServiceError is ServiceError

    def test_work_queue_core_usable_from_facade(self):
        request = api.AnalysisRequest(taskset=table1_taskset(), speedup=2.0)
        core = api.WorkQueueCore(jobs=1)
        try:
            reports = core.run([request])
            assert reports[0].to_dict() == api.analyze(
                table1_taskset(), speedup=2.0
            ).to_dict()
            assert core.stats.reconciles()
        finally:
            core.close()
