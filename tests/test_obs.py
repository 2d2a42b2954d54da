"""Observability layer + batch-pipeline accounting regressions.

Covers the span tracer and metrics registry in isolation, their wiring
through the analysis stack and the batch runner (including determinism
across job counts), and the three checkpoint/accounting bugfixes this
layer made visible:

* a checkpointed *infrastructure* failure (worker process died) must be
  recomputed on resume, never resurfaced as a final verdict;
* failure payloads arriving via cache hits or resume must count in
  ``BatchStats.failures``;
* the checkpoint file must be truncated when not resuming and compacted
  (duplicate keys last-wins) when resuming.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

import repro.obs
from repro.analysis import kernels
from repro.api import analyze_many
from repro.experiments.table1 import table1_taskset
from repro.generator.taskgen import GeneratorConfig, generate_taskset
from repro.obs import MetricsRegistry, ProgressLine, format_eta, trace
from repro.obs.trace import NULL_SPAN, TIMING_FIELDS, Tracer, strip_timing
from repro.pipeline import (
    AnalysisFailure,
    AnalysisReport,
    AnalysisRequest,
    ResultCache,
    WorkQueueCore,
    decode_durable_line,
    encode_durable_line,
    evaluate_request,
)
from repro.pipeline.runner import CHECKPOINT_VERSION, BatchRunner


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with the process tracer off and empty."""
    trace.disable()
    trace.clear()
    yield
    trace.disable()
    trace.clear()


def _fresh_requests(count, seed=11):
    """Distinct-content requests, rebuilt per call so no run inherits
    compiled-snapshot instance attributes from a previous run."""
    rng = np.random.default_rng(seed)
    return [
        AnalysisRequest(
            taskset=generate_taskset(0.6, rng, GeneratorConfig(), name=f"o{i}"),
            speedup=2.0,
        )
        for i in range(count)
    ]


def _bad_request():
    """A request whose analysis fails deterministically (budget=1)."""
    return AnalysisRequest(taskset=table1_taskset(), speedup=2.0, max_candidates=1)


#: Option shapes the grouped evaluator handles itself.
_GROUPED_SHAPES = (
    {"speedup": 3.0, "auto_x": "exact", "y": 2.0, "resetting": "always"},
    {"speedup": 2.0, "auto_x": "density", "y": 2.0},
    {"speedup": 2.0, "x": 0.5, "y": 1.5, "reset_budget": 500.0},
    {"speedup": 2.0, "x": 0.6, "closed_form": True},
    {"speedup": 2.0, "per_task": True},
)


def _mixed_requests(count=150, seed=23):
    """Distinct-content requests spanning three evaluation groups.

    Every grouped option shape rides along with the items the grouped
    evaluator hands back to the per-item path (a multiproc item, a
    scalar-engine item) and one whose Corollary-5 scan exhausts its
    budget into a captured failure.
    """
    rng = np.random.default_rng(seed)
    requests = [
        AnalysisRequest(
            taskset=generate_taskset(0.6, rng, GeneratorConfig(), name=f"mx{i}"),
            **_GROUPED_SHAPES[i % len(_GROUPED_SHAPES)],
        )
        for i in range(count)
    ]
    special = {
        count // 15: {"cores": 2, "speedup_cap": 2.0, "x": 0.5},
        count // 2: {"speedup": 2.0, "auto_x": "density", "engine": "scalar"},
        count - 10: {
            "speedup": 2.0, "x": 0.5, "resetting": "always", "max_candidates": 1,
        },
    }
    for index, options in special.items():
        requests[index] = AnalysisRequest(taskset=requests[index].taskset, **options)
    return requests


# ---------------------------------------------------------------------------
# Tracer unit behaviour
# ---------------------------------------------------------------------------
class TestTracer:
    def test_disabled_returns_shared_null_span(self):
        assert trace.span("x") is NULL_SPAN
        assert trace.span("y", tag=1) is NULL_SPAN
        with trace.span("x") as sp:
            sp.add("count")
            sp.tag(a=1)
        assert trace.records() == []

    def test_enabled_records_nesting(self):
        trace.enable()
        with trace.span("outer", engine="compiled") as outer:
            outer.add("items", 3)
            with trace.span("inner"):
                pass
        records = trace.records()
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer = records
        assert inner["path"] == "outer/inner"
        assert inner["depth"] == 1
        assert outer["path"] == "outer"
        assert outer["depth"] == 0
        assert outer["tags"] == {"engine": "compiled"}
        assert outer["counts"] == {"items": 3}
        assert inner["duration_s"] <= outer["duration_s"]

    def test_exception_tags_error_and_propagates(self):
        trace.enable()
        with pytest.raises(ValueError):
            with trace.span("boom"):
                raise ValueError("no")
        (record,) = trace.records()
        assert record["tags"]["error"] == "ValueError"

    def test_strip_timing_removes_exactly_the_clock_fields(self):
        trace.enable()
        with trace.span("x"):
            pass
        (record,) = trace.records()
        stripped = strip_timing(record)
        assert set(record) - set(stripped) == set(TIMING_FIELDS)

    def test_drain_empties_and_extend_refills(self):
        trace.enable()
        with trace.span("a"):
            pass
        drained = trace.drain()
        assert len(drained) == 1
        assert trace.records() == []
        trace.extend(drained)
        assert len(trace.records()) == 1

    def test_write_jsonl_header_and_count(self, tmp_path):
        trace.enable()
        with trace.span("a"):
            pass
        with trace.span("b"):
            pass
        out = tmp_path / "t.jsonl"
        assert trace.write_jsonl(out) == 2
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"trace_schema_version": 1, "spans": 2}
        assert [json.loads(line)["name"] for line in lines[1:]] == ["a", "b"]

    def test_independent_tracer_instances_do_not_share_state(self):
        own = Tracer()
        own.enable()
        with own.span("local"):
            pass
        assert len(own.records()) == 1
        assert trace.records() == []


# ---------------------------------------------------------------------------
# MetricsRegistry unit behaviour
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_kernel_seconds_routes_to_timing(self):
        m = MetricsRegistry()
        m.record_kernel_perf({"kernel_evals": 4, "kernel_seconds": 0.5})
        snap = m.snapshot()
        assert snap["counters"]["kernels.kernel_evals"] == 4
        assert "kernels.kernel_seconds" not in snap["counters"]
        assert snap["timing"]["kernels.kernel_seconds"] == 0.5

    def test_record_helpers_are_additive(self):
        m = MetricsRegistry()
        m.record_cache(2, 3)
        m.record_cache(1, 0)
        m.record_chunk("pid7", 4, 0.25)
        m.record_chunk("pid7", 2, 0.25)
        snap = m.snapshot()
        assert snap["counters"]["cache.hits"] == 3
        assert snap["counters"]["cache.misses"] == 3
        worker = snap["timing"]["workers"]["pid7"]
        assert worker == {"chunks": 2, "items": 6, "seconds": 0.5}

    def test_strip_timing_leaves_only_deterministic_sections(self):
        m = MetricsRegistry()
        m.count("batch.total", 5)
        m.timing("batch.wall_seconds", 1.25)
        stripped = MetricsRegistry.strip_timing(m.snapshot())
        assert "timing" not in stripped
        assert stripped["counters"] == {"batch.total": 5}
        assert stripped["metrics_schema_version"] == 1

    def test_write_json_round_trips(self, tmp_path):
        m = MetricsRegistry()
        m.count("batch.total", 2)
        out = m.write_json(tmp_path / "m.json")
        assert json.loads(out.read_text()) == m.snapshot()

    def test_summary_mentions_headline_counters(self):
        m = MetricsRegistry()
        assert m.summary() == "(no metrics recorded)"
        m.record_batch_stats({"total": 3, "computed": 2, "failures": 1})
        s = m.summary()
        assert "batch.total=3" in s and "batch.failures=1" in s


# ---------------------------------------------------------------------------
# Progress line
# ---------------------------------------------------------------------------
class TestProgress:
    def test_format_eta(self):
        assert format_eta(42) == "42s"
        assert format_eta(190) == "3m10s"
        assert format_eta(7500) == "2h05m"
        assert format_eta(float("inf")) == "?"
        assert format_eta(float("nan")) == "?"
        assert format_eta(-1) == "?"

    def test_final_update_always_renders(self):
        stream = io.StringIO()
        line = ProgressLine(label="analysed", stream=stream, min_interval=3600)
        for done in range(1, 6):
            line.update(done, 5)
        line.close()
        out = stream.getvalue()
        assert "5/5 analysed (100%" in out
        assert "eta 0s" in out

    def test_eta_uses_recent_window(self):
        line = ProgressLine(stream=io.StringIO(), window=4)
        line._settles.extend([(0.0, 0), (2.0, 2)])  # 1 item/s observed
        assert line.eta_seconds(2, 6) == pytest.approx(4.0)
        assert line.eta_seconds(6, 6) == 0.0


# ---------------------------------------------------------------------------
# Instrumentation through the analysis stack
# ---------------------------------------------------------------------------
class TestInstrumentation:
    def test_evaluate_request_emits_nested_spans(self):
        kernels.clear_memo()
        kernels.clear_compile_cache()
        trace.enable()
        evaluate_request(_fresh_requests(1)[0])
        records = trace.records()
        names = {r["name"] for r in records}
        assert "pipeline.evaluate" in names
        assert "speedup.min_speedup" in names
        roots = [r for r in records if r["name"] == "pipeline.evaluate"]
        assert len(roots) == 1 and roots[0]["depth"] == 0
        for r in records:
            if r["name"] != "pipeline.evaluate":
                assert r["path"].startswith("pipeline.evaluate/")

    def test_disabled_tracing_leaves_no_records(self):
        evaluate_request(_fresh_requests(1)[0])
        assert trace.records() == []

    def test_trace_content_identical_across_job_counts(self):
        def stripped_spans(jobs, chunk_size):
            kernels.clear_memo()
            kernels.clear_compile_cache()
            trace.enable()
            analyze_many(_fresh_requests(8), jobs=jobs, chunk_size=chunk_size)
            trace.disable()
            spans = [strip_timing(r) for r in trace.drain()]
            return sorted(json.dumps(s, sort_keys=True) for s in spans)

        # Four groups over two jobs: two workers and a dispatching caller.
        # Two groups: one worker, and the caller evaluates the other.
        for chunk_size in (2, 4):
            assert stripped_spans(1, chunk_size) == stripped_spans(2, chunk_size)

    def test_grouped_stages_have_their_own_spans(self):
        kernels.clear_memo()
        kernels.clear_compile_cache()
        trace.enable()
        analyze_many(_mixed_requests(count=12))
        trace.disable()
        spans = trace.drain()
        stages = {
            r["name"]: r
            for r in spans
            if r["path"] == "pipeline.evaluate_grouped/" + r["name"]
        }
        assert sorted(stages) == [
            "grouped.compile", "grouped.extras", "grouped.lo_test",
            "grouped.resetting", "grouped.speedup", "grouped.tuning",
        ]
        for record in stages.values():
            assert record["depth"] == 1
            assert list(record["tags"]) == ["items"]
            assert 0 < record["tags"]["items"] <= 12
        # Per-item work below a stage nests under it, e.g. compiles.
        assert any(
            r["path"].startswith("pipeline.evaluate_grouped/grouped.compile/")
            for r in spans
        )


class TestJobsInvarianceAcrossGroups:
    """jobs=1/2/3 agree on payloads, counters and trace content for a
    batch cut into several groups, whatever ships to which worker."""

    @staticmethod
    def _run(jobs):
        kernels.clear_memo()
        kernels.clear_compile_cache()
        metrics = MetricsRegistry()
        trace.enable()
        with WorkQueueCore(jobs=jobs, metrics=metrics) as core:
            reports = core.run(_mixed_requests())
        trace.disable()
        spans = sorted(
            json.dumps(strip_timing(r), sort_keys=True) for r in trace.drain()
        )
        return [r.to_dict() for r in reports], metrics.snapshot(), spans

    def test_identical_across_job_counts(self):
        payloads, snapshot, spans = self._run(1)
        assert snapshot["timing"]["workers"]["inline"]["chunks"] >= 3
        assert sum(p["failure"] is not None for p in payloads) == 1
        assert payloads[140]["failure"]["stage"] == "resetting_time"
        assert payloads[10]["multiproc"] is not None
        for jobs in (2, 3):
            other_payloads, other_snapshot, other_spans = self._run(jobs)
            assert other_payloads == payloads
            assert MetricsRegistry.strip_timing(
                other_snapshot
            ) == MetricsRegistry.strip_timing(snapshot)
            assert other_spans == spans


# ---------------------------------------------------------------------------
# Runner metrics: reconciliation and job-count invariance
# ---------------------------------------------------------------------------
class TestRunnerMetrics:
    def test_counters_reconcile_with_stats_and_cache(self, tmp_path):
        requests = _fresh_requests(6) + [_bad_request()] * 2
        cache = ResultCache(tmp_path / "cache")
        BatchRunner(cache=cache).run(requests[:3])  # pre-warm 3 keys

        m = MetricsRegistry()
        runner = BatchRunner(cache=cache, metrics=m)
        runner.run(requests)
        stats = runner.stats
        counters = m.snapshot()["counters"]
        assert counters["batch.total"] == stats.total == len(requests)
        assert counters["batch.computed"] == stats.computed == 4
        assert counters["batch.cache_hits"] == stats.cache_hits == 3
        assert counters["batch.deduplicated"] == stats.deduplicated == 1
        assert counters["batch.failures"] == stats.failures == 1
        assert (
            stats.computed + stats.cache_hits + stats.resumed + stats.deduplicated
            == stats.total
        )
        assert counters["cache.hits"] == 3
        assert counters["cache.misses"] == 5  # 4 unique pending + 1 dup probe

    def test_metrics_identical_across_job_counts(self):
        def snapshot(jobs, **options):
            kernels.clear_memo()
            kernels.clear_compile_cache()
            m = MetricsRegistry()
            with WorkQueueCore(jobs=jobs, metrics=m, **options) as core:
                core.run(_fresh_requests(10))
            return MetricsRegistry.strip_timing(m.snapshot())

        # A kept pool of four workers; then a run-scoped pool, where three
        # groups fork two workers and the caller evaluates the third.
        assert snapshot(1) == snapshot(4)
        run_scoped = {"keep_pool": False, "chunk_size": 4}
        assert snapshot(1, **run_scoped) == snapshot(4, **run_scoped)

    def test_inline_run_records_kernel_counters(self):
        kernels.clear_memo()
        kernels.clear_compile_cache()
        m = MetricsRegistry()
        BatchRunner(metrics=m).run(_fresh_requests(3))
        counters = m.snapshot()["counters"]
        assert counters["kernels.kernel_evals"] > 0
        assert counters["kernels.compiles"] == 3
        assert m.snapshot()["timing"]["workers"]["inline"]["items"] == 3


# ---------------------------------------------------------------------------
# Bugfix 1: checkpointed infrastructure failures are not final
# ---------------------------------------------------------------------------
class TestWorkerFailureResume:
    def _worker_failure_entry(self, request):
        report = AnalysisReport.failed(
            request,
            AnalysisFailure.from_exception("worker", RuntimeError("pool died")),
        )
        return {
            "checkpoint_version": CHECKPOINT_VERSION,
            "key": request.key,
            "report": report.to_dict(),
        }

    def test_worker_death_is_recomputed_on_resume(self, tmp_path):
        request = AnalysisRequest(taskset=table1_taskset(), speedup=2.0)
        ck = tmp_path / "ck.jsonl"
        entry = self._worker_failure_entry(request)
        ck.write_text(encode_durable_line(entry) + "\n")

        runner = BatchRunner()
        (payload,) = runner.run([request], checkpoint=ck, resume=True)
        # Dropped as an infrastructure failure, not as a corrupt line.
        assert runner.faults.checkpoint_corrupt_lines == 0
        assert runner.stats.resumed == 0
        assert runner.stats.computed == 1
        assert payload["failure"] is None
        # The recomputed verdict replaced the transient entry on disk
        # (rewritten in the CRC-framed durable format).
        (line,) = ck.read_text().splitlines()
        entry = decode_durable_line(line)
        assert entry["key"] == request.key
        assert entry["report"]["failure"] is None

    def test_analysis_failure_is_still_resumed(self, tmp_path):
        # Counterpart: a *verdict* failure (analysis stage) stays final.
        bad = _bad_request()
        ck = tmp_path / "ck.jsonl"
        first = analyze_many([bad], checkpoint=ck)[0]
        runner = BatchRunner()
        (second,) = runner.run([bad], checkpoint=ck, resume=True)
        assert runner.stats.resumed == 1
        assert runner.stats.computed == 0
        assert second == first.to_dict()

    def test_worker_entry_acts_as_deletion_of_earlier_success(self, tmp_path):
        # Later infra-failure entry invalidates an earlier success for
        # the same key (last-wins semantics extend to deletions).
        request = AnalysisRequest(taskset=table1_taskset(), speedup=2.0)
        ck = tmp_path / "ck.jsonl"
        analyze_many([request], checkpoint=ck)
        good_line = ck.read_text()
        ck.write_text(
            good_line
            + encode_durable_line(self._worker_failure_entry(request))
            + "\n"
        )
        runner = BatchRunner()
        runner.run([request], checkpoint=ck, resume=True)
        assert runner.stats.resumed == 0
        assert runner.stats.computed == 1


# ---------------------------------------------------------------------------
# Bugfix 2: failures arriving via cache or resume are counted
# ---------------------------------------------------------------------------
class TestFailureAccounting:
    def test_cache_hit_failure_counts(self, tmp_path):
        bad = _bad_request()
        cache = ResultCache(tmp_path / "cache")
        first = BatchRunner(cache=cache)
        first.run([bad])
        assert first.stats.failures == 1

        second = BatchRunner(cache=cache)
        second.run([bad])
        assert second.stats.cache_hits == 1
        assert second.stats.failures == 1

    def test_resumed_failure_counts(self, tmp_path):
        bad = _bad_request()
        ck = tmp_path / "ck.jsonl"
        analyze_many([bad], checkpoint=ck)
        runner = BatchRunner()
        runner.run([bad], checkpoint=ck, resume=True)
        assert runner.stats.resumed == 1
        assert runner.stats.failures == 1


# ---------------------------------------------------------------------------
# Bugfix 3: checkpoint truncation and compaction
# ---------------------------------------------------------------------------
class TestCheckpointHygiene:
    def test_fresh_run_truncates_stale_checkpoint(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        old = AnalysisRequest(taskset=table1_taskset(), speedup=1.5)
        new = AnalysisRequest(taskset=table1_taskset(), speedup=3.0)
        analyze_many([old], checkpoint=ck)
        analyze_many([new], checkpoint=ck)  # resume=False: must truncate
        lines = ck.read_text().splitlines()
        assert len(lines) == 1
        assert decode_durable_line(lines[0])["key"] == new.key

    def test_resume_compacts_duplicate_keys_last_wins(self, tmp_path):
        request = AnalysisRequest(taskset=table1_taskset(), speedup=2.0)
        ck = tmp_path / "ck.jsonl"
        analyze_many([request], checkpoint=ck)
        (good_line,) = ck.read_text().splitlines()
        stale = decode_durable_line(good_line)
        stale["report"] = dict(stale["report"])
        stale["report"]["failure"] = {
            "stage": "min_speedup",
            "error_type": "AnalysisBudgetExceeded",
            "message": "older attempt",
        }
        # Older failed attempt first, then the success: last wins.
        # Both lines are CRC-framed, so neither is dropped as corrupt.
        ck.write_text(encode_durable_line(stale) + "\n" + good_line + "\n")

        runner = BatchRunner()
        (payload,) = runner.run([request], checkpoint=ck, resume=True)
        assert runner.faults.checkpoint_corrupt_lines == 0
        assert runner.stats.resumed == 1
        assert payload["failure"] is None
        lines = ck.read_text().splitlines()
        assert len(lines) == 1  # compacted
        assert decode_durable_line(lines[0])["report"]["failure"] is None

    def test_resume_then_continue_appends_after_compaction(self, tmp_path):
        requests = [
            AnalysisRequest(taskset=table1_taskset(), speedup=s)
            for s in (1.5, 2.0, 3.0)
        ]
        ck = tmp_path / "ck.jsonl"
        analyze_many(requests[:1], checkpoint=ck)
        runner = BatchRunner()
        runner.run(requests, checkpoint=ck, resume=True)
        assert runner.stats.resumed == 1
        assert runner.stats.computed == 2
        lines = ck.read_text().splitlines()
        assert len(lines) == 3
        assert {decode_durable_line(line)["key"] for line in lines} == {
            r.key for r in requests
        }


# ---------------------------------------------------------------------------
# Layering: the obs package observes, it does not participate.
# The invariant itself is enforced tree-wide by repro-lint rule RL001
# (see repro.lint.rules.layering and tests/test_lint.py); this test
# pins the migration: linting the installed obs package with RL001
# alone must come back clean.
# ---------------------------------------------------------------------------
class TestObsLayering:
    def test_obs_package_passes_the_rl001_layering_rule(self):
        from repro.lint import lint_project

        obs_dir = Path(repro.obs.__file__).parent
        findings = lint_project([obs_dir], rules=["RL001"]).findings
        assert findings == []
