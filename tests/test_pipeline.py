"""Batch pipeline: determinism, caching, checkpoint/resume, error capture."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.kernels import compile_taskset, compile_tasksets
from repro.api import analyze_many
from repro.experiments.table1 import table1_degraded_taskset, table1_taskset
from repro.generator.taskgen import GeneratorConfig, generate_taskset
from repro.model.task import Criticality, MCTask
from repro.model.taskset import TaskSet
from repro.pipeline import (
    AnalysisReport,
    AnalysisRequest,
    ResultCache,
    WorkQueueCore,
    decode_durable_line,
    encode_durable_line,
    evaluate_request,
    job_fingerprint,
    request_fingerprint,
    taskset_fingerprint,
)
from repro.pipeline.runner import BatchRunner, BatchStats


@pytest.fixture(scope="module")
def population():
    """Seeded 200-task-set population (Figure-6 generator)."""
    rng = np.random.default_rng(42)
    return [
        generate_taskset(0.6, rng, GeneratorConfig(), name=f"p{i}")
        for i in range(200)
    ]


@pytest.fixture(scope="module")
def population_requests(population):
    return [
        AnalysisRequest(
            taskset=ts, speedup=2.0, auto_x="density", y=2.0, resetting="always"
        )
        for ts in population
    ]


def _dicts(reports):
    return [r.to_dict() for r in reports]


class TestFingerprint:
    def test_name_invariant(self):
        a = table1_taskset()
        b = TaskSet(list(a), name="renamed")
        assert taskset_fingerprint(a) == taskset_fingerprint(b)

    def test_task_order_invariant(self):
        a = table1_taskset()
        b = TaskSet(list(reversed(list(a))), name=a.name)
        assert taskset_fingerprint(a) == taskset_fingerprint(b)

    def test_parameter_sensitive(self):
        a = table1_taskset()
        bumped = [
            MCTask(
                name=t.name, crit=t.crit, c_lo=t.c_lo, c_hi=t.c_hi,
                d_lo=2.0 * t.d_lo, d_hi=2.0 * t.d_hi,
                t_lo=2.0 * t.t_lo, t_hi=2.0 * t.t_hi,
            )
            for t in a
        ]
        assert taskset_fingerprint(a) != taskset_fingerprint(TaskSet(bumped))

    def test_options_sensitive(self):
        ts = table1_taskset()
        k1 = AnalysisRequest(taskset=ts, speedup=2.0).key
        k2 = AnalysisRequest(taskset=ts, speedup=3.0).key
        k3 = AnalysisRequest(taskset=ts, speedup=2.0).key
        assert k1 != k2
        assert k1 == k3

    def test_request_fingerprint_is_hex_digest(self):
        key = request_fingerprint(table1_taskset(), {"speedup": 2.0})
        assert len(key) == 64 and set(key) <= set("0123456789abcdef")


#: Content addresses measured on the canonical sets.  Every cache entry
#: and checkpoint line is keyed by one of these digests, so a change
#: here orphans every stored artifact and needs a version bump.
PINNED_ADDRESSES = {
    "table1": "6889289c4a563c0586997492b537ae7c14607628a1ed1b7fb28e0a24167aa9e6",
    "table1_degraded": "badb0260685d1aec29d106e9d018901a43e6e00f0cd821488b31160371d412fe",
    "table1_speedup": "6171864e61e6799534b03c909c502fab5a26126f3ae588e1cd89b63e84eadda5",
    "table1_tuned": "1e19a7bef5743c1cad9c68dc304b1066b318b8c0e170a5d5d361ce0c36e0d68c",
    "table1_multicore": "b5257e65cd58df3ddfc40e2157887b37c2df629c7700052dce33576b4f44af6b",
    "g0": "a60e839d12dd2b883eabc3a4de23b753fec5a8f27ae580843b27bd30ddee9d37",
    "g0_compiled": "a60e839d12dd2b883eabc3a4de23b753fec5a8f27ae580843b27bd30ddee9d37",
    "g0_scaled": "d0cb75217f53ecc15487aae864f19ac632a2fb94e0f3b025b0e950dff421208b",
    "g0_request": "b16fa71e08f8bf051f027d6bedbaf2963a0dbbb9858073bf23b0179cb07bbef6",
}


def content_addresses():
    """The digests :data:`PINNED_ADDRESSES` pins, computed afresh."""
    table1 = table1_taskset()
    g0 = generate_taskset(
        0.6, np.random.default_rng(2015), GeneratorConfig(), name="g0"
    )
    return {
        "table1": taskset_fingerprint(table1),
        "table1_degraded": taskset_fingerprint(table1_degraded_taskset()),
        "table1_speedup": AnalysisRequest(taskset=table1, speedup=2.0).key,
        "table1_tuned": AnalysisRequest(
            taskset=table1, speedup=2.0, auto_x="exact", y=2.0,
            reset_budget=50.0,
        ).key,
        "table1_multicore": AnalysisRequest(
            taskset=table1, cores=2, speedup_cap=2.0
        ).key,
        "g0": taskset_fingerprint(g0),
        "g0_compiled": compile_tasksets([g0])[0].fingerprint,
        "g0_scaled": (
            compile_taskset(g0).with_uniform_scaling(0.5, 2.0).fingerprint
        ),
        "g0_request": AnalysisRequest(
            taskset=g0, speedup=3.0, reset_budget=500.0
        ).key,
    }


class TestPinnedContentAddresses:
    def test_in_process(self):
        assert content_addresses() == PINNED_ADDRESSES

    def test_under_another_hash_seed(self):
        root = Path(__file__).resolve().parent.parent
        seed = "12345" if os.environ.get("PYTHONHASHSEED") == "7" else "7"
        script = (
            "import json, sys\n"
            f"sys.path[:0] = [{str(root / 'src')!r}, {str(root)!r}]\n"
            "from tests.test_pipeline import content_addresses\n"
            "print(json.dumps(content_addresses()))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == PINNED_ADDRESSES


class TestDeterminism:
    def test_serial_and_parallel_reports_identical(self, population_requests):
        serial = analyze_many(population_requests, jobs=1)
        parallel = analyze_many(population_requests, jobs=4)
        assert _dicts(serial) == _dicts(parallel)

    def test_reports_in_request_order(self, population, population_requests):
        reports = analyze_many(population_requests, jobs=4)
        assert [r.name for r in reports] == [ts.name for ts in population]

    def test_duplicate_requests_computed_once(self):
        req = AnalysisRequest(taskset=table1_taskset(), speedup=2.0)
        runner = BatchRunner(jobs=1)
        payloads = runner.run([req, req, req])
        assert runner.stats.computed == 1
        assert runner.stats.total == 3
        assert len({json.dumps(d, sort_keys=True) for d in payloads}) == 1


class TestCache:
    def test_second_run_recomputes_nothing(self, tmp_path, population_requests):
        cache = ResultCache(tmp_path / "cache")
        first = BatchRunner(jobs=1, cache=cache)
        payloads1 = first.run(population_requests[:50])
        assert first.stats.computed == 50
        second = BatchRunner(jobs=1, cache=cache)
        payloads2 = second.run(population_requests[:50])
        assert second.stats.computed == 0
        assert second.stats.cache_hits == 50
        assert payloads1 == payloads2

    def test_disk_survives_memory_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        req = AnalysisRequest(taskset=table1_taskset(), speedup=2.0)
        p1 = BatchRunner(cache=cache).run([req])
        cache.clear_memory()
        assert len(cache) == 0
        runner = BatchRunner(cache=cache)
        p2 = runner.run([req])
        assert runner.stats.cache_hits == 1
        assert p1 == p2

    def test_memory_only_cache(self):
        cache = ResultCache()
        req = AnalysisRequest(taskset=table1_taskset(), speedup=2.0)
        BatchRunner(cache=cache).run([req])
        assert len(cache) == 1
        assert cache.directory is None

    def test_directory_path_opens_a_cache(self, tmp_path, population_requests):
        runner = BatchRunner(cache=str(tmp_path))
        runner.run(population_requests[:5])
        assert runner.stats.computed == 5
        runner.run(population_requests[:5])
        assert runner.stats.cache_hits == 5 and runner.stats.computed == 0
        fresh = BatchRunner(cache=tmp_path)
        fresh.run(population_requests[:5])
        assert fresh.stats.cache_hits == 5

    def test_core_opens_one_cache_for_every_run(self, tmp_path, population_requests):
        core = WorkQueueCore(cache=str(tmp_path))
        try:
            cache = core.runner.cache
            assert isinstance(cache, ResultCache)
            core.run(population_requests[:5])
            core.run(population_requests[:6])  # another job, same cache
            assert core.runner.cache is cache
            assert (cache.hits, cache.misses) == (5, 6)
        finally:
            core.close()

    def test_cache_of_another_type_fails_at_construction(self):
        with pytest.raises(TypeError, match="cache must be"):
            BatchRunner(cache=42)
        with pytest.raises(TypeError, match="cache must be"):
            WorkQueueCore(cache=42)


class TestCheckpointResume:
    def test_resume_after_simulated_kill(self, tmp_path, population_requests):
        requests = population_requests[:40]
        ck = tmp_path / "sweep.jsonl"
        full = BatchRunner(jobs=1)
        reference = full.run(requests, checkpoint=ck)
        lines = ck.read_text().splitlines()
        assert len(lines) == full.stats.computed

        # Simulate a mid-batch kill: keep only the first 15 completed
        # items (plus a torn final line, as a killed append would leave).
        ck.write_text("\n".join(lines[:15]) + "\n" + lines[15][: len(lines[15]) // 2])
        resumed = BatchRunner(jobs=1)
        payloads = resumed.run(requests, checkpoint=ck, resume=True)
        assert resumed.stats.resumed == 15
        assert resumed.stats.computed == full.stats.computed - 15
        assert payloads == reference

    def test_resume_with_complete_checkpoint_computes_nothing(self, tmp_path):
        requests = [
            AnalysisRequest(taskset=table1_taskset(), speedup=s)
            for s in (1.5, 2.0, 3.0)
        ]
        ck = tmp_path / "done.jsonl"
        BatchRunner().run(requests, checkpoint=ck)
        runner = BatchRunner()
        runner.run(requests, checkpoint=ck, resume=True)
        assert runner.stats.computed == 0
        assert runner.stats.resumed == 3

    def test_unknown_checkpoint_version_is_skipped(self, tmp_path):
        req = AnalysisRequest(taskset=table1_taskset(), speedup=2.0)
        ck = tmp_path / "old.jsonl"
        BatchRunner().run([req], checkpoint=ck)
        entry = decode_durable_line(ck.read_text())
        entry["checkpoint_version"] = 99
        # Re-wrap with a valid CRC: the version check alone must reject it.
        ck.write_text(encode_durable_line(entry) + "\n")
        runner = BatchRunner()
        runner.run([req], checkpoint=ck, resume=True)
        assert runner.stats.resumed == 0
        assert runner.stats.computed == 1

    def test_legacy_uncrc_checkpoint_line_is_recomputed(self, tmp_path):
        req = AnalysisRequest(taskset=table1_taskset(), speedup=2.0)
        ck = tmp_path / "legacy.jsonl"
        BatchRunner().run([req], checkpoint=ck)
        # Strip the CRC wrapper, leaving a v1-era bare entry line.
        entry = decode_durable_line(ck.read_text())
        entry["checkpoint_version"] = 1
        ck.write_text(json.dumps(entry) + "\n")
        runner = BatchRunner()
        runner.run([req], checkpoint=ck, resume=True)
        assert runner.stats.resumed == 0
        assert runner.stats.computed == 1
        assert runner.faults.checkpoint_corrupt_lines == 1

    def test_corrupt_checkpoint_line_is_recomputed(self, tmp_path):
        requests = [
            AnalysisRequest(taskset=table1_taskset(), speedup=s)
            for s in (1.5, 2.0, 3.0)
        ]
        ck = tmp_path / "flip.jsonl"
        reference = BatchRunner().run(requests, checkpoint=ck)
        lines = ck.read_text().splitlines()
        # Flip one character inside the middle line's entry: the CRC
        # must catch it and that item must be recomputed, not trusted.
        bad = lines[1].replace('"lo_ok": true', '"lo_ok": fals', 1)
        if bad == lines[1]:
            bad = lines[1][:-20] + "X" + lines[1][-19:]
        ck.write_text("\n".join([lines[0], bad, lines[2]]) + "\n")
        runner = BatchRunner()
        payloads = runner.run(requests, checkpoint=ck, resume=True)
        assert runner.stats.resumed == 2
        assert runner.stats.computed == 1
        assert runner.faults.checkpoint_corrupt_lines == 1
        assert payloads == reference

    def test_pool_checkpoint_lines_follow_group_order(
        self, tmp_path, population_requests, monkeypatch
    ):
        from repro.pipeline import runner as runner_module

        requests = population_requests[:6]
        ck = {jobs: tmp_path / f"j{jobs}.jsonl" for jobs in (1, 2)}
        analyze_many(requests, jobs=1, chunk_size=2, checkpoint=ck[1])
        first = requests[0].taskset.name
        evaluate_group = runner_module._evaluate_group

        def first_group_last(group):
            # Forked pool workers inherit this patch: the first group
            # completes after the other two.
            if group[0].taskset.name == first:
                time.sleep(1.0)
            return evaluate_group(group)

        monkeypatch.setattr(runner_module, "_evaluate_group", first_group_last)
        analyze_many(requests, jobs=2, chunk_size=2, checkpoint=ck[2])
        assert len(ck[1].read_text().splitlines()) == 6
        assert ck[2].read_bytes() == ck[1].read_bytes()


class TestErrorCapture:
    def test_budget_exhaustion_becomes_failure_record(self):
        req = AnalysisRequest(
            taskset=table1_taskset(), speedup=2.0, max_candidates=1
        )
        report = analyze_many([req])[0]
        assert report.failure is not None
        assert report.failure.error_type == "AnalysisBudgetExceeded"
        assert not report.ok
        assert math.isinf(report.s_min)

    def test_failed_item_does_not_poison_the_batch(self):
        good = AnalysisRequest(taskset=table1_taskset(), speedup=2.0)
        bad = AnalysisRequest(
            taskset=table1_taskset(), speedup=2.0, max_candidates=1
        )
        with WorkQueueCore(jobs=1) as core:
            reports = core.run([bad, good, bad])
        assert core.stats.failures == 1  # bad deduplicates to one computation
        assert reports[1].failure is None
        assert reports[1].ok
        assert reports[0].to_dict() == reports[2].to_dict()

    def test_failure_round_trips_through_checkpoint(self, tmp_path):
        bad = AnalysisRequest(
            taskset=table1_taskset(), speedup=2.0, max_candidates=1
        )
        ck = tmp_path / "fail.jsonl"
        first = analyze_many([bad], checkpoint=ck)[0]
        resumed = BatchRunner()
        second = resumed.run([bad], checkpoint=ck, resume=True)[0]
        assert resumed.stats.resumed == 1
        assert second == first.to_dict()


class TestProgress:
    def test_progress_reaches_total(self, population_requests):
        seen = []
        analyze_many(
            population_requests[:10],
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (10, 10)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_progress_counts_cache_hits(self):
        cache = ResultCache()
        req = AnalysisRequest(taskset=table1_taskset(), speedup=2.0)
        analyze_many([req], cache=cache)
        seen = []
        analyze_many(
            [req], cache=cache, progress=lambda done, total: seen.append((done, total))
        )
        assert seen == [(1, 1)]


class TestReportShape:
    def test_round_trip(self):
        req = AnalysisRequest(
            taskset=table1_taskset(),
            speedup=2.0,
            reset_budget=7.0,
            closed_form=False,
        )
        report = evaluate_request(req)
        clone = AnalysisReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert clone.s_min == report.s_min
        assert clone.delta_r == report.delta_r

    def test_to_record_is_flat(self):
        report = evaluate_request(
            AnalysisRequest(taskset=table1_degraded_taskset(), speedup=2.0)
        )
        record = report.to_record()
        assert record["name"] == report.name
        assert record["s_min"] == pytest.approx(0.875)
        assert all(not isinstance(v, (dict, list)) for v in record.values())

    def test_infeasible_x_marks_lo_infeasible(self):
        ts = table1_taskset()
        report = evaluate_request(
            AnalysisRequest(taskset=ts, speedup=2.0, x=1.5, y=2.0)
        )
        assert report.lo_ok is False
        assert math.isinf(report.s_min)

    def test_plain_request_runs_exact_lo_test(self):
        report = evaluate_request(AnalysisRequest(taskset=table1_taskset()))
        assert report.lo_ok is True
        assert report.hi_ok is None
        assert report.within_budget is None

    @pytest.mark.parametrize("engine", ["compiled", "scalar"])
    @pytest.mark.parametrize(
        "options, lo_ok, hi_ok, within_budget, x_applied",
        [
            ({"x": 0.3}, True, True, True, 0.3),
            ({"x": 0.3, "lo_test": True}, False, True, True, 0.3),
            ({"auto_x": "exact"}, True, True, True, 0.5),
            ({}, True, False, False, None),
            ({"lo_test": False}, None, False, False, None),
            ({"x": 1.0}, False, None, None, 1.0),
        ],
        ids=["x", "x-lo_test", "exact_x", "no_knob", "no_lo_test", "x_is_1"],
    )
    def test_request_semantics(
        self, engine, options, lo_ok, hi_ok, within_budget, x_applied
    ):
        """Which scans a request runs, pinned by value.  The set's
        structural floor is x = 0.2, its exact x 0.5 and its density x
        0.8.  An x knob decides LO feasibility by itself unless
        ``lo_test`` asks for the demand test too (x = 0.3 then fails it);
        without a knob the HI task keeps D(LO) = D(HI) and needs an
        infinite speedup."""
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=2, c_hi=4, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=3, d_lo=4, t_lo=4),
            ]
        )
        knob = "x" in options or "auto_x" in options
        report = evaluate_request(
            AnalysisRequest(
                taskset=ts,
                speedup=2.0,
                reset_budget=50.0,
                y=2.0 if knob else None,
                engine=engine,
                **options,
            )
        )
        assert report.lo_ok is lo_ok
        assert report.hi_ok is hi_ok
        assert report.within_budget is within_budget
        assert report.x_applied == x_applied
        if hi_ok is False:
            assert math.isinf(report.s_min)

    def test_validation_rejects_bad_options(self):
        ts = table1_taskset()
        with pytest.raises(Exception):
            AnalysisRequest(taskset=ts, speedup=-1.0)
        with pytest.raises(Exception):
            AnalysisRequest(taskset=ts, resetting="sometimes")
        with pytest.raises(Exception):
            AnalysisRequest(taskset=ts, auto_x="magic")
        with pytest.raises(Exception):
            AnalysisRequest(taskset="not a task set")

    def test_criticality_mix_hashes_distinctly(self):
        hi = MCTask(name="t", crit=Criticality.HI, c_lo=1.0, c_hi=2.0,
                    d_lo=10.0, d_hi=10.0, t_lo=10.0, t_hi=10.0)
        lo = MCTask(name="t", crit=Criticality.LO, c_lo=1.0, c_hi=1.0,
                    d_lo=10.0, d_hi=10.0, t_lo=10.0, t_hi=10.0)
        assert taskset_fingerprint(TaskSet([hi])) != taskset_fingerprint(TaskSet([lo]))


# ---------------------------------------------------------------------------
# Work-queue core: the refactor seam shared by the CLI and the service
# ---------------------------------------------------------------------------


class TestBatchStatsMerge:
    def test_add_is_fieldwise(self):
        a = BatchStats(total=5, computed=3, cache_hits=1, resumed=0,
                       deduplicated=1, quarantined=0, failures=2)
        b = BatchStats(total=4, computed=2, cache_hits=1, resumed=1,
                       deduplicated=0, quarantined=0, failures=0)
        merged = a + b
        assert merged.to_dict() == {
            "total": 9, "computed": 5, "cache_hits": 2, "resumed": 1,
            "deduplicated": 1, "quarantined": 0, "failures": 2,
        }

    def test_add_identity_and_invariant_preserving(self):
        zero = BatchStats()
        a = BatchStats(total=3, computed=2, cache_hits=1)
        assert (a + zero).to_dict() == a.to_dict()
        assert a.reconciles()
        assert (a + a).reconciles()

    @pytest.mark.parametrize(
        "disposition",
        ["computed", "cache_hits", "resumed", "deduplicated", "quarantined"],
    )
    def test_every_disposition_settles_and_merges(self, disposition):
        one = BatchStats(total=1, **{disposition: 1})
        assert one.reconciles()
        assert one.to_dict()[disposition] == 1
        two = one + one
        assert getattr(two, disposition) == 2
        assert two.reconciles()


class TestWorkQueueCore:
    def test_run_byte_identical_to_batch_runner(self, population_requests):
        """The core's reports, decoded once from its executor's
        payloads, are byte-identical to a direct run of the executor on
        the seeded 200-set population."""
        direct = BatchRunner(jobs=1).run(population_requests)
        with WorkQueueCore(jobs=1) as core:
            via_core = core.run(population_requests)
        assert json.dumps(_dicts(via_core), sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    def test_submit_settles_with_per_job_invariant(self, population_requests):
        core = WorkQueueCore(jobs=1)
        try:
            handle, coalesced = core.submit(population_requests[:10])
            assert coalesced is False
            assert handle.wait(120)
            assert handle.state == "done"
            assert len(handle.result()) == 10
            assert handle.stats.reconciles()
            assert core.stats.reconciles()
        finally:
            core.close()

    def test_duplicate_job_coalesces_completed(self, population_requests):
        core = WorkQueueCore(jobs=1)
        try:
            first, _ = core.submit(population_requests[:5])
            assert first.wait(120)
            executed = core.jobs_executed
            again, coalesced = core.submit(population_requests[:5])
            assert coalesced is True
            assert again is first
            assert core.jobs_executed == executed
            assert core.jobs_coalesced == 1
        finally:
            core.close()

    def test_concurrent_submitters_exactly_once(self, population_requests):
        """Many threads submitting overlapping jobs: every handle
        reconciles and the global tally is the exact sum of executed
        jobs -- no double counting across submitters."""
        import threading

        from repro.pipeline import ResultCache as Cache, WorkQueueCore

        core = WorkQueueCore(jobs=1, cache=Cache())
        handles = []
        handles_lock = threading.Lock()

        def submitter(lo, hi):
            handle, _ = core.submit(population_requests[lo:hi])
            with handles_lock:
                handles.append(handle)

        threads = [
            threading.Thread(target=submitter, args=(lo, hi))
            for lo, hi in [(0, 6), (0, 6), (3, 9), (3, 9), (6, 12), (0, 6)]
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            for handle in handles:
                assert handle.wait(120)
                assert handle.state == "done"
                assert handle.stats.reconciles()
            # Globally: every executed job's total is charged once.
            assert core.stats.reconciles()
            distinct = {h.job_id for h in handles}
            assert core.jobs_executed == len(distinct)
            assert core.jobs_coalesced == len(handles) - len(distinct)
            assert core.stats.total == sum(
                h.total for h in {h.job_id: h for h in handles}.values()
            )
            # Overlapping keys settle from the shared cache, not twice.
            assert core.stats.computed == 12
        finally:
            core.close()

    def test_error_job_not_pinned_in_registry(self, population_requests):
        """A job that dies to infrastructure is not kept for dedup: a
        resubmission must retry it, not coalesce onto the stale error."""
        core = WorkQueueCore(jobs=1)
        try:
            def boom(done: int, total: int) -> None:
                raise RuntimeError("progress exploded")

            with pytest.raises(RuntimeError, match="progress exploded"):
                core.run(population_requests[:2], progress=boom)
            job_id = job_fingerprint(population_requests[:2])
            assert core.get_job(job_id) is None  # evicted, not registered
            handle, coalesced = core.submit(population_requests[:2])
            assert coalesced is False  # re-executes instead of coalescing
            assert handle.wait(120)
            assert handle.state == "done"
        finally:
            core.close()


class TestCoreLifetime:
    """One executor and one pool per core, and no worker outlives it."""

    @staticmethod
    def _boom(done: int, total: int) -> None:
        raise RuntimeError("progress exploded")

    def test_analyze_many_leaves_no_worker_behind(self, population_requests):
        before = set(multiprocessing.active_children())
        reports = analyze_many(population_requests[:8], jobs=2)
        assert len(reports) == 8
        assert set(multiprocessing.active_children()) <= before

    def test_close_after_a_raising_run_leaves_no_worker(self, population_requests):
        before = set(multiprocessing.active_children())
        core = WorkQueueCore(jobs=2)
        with pytest.raises(RuntimeError, match="progress exploded"):
            core.run(population_requests[:8], progress=self._boom)
        assert core.runner.pool is not None and core.runner.pool.created == 1
        core.close()
        assert set(multiprocessing.active_children()) <= before

    def test_runs_share_one_executor_and_pool(self, population_requests):
        with WorkQueueCore(jobs=2) as core:
            runner = core.runner
            core.run(population_requests[:8])
            pool = runner.pool
            core.run(population_requests[8:16])
            assert core.runner is runner and runner.pool is pool
            assert pool is not None and pool.created == 1
            assert core.jobs_executed == 2

    def test_given_core_applies_per_run_options(self, tmp_path, population_requests):
        ck = tmp_path / "ck.jsonl"
        seen = []
        with WorkQueueCore() as core:
            analyze_many(
                population_requests[:5],
                core=core,
                checkpoint=str(ck),
                progress=lambda done, total: seen.append((done, total)),
            )
        assert len(ck.read_text().splitlines()) == 5
        assert seen[-1] == (5, 5)

    def test_per_job_stats_reconcile_and_sum_into_core_stats(
        self, population_requests
    ):
        slices = [(0, 6), (3, 9), (0, 9)]
        with WorkQueueCore(cache=ResultCache()) as core:
            handles = []
            for lo, hi in slices:
                core.run(population_requests[lo:hi])
                handles.append(core.get_job(job_fingerprint(population_requests[lo:hi])))
            # Each run starts the executor's stats afresh.
            assert core.runner.stats is handles[-1].stats
        assert [h.stats.computed for h in handles] == [6, 3, 0]
        assert [h.stats.cache_hits for h in handles] == [0, 3, 9]
        assert all(h.stats.reconciles() for h in handles)
        total = BatchStats()
        for handle in handles:
            total = total + handle.stats
        assert core.stats == total
        assert core.stats.reconciles()

    def test_each_report_is_encoded_once_and_decoded_once(
        self, monkeypatch, population_requests
    ):
        """The submit path decodes nothing; run decodes each payload once."""
        calls = {"to_dict": 0, "from_dict": 0}
        to_dict = AnalysisReport.to_dict
        from_dict = AnalysisReport.from_dict.__func__

        def counting_to_dict(report):
            calls["to_dict"] += 1
            return to_dict(report)

        def counting_from_dict(cls, data):
            calls["from_dict"] += 1
            return from_dict(cls, data)

        monkeypatch.setattr(AnalysisReport, "to_dict", counting_to_dict)
        monkeypatch.setattr(
            AnalysisReport, "from_dict", classmethod(counting_from_dict)
        )
        with WorkQueueCore() as core:
            handle, _ = core.submit(population_requests[:6])
            assert handle.wait(120)
            assert len(handle.payloads()) == 6
            assert calls == {"to_dict": 6, "from_dict": 0}
            core.run(population_requests[6:12])
            assert calls == {"to_dict": 12, "from_dict": 6}
