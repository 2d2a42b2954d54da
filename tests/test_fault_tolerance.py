"""Fault-tolerance machinery: retries, watchdog, durability, quarantine.

Covers the primitives in :mod:`repro.pipeline.fault_tolerance` and the
:class:`~repro.pipeline.runner.BatchRunner` recovery paths they feed:
deterministic backoff, CRC-durable lines, self-degrading appenders,
kill-at-arbitrary-offset checkpoint recovery, broken-pool rebuild with
exactly-once requeue, the hung-worker watchdog, poison-item quarantine
and SIGINT/SIGTERM graceful drain.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.generator.taskgen import GeneratorConfig, generate_taskset
from repro.io import save_taskset
from repro.pipeline import (
    BatchAborted,
    CheckpointIO,
    InjectionSpec,
    Quarantine,
    ResultCache,
    RetryPolicy,
    WorkQueueCore,
    decode_durable_line,
    encode_durable_line,
    load_quarantine,
)
from repro.pipeline.chaos import FlakyIO
from repro.pipeline.fault_tolerance import DurableAppender, claim
from repro.pipeline.request import AnalysisRequest


@pytest.fixture(scope="module")
def population():
    rng = np.random.default_rng(7)
    return [
        AnalysisRequest(
            taskset=generate_taskset(0.6, rng, GeneratorConfig(), name=f"ft{i}"),
            speedup=2.0,
        )
        for i in range(24)
    ]


def _run(requests, *, checkpoint=None, resume=False, **resources):
    """One run on a fresh core: the core (stats, faults) and the payloads."""
    with WorkQueueCore(**resources) as core:
        reports = core.run(
            requests,
            checkpoint=checkpoint,
            resume=resume,
            install_signal_handlers=False,
        )
    return core, [r.to_dict() for r in reports]


@pytest.fixture(scope="module")
def baseline(population):
    return _run(population)[1]


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(seed=5, jitter=0.5)
        assert policy.delay("k", 2) == policy.delay("k", 2)
        assert RetryPolicy(seed=5, jitter=0.5).delay("k", 2) == policy.delay("k", 2)

    def test_delay_differs_by_key_and_attempt(self):
        policy = RetryPolicy(jitter=0.5)
        assert policy.delay("a", 1) != policy.delay("b", 1)
        assert policy.delay("a", 1) != policy.delay("a", 2)

    def test_backoff_grows_and_clamps(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3, jitter=0.0
        )
        assert policy.delay("k", 1) == pytest.approx(0.1)
        assert policy.delay("k", 2) == pytest.approx(0.2)
        assert policy.delay("k", 3) == pytest.approx(0.3)  # clamped
        assert policy.delay("k", 9) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_request_accepts_and_excludes_retry_from_key(self, population):
        base = population[0]
        with_retry = AnalysisRequest(
            taskset=base.taskset,
            speedup=2.0,
            retry=RetryPolicy(max_attempts=7, timeout=9.0),
        )
        assert with_retry.key == base.key  # retry is not part of the verdict


class TestDurableLines:
    def test_round_trip(self):
        entry = {"checkpoint_version": 2, "key": "abc", "report": {"x": 1}}
        assert decode_durable_line(encode_durable_line(entry)) == entry

    def test_bit_flip_detected(self):
        line = encode_durable_line({"key": "abc", "value": 123})
        corrupted = line.replace("123", "124")
        assert decode_durable_line(corrupted) is None

    def test_torn_line_detected(self):
        line = encode_durable_line({"key": "abc", "value": 123})
        for cut in (1, len(line) // 2, len(line) - 2):
            assert decode_durable_line(line[:cut]) is None

    def test_legacy_bare_line_is_corrupt(self):
        entry = {"checkpoint_version": 1, "key": "abc", "report": {}}
        assert decode_durable_line(json.dumps(entry)) is None

    def test_blank_and_garbage(self):
        assert decode_durable_line("") is None
        assert decode_durable_line("not json at all") is None
        assert decode_durable_line("[1, 2, 3]") is None


class TestDurableAppender:
    def test_append_survives_transient_failure(self, tmp_path):
        io = FlakyIO(fail_first=2)
        appender = DurableAppender(
            tmp_path / "a.jsonl",
            io=io,
            policy=RetryPolicy(backoff_base=0.0, jitter=0.0),
        )
        assert appender.append({"key": "k1"})
        assert appender.commit()
        appender.close()
        assert not appender.disabled
        assert appender.io_errors == 2
        lines = (tmp_path / "a.jsonl").read_text().splitlines()
        assert decode_durable_line(lines[0]) == {"key": "k1"}

    def test_persistent_failure_disables_appender(self, tmp_path):
        io = FlakyIO(fail_after=0)  # every call fails
        appender = DurableAppender(
            tmp_path / "a.jsonl",
            io=io,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0),
        )
        assert not appender.append({"key": "k1"})
        assert appender.disabled
        assert appender.io_errors == 3
        # Subsequent appends are cheap no-ops, not more retries.
        assert not appender.append({"key": "k2"})
        assert appender.io_errors == 3
        appender.close()


class TestQuarantineFile:
    def test_record_and_load(self, tmp_path):
        q = Quarantine(tmp_path / "q.jsonl")
        attempts = [
            {"attempt": 1, "stage": "worker", "error_type": "X", "message": "m"}
        ]
        q.record("k1", "set1", attempts)
        q.close()
        entries = load_quarantine(tmp_path / "q.jsonl")
        assert len(entries) == 1
        assert entries[0]["key"] == "k1"
        assert entries[0]["name"] == "set1"
        assert entries[0]["attempts"] == attempts

    def test_load_skips_corrupt_lines(self, tmp_path):
        q = Quarantine(tmp_path / "q.jsonl")
        q.record("k1", "s", [])
        q.close()
        path = tmp_path / "q.jsonl"
        path.write_text(path.read_text() + "garbage line\n")
        assert len(load_quarantine(path)) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert load_quarantine(tmp_path / "nope.jsonl") == []


class TestClaim:
    def test_one_shot(self, tmp_path):
        assert claim(str(tmp_path), "tok")
        assert not claim(str(tmp_path), "tok")
        assert claim(str(tmp_path), "tok2")

    def test_missing_dir_fails_open(self, tmp_path):
        assert not claim(str(tmp_path / "gone"), "tok")


class TestKillAtArbitraryOffset:
    """Satellite 1: fsync-per-batch means any byte-level truncation of
    the checkpoint (a kill mid-append) loses at most the torn tail."""

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 0.9, 0.999])
    def test_resume_from_truncated_checkpoint(
        self, tmp_path, population, baseline, fraction
    ):
        ck = tmp_path / "sweep.jsonl"
        _, reference = _run(population, checkpoint=ck)
        raw = ck.read_bytes()
        ck.write_bytes(raw[: int(len(raw) * fraction)])
        resumed, payloads = _run(population, checkpoint=ck, resume=True)
        assert payloads == reference == baseline
        assert resumed.stats.settled() == resumed.stats.total
        # Whole surviving lines resume; at most the torn tail recomputes.
        assert resumed.stats.resumed + resumed.stats.computed == len(population)

    def test_checkpoint_lines_are_fsynced_per_batch(self, tmp_path, population):
        """Every line in a completed checkpoint is whole and CRC-valid."""
        ck = tmp_path / "sweep.jsonl"
        _run(population[:6], checkpoint=ck)
        lines = ck.read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            assert decode_durable_line(line) is not None


class TestPoolRecovery:
    """Satellite 3: BrokenProcessPool and hung-worker paths."""

    def test_worker_kill_mid_batch_rebuilds_and_requeues(
        self, tmp_path, population, baseline
    ):
        armed = tmp_path / "armed"
        armed.mkdir()
        victims = (population[3].key, population[10].key)
        spec = InjectionSpec(armed_dir=str(armed), kill_keys=victims)
        core, payloads = _run(
            population,
            checkpoint=tmp_path / "ck.jsonl",
            jobs=3,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01, timeout=60.0),
            injection=spec,
        )
        assert payloads == baseline
        assert core.faults.pool_rebuilds >= 1
        assert core.stats.settled() == core.stats.total
        assert core.stats.quarantined == 0

    def test_hung_worker_is_killed_by_watchdog(self, tmp_path, population, baseline):
        armed = tmp_path / "armed"
        armed.mkdir()
        spec = InjectionSpec(
            armed_dir=str(armed),
            hang_keys=(population[5].key,),
            hang_seconds=120.0,
        )
        t0 = time.perf_counter()
        core, payloads = _run(
            population,
            jobs=3,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01, timeout=1.0),
            injection=spec,
            chunk_size=3,
        )
        assert time.perf_counter() - t0 < 60.0  # did not wait out the hang
        assert payloads == baseline
        assert core.faults.timeouts >= 1
        assert core.faults.pool_rebuilds >= 1
        assert core.stats.settled() == core.stats.total

    def test_poison_item_is_quarantined_not_fatal(
        self, tmp_path, population, baseline
    ):
        armed = tmp_path / "armed"
        armed.mkdir()
        poison = population[7].key
        spec = InjectionSpec(armed_dir=str(armed), poison_keys=(poison,))
        core, payloads = _run(
            population,
            jobs=3,
            quarantine=tmp_path / "q.jsonl",
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01, timeout=60.0),
            injection=spec,
        )
        assert core.stats.quarantined == 1
        assert core.stats.settled() == core.stats.total
        mismatched = [
            i
            for i, (ref, rep) in enumerate(zip(baseline, payloads))
            if ref != rep
        ]
        assert mismatched == [7]
        assert payloads[7]["failure"] is not None
        assert payloads[7]["failure"]["stage"] == "quarantine"
        entries = load_quarantine(tmp_path / "q.jsonl")
        assert [e["key"] for e in entries] == [poison]
        assert len(entries[0]["attempts"]) >= 3

    def test_quarantined_item_recomputes_on_resume(self, tmp_path, population):
        """A quarantine verdict is transient: resume retries the item."""
        armed = tmp_path / "armed"
        armed.mkdir()
        poison = population[2].key
        spec = InjectionSpec(armed_dir=str(armed), poison_keys=(poison,))
        ck = tmp_path / "ck.jsonl"
        first, _ = _run(
            population[:6],
            checkpoint=ck,
            jobs=2,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01, timeout=60.0),
            injection=spec,
        )
        assert first.stats.quarantined == 1
        # Resume without the fault: the item must be recomputed cleanly.
        resumed, payloads = _run(population[:6], checkpoint=ck, resume=True)
        assert resumed.stats.computed == 1
        assert resumed.stats.resumed == 5
        assert all(p["failure"] is None for p in payloads)

    def test_cache_write_errors_degrade_not_abort(self, tmp_path, population):
        cache = ResultCache(tmp_path / "cache", io=FlakyIO(fail_after=0))
        core, payloads = _run(
            population[:4],
            cache=cache,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
        )
        assert all(p["failure"] is None for p in payloads)
        assert core.faults.cache_io_errors >= 4


class TestGracefulShutdown:
    """Satellite 2: SIGINT/SIGTERM drain with a resumable checkpoint.

    The subprocess runs the real ``repro-mc batch`` entry point and
    signals *itself* the instant the checkpoint's first line is
    committed — a watcher thread has no IPC latency, so the signal
    deterministically lands mid-run.
    """

    SCRIPT = """
import os, signal, sys, threading, time
sys.path.insert(0, {src!r})
ckpt = {ckpt!r}

def watcher():
    while True:
        try:
            if os.path.getsize(ckpt) > 0:
                os.kill(os.getpid(), {signum})
                return
        except OSError:
            pass
        time.sleep(0.001)

threading.Thread(target=watcher, daemon=True).start()
from repro.cli import main
sys.exit(main([
    "batch", "--tasksets", {tasksets!r},
    "--checkpoint", ckpt, "--jobs", "2",
]))
"""

    @pytest.fixture(scope="class")
    def taskset_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("signal-sets")
        rng = np.random.default_rng(11)
        for i in range(400):
            save_taskset(
                generate_taskset(0.6, rng, GeneratorConfig(), name=f"sig{i}"),
                directory / f"set{i:04d}.json",
            )
        return directory

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_drains_and_prints_resume_command(
        self, tmp_path, taskset_dir, signum
    ):
        ckpt = tmp_path / "ck.jsonl"
        src = str(Path(__file__).resolve().parent.parent / "src")
        script = self.SCRIPT.format(
            src=src,
            tasksets=str(taskset_dir),
            ckpt=str(ckpt),
            signum=int(signum),
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=120,
        )
        out = proc.stdout
        assert proc.returncode in (0, 128 + signum), out
        if proc.returncode == 0:
            pytest.skip("batch finished before the signal landed")
        assert "interrupted by" in out
        assert "--resume" in out
        assert str(ckpt) in out
        # Whatever was checkpointed must be whole (CRC-valid) and the
        # interrupted sweep must resume cleanly to completion through
        # the printed resume command.
        lines = ckpt.read_text().splitlines()
        assert lines, "drain flushed nothing"
        assert all(decode_durable_line(line) is not None for line in lines)
        resume_proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; sys.path.insert(0, {src!r});\n"
                f"from repro.cli import main\n"
                f"sys.exit(main(['batch', '--tasksets', {str(taskset_dir)!r},"
                f" '--resume', {str(ckpt)!r}, '--jobs', '1']))",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=120,
        )
        assert resume_proc.returncode == 0, resume_proc.stdout
        assert "0 failures" in resume_proc.stdout
        # Every settled-before-the-signal item was resumed, not redone.
        assert f"{len(lines)} resumed" in resume_proc.stdout or (
            f"{len(lines) - 1} resumed" in resume_proc.stdout
        )

    def test_batch_aborted_carries_progress(self, population):
        error = BatchAborted("SIGINT", 3, 10, Path("ck.jsonl"))
        assert error.done == 3
        assert error.total == 10
        assert error.signal_name == "SIGINT"
        assert "3/10" in str(error)


class TestCacheCorruption:
    def test_corrupt_cache_entry_degrades_to_miss(self, tmp_path, population):
        cache = ResultCache(tmp_path / "cache")
        _, reference = _run(population[:3], cache=cache)
        key = population[0].key
        entry_file = tmp_path / "cache" / key[:2] / f"{key}.json"
        entry_file.write_text(entry_file.read_text()[:30])
        fresh = ResultCache(tmp_path / "cache")
        rerun, payloads = _run(population[:3], cache=fresh)
        assert payloads == reference
        assert fresh.corrupt == 1
        assert rerun.stats.cache_hits == 2
        assert rerun.stats.computed == 1

    def test_pre_checksum_entry_is_recomputed(self, tmp_path, population):
        cache = ResultCache(tmp_path / "cache")
        _, reference = _run(population[:1], cache=cache)
        key = population[0].key
        entry_file = tmp_path / "cache" / key[:2] / f"{key}.json"
        wrapped = decode_durable_line(entry_file.read_text())
        # Rewrite as the legacy (bare report, no CRC) format.
        entry_file.write_text(json.dumps(wrapped["report"]))
        fresh = ResultCache(tmp_path / "cache")
        rerun, payloads = _run(population[:1], cache=fresh)
        assert payloads == reference
        assert fresh.corrupt == 1
        assert rerun.stats.cache_hits == 0
        assert rerun.stats.computed == 1
