"""Tests of the benchmark's own arithmetic and tiny runs of each workload.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import benchmath  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from benchmath import Step  # noqa: E402


# ---------------------------------------------------------------------------
# Percentile rule
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, label",
    [(10000, "p99.9"), (9999, "p99"), (1000, "p99"), (999, "p95"), (200, "p95"),
     (199, "p90"), (100, "p90"), (99, "p50"), (20, "p50"), (5, "p50")],
)
def test_tail_percentile_needs_ten_samples_beyond(n, label):
    got_label, _value, count = benchmath.tail_percentile([float(i) for i in range(n)])
    assert (got_label, count) == (label, n)


def test_tail_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 1001)]
    assert benchmath.tail_percentile(values) == ("p99", 990.0, 1000)
    assert benchmath.nearest_rank(values, 500) == 500.0


def test_failures_count_as_missing_the_limit():
    values = [1.0] * 989 + [math.inf] * 11
    assert benchmath.tail_percentile(values)[1] == math.inf
    assert benchmath.percentile_if_supported(values, 990) == math.inf


def test_unsupported_tail_fails_any_limit():
    assert benchmath.percentile_if_supported([1.0] * 999, 990) == math.inf
    assert benchmath.percentile_if_supported([1.0] * 1000, 990) == 1.0


# ---------------------------------------------------------------------------
# Self time of nested spans
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    tick = FakeClock()
    clock = layertrace.LayerClock(clock=tick)

    def leaf():
        tick.now += 2.0

    def inner():
        tick.now += 1.0
        leaf_span()
        tick.now += 1.0
        leaf_span()

    def outer():
        tick.now += 3.0
        inner_span()
        tick.now += 4.0

    leaf_span = clock.wrap("analysis.kernels|eval", leaf)
    inner_span = clock.wrap("analysis.speedup|call", inner)
    outer_span = clock.wrap("pipeline.request|evaluate", outer)
    outer_span()
    export = clock.export()
    assert export["self_s"] == {
        "analysis.kernels|eval": 4.0,
        "analysis.speedup|call": 2.0,
        "pipeline.request|evaluate": 7.0,
    }
    assert sum(export["self_s"].values()) == tick.now
    assert export["calls"] == {
        "analysis.kernels|eval": 2,
        "analysis.speedup|call": 1,
        "pipeline.request|evaluate": 1,
    }


def test_calls_count_entries_into_a_layer():
    tick = FakeClock()
    clock = layertrace.LayerClock(clock=tick)
    inner = clock.wrap("analysis.tuning|call", lambda: None)

    def outer():
        inner()
        inner()

    clock.wrap("analysis.tuning|call", outer)()
    assert clock.export()["calls"] == {"analysis.tuning|call": 1}


def test_layer_table_adds_up_to_wall():
    export = {"self_s": {"io|call": 1.5, "pipeline.cache|get": 0.5}, "calls": {}, "counts": {}, "events": {}}
    text, unattributed = layertrace.layer_table("t", export, 4.0, extra_rows=[("pool wait (idle)", 1.0)])
    assert unattributed == pytest.approx(1.0)
    assert "total" in text and "100.0%" in text


def test_queue_waits_pair_fifo_submissions_with_runs():
    export = layertrace.empty_export()
    export["events"] = {
        "pipeline.core|submit": [[0.0, 0.001, 0], [0.010, 0.001, 1], [0.020, 0.001, 0]],
        "pipeline.runner|run": [[0.005, 0.002, 0], [0.025, 0.004, 0]],
    }
    waits, execs = wl.queue_waits(export)
    assert waits == pytest.approx([4.0, 4.0, 0.0])
    assert execs == pytest.approx([2.0, 4.0, 0.0])


# ---------------------------------------------------------------------------
# The rate ladder
# ---------------------------------------------------------------------------
def flat_step(rate, latency=5.0, n=1000, lateness=None):
    return Step(rate, [latency] * n, list(lateness) if lateness is not None else [0.0] * n)


def test_step_passes_under_the_limit():
    assert flat_step(100.0).passed
    slow = flat_step(100.0)
    slow.latencies_ms[:11] = [80.0] * 11
    assert not slow.passed
    tail_ok = flat_step(100.0)
    tail_ok.latencies_ms[:10] = [80.0] * 10
    assert tail_ok.passed


def test_growing_backlog_fails_a_step():
    growing = flat_step(200.0, lateness=[i * 0.05 for i in range(1000)])
    assert benchmath.backlog_grows(growing.lateness_ms)
    assert not growing.passed
    jittery = flat_step(200.0, lateness=[(i % 7) * 3.0 for i in range(1000)])
    assert not benchmath.backlog_grows(jittery.lateness_ms)
    assert jittery.passed


def test_ladder_climbs_to_the_last_pass_before_the_first_miss():
    steps = [flat_step(200.0), flat_step(220.0), flat_step(242.0, latency=60.0), flat_step(266.0)]
    assert benchmath.ladder_max_rate(steps).rate == 220.0
    assert benchmath.ladder_next_rate(steps[:2]) == 242.0
    assert benchmath.ladder_next_rate(steps[:3]) is None


def test_ladder_descends_to_the_first_pass_after_a_missed_start():
    steps = [flat_step(200.0, latency=90.0), flat_step(182.0, latency=60.0), flat_step(166.0)]
    assert benchmath.ladder_next_rate(steps[:1]) == 182.0
    assert benchmath.ladder_next_rate(steps[:2]) == 166.0
    assert benchmath.ladder_next_rate(steps) is None
    assert benchmath.ladder_max_rate(steps).rate == 166.0
    assert benchmath.ladder_max_rate(steps[:2]) is None


def test_ladder_steps_move_at_most_ten_percent():
    up, down = [200.0], [200.0]
    for _ in range(8):
        up.append(benchmath.next_ladder_rate(up[-1]))
        down.append(benchmath.lower_ladder_rate(down[-1]))
    assert all(1.0 < b / a <= 1.1 for a, b in zip(up, up[1:]))
    assert all(1.0 < a / b <= 1.1 for a, b in zip(down, down[1:]))


def test_serve_ladder_answer_when_its_steps_run_out(tmp_path):
    work = wl.Serve(seed=1, seconds=1, workdir=tmp_path)
    work.runs = [wl.loadgen.PhaseRun(flat_step(rate), 1.0) for rate in (100.0, 200.0, 220.0)]
    out = wl.Outcome()
    assert work.max_rate(out) == 220.0
    assert "ran out of steps at 220 req/s, still passing" in out.notes[0]
    work.runs = [wl.loadgen.PhaseRun(step, 1.0) for step in (
        flat_step(100.0), flat_step(200.0, latency=90.0), flat_step(182.0, latency=90.0))]
    out = wl.Outcome()
    assert work.max_rate(out) == 100.0  # no ladder step passed: the light phase did
    assert "still missing" in out.notes[0]


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ---------------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(wl.PER_LAYER)


# ---------------------------------------------------------------------------
# Tiny runs, and corrupted outputs that must trip the checks
# ---------------------------------------------------------------------------
@pytest.fixture
def workdir(tmp_path):
    yield tmp_path
    shutil.rmtree(tmp_path, ignore_errors=True)


def corrupt(payload):
    bad = json.loads(json.dumps(payload))
    bad["lo_ok"] = not bad["lo_ok"]
    return bad


@pytest.mark.parametrize("cls, sizes", [
    (wl.Fig6, {"u_points": (0.5, 0.8), "per_point": 3}),
    (wl.Fig7, {"u_points": (0.25, 0.7)}),
])
def test_sweep_smoke_and_corruption(cls, sizes, workdir):
    work = cls(seed=5, seconds=0.01, workdir=workdir)
    for key, value in sizes.items():
        setattr(work, key, value)
    work.rounds_needed = lambda: 2
    work.generate()
    work.warm_up(0)
    work.measure()
    work.check()
    out = wl.Outcome()
    work.summarize(out)
    assert out.e2e["sets_per_cpu_s"] > 0 and out.failed == 0
    analysed = [(q, r.to_dict()) for q, r in work.reports]
    analysed[0] = (analysed[0][0], corrupt(analysed[0][1]))
    with pytest.raises(wl.CheckFailed):
        work.check_reports(analysed)


def test_batch_smoke_and_corruption(workdir):
    work = wl.Batch(seed=5, seconds=0.01, workdir=workdir)
    work.unique, work.copies = 8, 2
    work.rounds_needed = lambda: 1
    with work.session():
        work.generate()
        work.warm_up(0)
        work.measure()
        work.check()
    out = wl.Outcome()
    work.summarize(out)
    assert {d.name for d in out.details} >= {"resume_sets_per_s", "warm_sets_per_s"}
    passes = work.last_passes
    core, reports = passes["warm"]
    bad = wl.api.AnalysisReport.from_dict(corrupt(reports[0].to_dict()))
    passes["warm"] = (core, [bad] + reports[1:])
    with pytest.raises(wl.CheckFailed):
        work.verify_round(passes)


def test_serve_smoke_and_corruption(workdir):
    work = wl.Serve(seed=5, seconds=0.5, workdir=workdir)
    work.generate()
    with work.session():
        work.warm_up(0)
        work.measure(phases=1)
        work.check()
    out = wl.Outcome()
    work.summarize(out)
    assert out.failed == 0 and out.attempted == work.per_phase
    body, payload = work.runs[0].kept[0]
    document = json.loads(payload)
    document["results"][0] = corrupt(document["results"][0])
    with pytest.raises(wl.CheckFailed):
        wl.Serve.check_exchanges([(body, json.dumps(document).encode())])


def test_cli_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fig6", "--seed", "3",
         "--seconds", "0.1", "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
