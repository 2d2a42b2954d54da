"""End-to-end benchmark of repro-mc: fig6, fig7, batch and serve.

Run from the repository root::

    python3 perfbench/run.py --workload fig6 --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload through the entry points users call
(``repro.api.analyze_many``, ``repro-mc batch``, ``repro-mc serve``,
all with default settings) and prints every end-to-end metric.
``--trace 1`` is a separate run that wraps each layer's public
functions (see ``layertrace.py``), alternates traced and untraced
rounds, and prints the per-layer metrics and each process's layer
table.  Either way the run checks the program's outputs and exits 1 if
any check fails.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Every workload reports the same end-to-end metrics:

* ``setup_s`` -- imports, then the median of three set-ups, each one
  input generation and a warm-up on a disjoint seed (for serve: server
  start until ``/readyz`` answers, plus warm-up requests).  Batch
  generates its corpora in memory; each round's files are written just
  before the round, outside set-up and the timed passes;
* ``sets_per_cpu_s`` -- task sets analysed per CPU second (user plus
  system) of the program's processes (pool workers, the server): the
  sweep for fig6/fig7, the light and loaded phases for serve.  For
  batch it is the cold pass per user CPU second, as the system time of
  its file writes swung too widely between runs; ``cpu.sys_frac``
  prints the system share.  CPU time leaves out steal, which on a
  shared VM moved wall-clock rates by up to 2x between runs a few
  minutes apart, and also every wait (fsync, the server's execution
  lock, idle pool workers): those show only in the printed wall-clock
  figures and in the traced run's self times;
* ``peak_rss_mb`` -- peak resident memory of those processes.

The wall-clock figures users see (``sets_per_s``, batch resume and
warm-cache rates, serve latencies at 100 and 200 req/s, the ladder's
``max_rate_rps``, the generator's lateness, the failure share) are
printed above the JSON line with their units and sample counts.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List  # noqa: E402

import benchmath  # noqa: E402
import layertrace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig6", "fig7", "batch", "serve")
END_TO_END = (
    ("setup_s", "s"),
    ("sets_per_cpu_s", "sets/cpu_s"),
    ("peak_rss_mb", "MiB"),
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and verify the import."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    import_program()
    import numpy

    import workloads as wl

    import_s = time.perf_counter() - T_START
    workdir = wl.WORKDIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )
    out = wl.Outcome()
    correct = True
    try:
        run_workload(args, workdir, import_s, out)
    except wl.CheckFailed as failure:
        correct = False
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            wl.WORKDIR.rmdir()
        except OSError:
            pass
    report(args, out, correct)
    return 0 if correct else 1


def report(args: argparse.Namespace, out: Any, correct: bool) -> None:
    import workloads as wl

    for note in out.notes:
        print(note)
    for table in out.tables:
        print(table)
    if out.details:
        frac = out.failed / out.attempted if out.attempted else 0.0
        rows = list(out.details)
        if not args.trace:
            rows.insert(0, wl.Detail("setup_s", out.e2e.get("setup_s", 0.0), "s", wl.SETUP_REPEATS))
            rows.append(wl.Detail("peak_rss_mb", out.e2e.get("peak_rss_mb", 0.0), "MiB", 1))
        print(f"{'metric':<24}{'value':>14}  {'unit':<10}{'samples':>8}")
        for d in rows + [wl.Detail("failed_frac", frac, "ratio", out.attempted)]:
            print(f"{d.name:<24}{d.value:>14.6g}  {d.unit:<10}{d.samples:>8}")
    names = wl.PER_LAYER if args.trace else END_TO_END
    source = out.layers if args.trace else out.e2e
    metrics = {name: {"value": source.get(name, 0.0), "unit": unit} for name, unit in names}
    print(json.dumps({
        "correct": correct,
        "attempted": max(int(out.attempted), 1),
        "failed": int(out.failed),
        "metrics": metrics,
    }))


def generate_inputs(generate: Callable[[], None], traced: bool) -> Dict[str, Any]:
    """Generate the run's inputs; a traced run wraps the layers meanwhile.

    Returns the layer tally of the generation.
    """
    if not traced:
        generate()
        return layertrace.empty_export()
    clock = layertrace.LayerClock()
    installed = layertrace.Installation(clock).install()
    try:
        generate()
    finally:
        installed.uninstall()
    return clock.export()


def run_workload(args: argparse.Namespace, workdir: Path, import_s: float, out: Any) -> None:
    import workloads as wl

    cls = {"fig6": wl.Fig6, "fig7": wl.Fig7, "batch": wl.Batch, "serve": wl.Serve}[args.workload]
    work = cls(args.seed, args.seconds, workdir)
    traced = args.trace and not isinstance(work, wl.Serve)
    if traced:
        work.traced = wl.TracedWindow()
    with work.session():
        # The whole set-up after the imports runs several times (the
        # inputs come out the same each time); the median counts.
        reps = []
        for rep in range(1 if args.trace else wl.SETUP_REPEATS):
            start = time.perf_counter()
            setup_export = generate_inputs(work.generate, bool(args.trace))
            if args.trace and isinstance(work, wl.Serve):
                trace_serve(work, workdir, setup_export, out)
                return
            work.warm_up(rep)
            reps.append(time.perf_counter() - start)
        out.e2e["setup_s"] = import_s + statistics.median(reps)
        machine = wl.Machine()
        work.measure()
        steal = machine.steal_frac()
        out.notes.append(machine.summary())
        work.check()
    work.summarize(out)
    out.notes.append(
        f"{work.describe()}; setup {out.e2e['setup_s']:.3f} s (imports {import_s:.3f}, then inputs "
        f"and warm-up: {' / '.join(f'{r:.3f}' for r in reps)} s, median of {len(reps)})"
    )
    if traced:
        traced_layers(work, work.traced, setup_export, steal, out)


def traced_layers(work: Any, traced: Any, setup_export: Dict[str, Any], steal: float, out: Any) -> None:
    import workloads as wl

    def per_set(results: List[Any]) -> float:
        return statistics.median(sum(r.seconds.values()) / r.sets for r in results)

    overhead = per_set(work.traced_results) / per_set(work.results) - 1.0
    wall = traced.wall_s
    main_table, unattributed = layertrace.layer_table("main process (traced rounds)", traced.main, wall)
    out.tables.append(main_table)
    extra: Dict[str, float] = {
        "env.steal_frac": steal,
        "trace.overhead_frac": overhead,
        "unattributed_frac": unattributed / wall,
    }
    if traced.chunks:
        jobs = wl.SWEEP_JOBS
        pool_wait = jobs * wall - traced.busy_s
        table, _ = layertrace.layer_table(
            f"pool workers (x{jobs}, {traced.chunks} chunks)", traced.workers, jobs * wall,
            extra_rows=[("pool wait (idle)", pool_wait)],
        )
        out.tables.append(table)
        extra.update({
            "pipeline.runner.worker_busy_s": traced.busy_s,
            "pipeline.runner.pool_efficiency": traced.busy_s / (jobs * wall),
            "pipeline.runner.chunks": float(traced.chunks),
        })
    if isinstance(work, wl.Batch):
        cache_b = ckpt_b = 0.0
        for index in range(1, len(work.results) + len(work.traced_results), 2):
            c, k = work.written_bytes(work.base(index))
            cache_b += c
            ckpt_b += k
        extra["pipeline.cache.bytes_written"] = cache_b
        extra["pipeline.fault_tolerance.checkpoint_bytes"] = ckpt_b
    out.layers = wl.layer_metrics(traced.combined(), setup_export, traced.perf, extra)
    out.notes.append(f"trace overhead {100 * overhead:.1f}% (median per-set time, traced vs untraced rounds)")


def trace_serve(serve: Any, workdir: Path, setup_export: Dict[str, Any], out: Any) -> None:
    """Untraced light phase for reference, then light and loaded traced."""
    import workloads as wl

    serve.warm_up(0)
    serve.measure(phases=1)
    reference = benchmath.median(serve.runs[0].step.latencies_ms)
    serve.server.stop()
    serve.runs = []
    dump = workdir / "server-layers.json"
    serve.warm_up(1, traced_out=dump)
    machine = wl.Machine()
    serve.server.signal(signal.SIGUSR1)
    time.sleep(0.2)
    serve.measure(phases=2)
    steal = machine.steal_frac()
    serve.server.signal(signal.SIGUSR2)
    deadline = time.monotonic() + 30
    while not dump.exists():
        if time.monotonic() > deadline:
            raise wl.CheckFailed("serve: traced server wrote no layer dump")
        time.sleep(0.05)
    record = json.loads(dump.read_text())
    out.notes.append(machine.summary())
    serve.check()
    serve.summarize(out)
    wall = record["wall_s"]
    merged = layertrace.empty_export()
    unattributed_main = 0.0
    for thread, export in sorted(record["threads"].items()):
        layertrace.merge(merged, export)
        cpu = record["thread_cpu_s"].get(thread, 0.0)
        table, unattributed = layertrace.layer_table(
            f"server thread {thread} (cpu {cpu:.3f} s; unattributed includes idle)", export, wall
        )
        out.tables.append(table)
        if thread == "MainThread":
            unattributed_main = unattributed
    out.tables.append(f"server process: wall {wall:.3f} s, cpu {record['cpu_s']:.3f} s")
    traced_p50 = benchmath.median(serve.runs[0].step.latencies_ms)
    waits, execs = wl.queue_waits(merged)
    events = merged["events"]
    parse = [e[1] * 1000.0 for e in events.get("service.schema|parse", [])]
    encode = [e[1] * 1000.0 for e in events.get("service.schema|encode", [])]
    client = [v for run in serve.runs for v in run.send_latency_ms]
    http = benchmath.median(client) - sum(
        benchmath.median(v) for v in (parse, encode, waits, execs) if v
    )
    late = [v for run in serve.runs for v in run.step.lateness_ms]
    extra = {
        "service.server.http.p50_ms": max(http, 0.0),
        "loadgen.late.p99_ms": benchmath.tail_percentile(late)[1],
        "env.steal_frac": steal,
        "trace.overhead_frac": traced_p50 / reference - 1.0,
        "unattributed_frac": unattributed_main / wall,
    }
    out.layers = wl.layer_metrics(merged, setup_export, record["perf"], extra)
    out.notes.append(
        f"trace overhead {100 * extra['trace.overhead_frac']:.1f}% "
        f"(light-phase median latency, traced {traced_p50:.3f} ms vs untraced {reference:.3f} ms)"
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
