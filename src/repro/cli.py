"""Command-line entry point: regenerate any paper table/figure.

Usage::

    repro-mc table1
    repro-mc fig1 | fig3 | fig4 | fig5 | fig6 | fig7  [--jobs N]
    repro-mc multiproc [--quick] [--jobs N]   # figM region maps
    repro-mc validate            # simulator-vs-analysis cross-check
    repro-mc resilience [--quick] [--csv out.csv] [--jobs N]  # fault sweeps
    repro-mc all [--quick]
    repro-mc analyze --taskset my_tasks.json [--speedup 2] [--budget 5000]
    repro-mc batch --tasksets dir/ --jobs N [--resume ckpt.jsonl]
                   [--retries N] [--timeout SECS] [--quarantine out.jsonl]
    repro-mc serve [--host H] [--port P] [--jobs N] [--cache DIR]
    repro-mc chaos [--quick] [--jobs N] [--families kill,poison,...]
    repro-mc lint [paths ...] [--format json|sarif] [--rules RL001,...]
                  [--contracts FILE] [--write-contracts]

``--quick`` shrinks the synthetic population sizes so the whole
evaluation finishes in about a minute (the benchmark harness under
``benchmarks/`` runs the paper-scale versions).  ``analyze`` runs the
full dual-mode analysis on a user-supplied JSON task set (see
:mod:`repro.io` for the format); ``batch`` runs it over a directory of
task-set files through the parallel pipeline (:mod:`repro.pipeline`)
with caching, durable checkpointing, per-file failure capture (a file
that does not load is a usage error naming it, before any analysis) and
infrastructure fault tolerance (``--retries``/``--timeout`` bound the
retry budget and per-item watchdog; ``--quarantine`` collects poison
items instead of aborting; Ctrl-C drains gracefully and prints the
resume command).  ``--jobs`` fans the synthetic-population figures, the
resilience sweep and ``batch`` over worker processes; results are
identical to ``--jobs 1``.  ``chaos`` runs the seeded fault-injection
harness (:mod:`repro.pipeline.chaos`) and exits non-zero unless
exactly-once accounting and byte-identical reports hold under every
fault family.  ``serve`` starts the analysis-as-a-service HTTP front-end
(:mod:`repro.service`) over the same work-queue core as ``batch`` —
POST task sets to ``/analyze``, poll ``/jobs/{id}``, scrape
``/metrics``; SIGTERM drains gracefully.  ``lint`` runs the repro-lint
static-analysis pack
(:mod:`repro.lint`) over the given paths (default ``src``) and exits 1
on any finding.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict


def _run_table1() -> str:
    from repro.api import min_speedup, resetting_time
    from repro.experiments import table1

    out = [table1.render(), ""]
    ts, tsd = table1.table1_taskset(), table1.table1_degraded_taskset()
    out.append(f"Example 1: s_min            = {min_speedup(ts).s_min:.6g} (paper: 4/3)")
    out.append(f"Example 1: s_min (degraded) = {min_speedup(tsd).s_min:.6g} (paper: 0.875)")
    out.append(
        f"Example 2: Delta_R(s=2)     = {resetting_time(ts, 2.0).delta_r:.6g} (paper: 6)"
    )
    out.append(
        f"Example 2: Delta_R(s=4/3)   = {resetting_time(ts, 4.0 / 3.0).delta_r:.6g}"
    )
    return "\n".join(out)


def _run_fig1() -> str:
    from repro.experiments import fig1

    return fig1.render()


def _run_fig3() -> str:
    from repro.experiments import fig3

    return fig3.render()


def _run_fig4() -> str:
    from repro.experiments import fig4

    return fig4.render()


def _run_fig5() -> str:
    from repro.experiments import fig5

    return fig5.render()


def _make_fig6(quick: bool, jobs: int = 1) -> Callable[[], str]:
    def run() -> str:
        from repro.experiments import fig6

        n = 60 if quick else 500
        n_sweep = 30 if quick else 200
        points = fig6.run(sets_per_point=n, jobs=jobs)
        sweep = fig6.run_sweep(sets_per_point=n_sweep, jobs=jobs)
        return fig6.render(points, sweep)

    return run


def _make_fig7(quick: bool, jobs: int = 1) -> Callable[[], str]:
    def run() -> str:
        from repro.experiments import fig7

        n = 20 if quick else 100
        grid = fig7.run(sets_per_point=n, jobs=jobs)
        return fig7.render(grid)

    return run


def _make_multiproc(quick: bool, jobs: int = 1) -> Callable[[], str]:
    def run() -> str:
        from repro.experiments import figM

        if quick:
            cells = figM.run(
                u_bounds=(0.5, 0.7),
                core_counts=(2, 4),
                speedup_caps=(2.0, 3.0),
                sets_per_point=12,
                jobs=jobs,
            )
        else:
            cells = figM.run(jobs=jobs)
        return figM.render(cells)

    return run


def _run_validate() -> str:
    from repro.experiments.table1 import table1_degraded_taskset, table1_taskset
    from repro.sim.validate import validate_bounds

    out = ["Simulator-vs-analysis validation (Table I example):"]
    for name, ts in (
        ("no degradation", table1_taskset()),
        ("with degradation", table1_degraded_taskset()),
    ):
        report = validate_bounds(ts, speedup=2.0, horizon=400.0)
        out.append(
            f"  {name}: s_min={report.s_min:.4g}, Delta_R(2)={report.delta_r:.4g}, "
            f"misses@2x={report.misses_at_s_min}, "
            f"max episode={report.max_episode:.4g}, "
            f"bounds hold: {report.bounds_hold}"
        )
    return "\n".join(out)


def _make_resilience(quick: bool, csv_path, jobs: int = 1) -> Callable[[], str]:
    def run() -> str:
        from repro.io import write_records_csv
        from repro.sim.resilience import render, run_suite

        verdicts = run_suite(quick=quick, jobs=jobs)
        if csv_path:
            write_records_csv(csv_path, [v.to_record() for v in verdicts])
        out = render(verdicts)
        if csv_path:
            out += f"\nverdicts written to {csv_path}"
        return out

    return run


def _run_analyze(taskset, speedup, budget) -> str:
    """Dual-mode analysis report for a user-supplied task set."""
    import math

    from repro.api import analyze, max_tolerable_gamma, min_speedup_margin

    out = [f"Task set {taskset.name!r} ({len(taskset)} tasks):", taskset.table(), ""]
    report = analyze(taskset, speedup=speedup, budget=budget)
    out.append(f"LO mode schedulable at nominal speed: {report.lo_ok}")
    out.append(f"Theorem 2 minimum HI-mode speedup:    {report.s_min:.6g}")
    if speedup is not None:
        out.append(f"HI mode schedulable at s = {speedup:g}:      {report.hi_ok}")
        if report.resetting_result is not None:
            out.append(
                f"Corollary 5 resetting time at s = {speedup:g}: "
                f"{report.delta_r:.6g}"
            )
            if budget is not None:
                # The whole design: LO feasible and recovered in budget.
                out.append(f"Within recovery budget {budget:g}:        {report.ok}")
        out.append(
            f"Speedup margin (headroom):            "
            f"{min_speedup_margin(taskset, speedup):.6g}"
        )
        if report.lo_ok and report.hi_ok:
            gamma = max_tolerable_gamma(
                taskset, speedup,
                reset_budget=budget if budget is not None else math.inf,
            )
            if gamma is not None:
                out.append(f"Max tolerable WCET ratio gamma:       {gamma:.4g}")
    return "\n".join(out)


def _run_batch(args, parser) -> int:
    """Analyse every task-set JSON in a directory through the pipeline.

    Prints the report table and returns the process exit code: 0 on a
    completed run, ``128 + signum`` when SIGINT/SIGTERM drained the run
    early (after printing the resume command).
    """
    from pathlib import Path

    from repro import api
    from repro.io import write_records_csv
    from repro.pipeline.fault_tolerance import BatchAborted, RetryPolicy

    directory = Path(args.tasksets)
    if not directory.is_dir():
        parser.error(f"--tasksets: {directory} is not a directory")
    files = sorted(directory.glob("*.json"))
    if not files:
        parser.error(f"--tasksets: no .json task sets in {directory}")
    tasksets = []
    for path in files:
        # A file that does not load (malformed JSON, a foreign or future
        # document, a task the model rejects) stops the run before any
        # analysis, as a usage error naming it.
        try:
            tasksets.append(api.load_taskset(path))
        except (OSError, ValueError, TypeError) as error:
            parser.error(f"--tasksets: cannot load {path}: {error}")

    from repro.obs import MetricsRegistry, ProgressLine, trace
    from repro.pipeline.core import WorkQueueCore

    checkpoint = args.resume if args.resume else args.checkpoint
    metrics = MetricsRegistry() if args.metrics else None
    progress_line = ProgressLine(label="analysed") if args.verbose else None
    retry = RetryPolicy(
        max_attempts=args.retries,
        timeout=args.timeout,
    )
    # The CLI is one client of the shared work-queue core (the HTTP
    # service is the other); core.run executes in this thread so signal
    # handlers install and BatchAborted propagates for the resume hint.
    # The core runs once, so its pool is sized to the run.
    core = WorkQueueCore(
        jobs=args.jobs,
        cache=args.cache or None,
        retry=retry,
        quarantine=args.quarantine,
        metrics=metrics,
        keep_pool=False,
    )
    requests = [
        api.AnalysisRequest(
            taskset=ts, speedup=args.speedup, reset_budget=args.budget
        )
        for ts in tasksets
    ]
    if args.trace:
        trace.enable()
        trace.clear()
    try:
        reports = core.run(
            requests,
            checkpoint=checkpoint,
            resume=bool(args.resume),
            progress=progress_line.update if progress_line is not None else None,
        )
    except BatchAborted as aborted:
        import signal as signal_module

        ckpt = aborted.checkpoint
        print(
            f"\ninterrupted by {aborted.signal_name}: "
            f"{aborted.done}/{aborted.total} items settled and flushed"
        )
        if ckpt is not None:
            print(
                f"resume with: repro-mc batch --tasksets {directory} "
                f"--resume {ckpt} --jobs {args.jobs}"
            )
        else:
            print(
                "no checkpoint was configured; pass --checkpoint to make "
                "interrupted runs resumable"
            )
        if metrics is not None:
            metrics.write_json(args.metrics)
        try:
            signum = int(getattr(signal_module.Signals, aborted.signal_name))
        except (AttributeError, ValueError):
            signum = 2
        return 128 + signum
    finally:
        core.close()
        if progress_line is not None:
            progress_line.close()
        if args.trace:
            trace.disable()

    header = (
        f"{'taskset':<24}{'lo':>4}{'s_min':>10}{'hi':>4}{'Delta_R':>10}"
        f"{'budget':>7}{'status':>8}"
    )
    out = [
        f"Batch analysis of {len(files)} task sets from {directory} "
        f"(s = {args.speedup:g}"
        + (f", budget = {args.budget:g}" if args.budget is not None else "")
        + f", jobs = {args.jobs})",
        header,
        "-" * len(header),
    ]

    def flag(verdict) -> str:
        return "-" if verdict is None else ("y" if verdict else "N")

    for report in reports:
        status = "failed" if report.failure is not None else ("ok" if report.ok else "no")
        out.append(
            f"{report.name:<24}{flag(report.lo_ok):>4}{report.s_min:>10.4g}"
            f"{flag(report.hi_ok):>4}{report.delta_r:>10.4g}"
            f"{flag(report.within_budget):>7}{status:>8}"
        )
    for report in reports:
        if report.failure is not None:
            out.append(
                f"  {report.name}: {report.failure.error_type} "
                f"in {report.failure.stage}: {report.failure.message}"
            )
    stats = core.stats
    out.append(
        f"{stats.total} analysed: {stats.computed} computed, "
        f"{stats.cache_hits} cache hits, {stats.resumed} resumed, "
        f"{stats.deduplicated} deduplicated, {stats.quarantined} quarantined, "
        f"{stats.failures} failures"
    )
    if core.faults.any_faults():
        out.append(
            "fault handling: "
            + ", ".join(
                f"{key}={value}"
                for key, value in sorted(core.faults.to_dict().items())
                if value
            )
        )
    if args.quarantine and stats.quarantined:
        out.append(f"quarantined item details in {args.quarantine}")
    if metrics is not None:
        metrics.write_json(args.metrics)
        out.append(f"metrics written to {args.metrics} ({metrics.summary()})")
    if args.trace:
        spans = trace.write_jsonl(args.trace)
        trace.clear()
        out.append(f"{spans} trace spans written to {args.trace}")
    if args.csv:
        write_records_csv(args.csv, [r.to_record() for r in reports])
        out.append(f"records written to {args.csv}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, report in zip(files, reports):
            api.save_report(report, out_dir / f"{path.stem}.report.json")
        out.append(f"{len(reports)} reports written to {out_dir}")
    print("\n".join(out))
    return 0


def _run_chaos(args) -> int:
    """Run the seeded fault-injection harness; non-zero on any failure."""
    import tempfile
    from pathlib import Path

    from repro.pipeline import chaos

    families = (
        [name.strip() for name in args.families.split(",") if name.strip()]
        if args.families
        else None
    )
    # Injection happens inside pool workers, so chaos always uses a
    # real pool even when --jobs was left at its serial default.
    jobs = args.jobs if args.jobs > 1 else 4
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        result = chaos.run_chaos(
            Path(tmp),
            jobs=jobs,
            seed=args.chaos_seed,
            quick=args.quick,
            families=families,
        )
    print(chaos.render(result))
    return 0 if result.ok else 1


def main(argv=None) -> int:
    """CLI dispatcher; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-mc",
        description="Reproduce the tables and figures of 'Run and Be Safe' (DATE 2015).",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7",
            "multiproc", "validate", "resilience", "all", "analyze",
            "batch", "serve", "chaos", "lint",
        ],
        help="which artefact to regenerate (or 'analyze' a task-set file, "
        "'batch'-analyse a directory of them, 'serve' the analysis over "
        "HTTP, run the 'chaos' fault-injection harness, or 'lint' the "
        "source tree)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories for 'lint' (default: src)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller synthetic populations (seconds instead of minutes)",
    )
    parser.add_argument(
        "--taskset",
        help="JSON task-set file for 'analyze' (see repro.io)",
    )
    parser.add_argument(
        "--speedup",
        type=float,
        default=2.0,
        help="HI-mode speedup evaluated by 'analyze' (default 2.0)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="recovery-time budget checked by 'analyze' (same unit as the task set)",
    )
    parser.add_argument(
        "--csv",
        help="write resilience verdict records to this CSV file",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="emit the full design report (analysis + sensitivity + simulated "
        "worst case) instead of the short summary",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for fig6/fig7/multiproc/resilience/batch "
        "(default 1; results are independent of the job count)",
    )
    parser.add_argument(
        "--tasksets",
        help="directory of task-set JSON files for 'batch'",
    )
    parser.add_argument(
        "--checkpoint",
        help="JSONL checkpoint appended per completed 'batch' item",
    )
    parser.add_argument(
        "--resume",
        metavar="CKPT",
        help="resume 'batch' from this JSONL checkpoint (implies --checkpoint)",
    )
    parser.add_argument(
        "--cache",
        help="on-disk result-cache directory for 'batch'",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempts per 'batch' item before quarantine (worker crashes, "
        "pool breaks, watchdog timeouts; default 3)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-item wall-clock watchdog in seconds for 'batch' pool "
        "workers (default: no watchdog)",
    )
    parser.add_argument(
        "--quarantine",
        metavar="OUT.jsonl",
        help="record 'batch' items that exhaust their retries here "
        "(with full attempt history) instead of aborting",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for 'serve' (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port for 'serve' (default 8787)",
    )
    parser.add_argument(
        "--families",
        metavar="NAME,NAME,...",
        help="subset of 'chaos' fault families to run (default: all)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=42,
        help="seed of the 'chaos' population and fault placement "
        "(default 42)",
    )
    parser.add_argument(
        "--out",
        help="directory for per-task-set 'batch' report JSON files",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print per-item progress with rate and ETA for 'batch' to stderr",
    )
    parser.add_argument(
        "--metrics",
        metavar="OUT.json",
        help="write a unified metrics snapshot (batch stats, cache totals, "
        "kernel perf counters, per-worker timings) for 'batch'",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        help="enable span tracing for 'batch' and write the spans as JSONL",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        dest="lint_format",
        help="'lint' report format (default text)",
    )
    parser.add_argument(
        "--rules",
        metavar="RL001,RL002,...",
        help="comma-separated subset of lint rules to run (default: all)",
    )
    parser.add_argument(
        "--contracts",
        metavar="FILE.json",
        help="'lint' serialized-surface contract file consumed by RL006 "
        "(default lint-contracts.json when present)",
    )
    parser.add_argument(
        "--write-contracts",
        action="store_true",
        help="regenerate the 'lint' contract file from the current tree "
        "and exit 0",
    )
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.experiment == "lint":
        from repro.lint.cli import run_lint_command

        return run_lint_command(
            args.paths,
            output_format=args.lint_format,
            rules=args.rules,
            contracts_path=args.contracts,
            write_contracts=args.write_contracts,
        )

    if args.paths:
        parser.error("positional paths are only accepted by 'lint'")

    if args.experiment == "batch":
        if not args.tasksets:
            parser.error("'batch' requires --tasksets <directory>")
        if args.retries < 1:
            parser.error("--retries must be >= 1")
        if args.timeout is not None and args.timeout <= 0:
            parser.error("--timeout must be positive")
        return _run_batch(args, parser)

    if args.experiment == "serve":
        from repro.service import serve

        serve(
            args.host,
            args.port,
            jobs=args.jobs,
            cache=args.cache,
            quarantine=args.quarantine,
        )
        return 0

    if args.experiment == "chaos":
        return _run_chaos(args)

    if args.experiment == "analyze":
        if not args.taskset:
            parser.error("'analyze' requires --taskset <file.json>")
        if not (args.speedup > 0.0):
            parser.error("--speedup must be positive")
        if args.budget is not None and not (args.budget >= 0.0):
            parser.error("--budget must be >= 0")
        from repro.io import load_taskset

        # A file that does not load is a usage error naming it, as in 'batch'.
        try:
            taskset = load_taskset(args.taskset)
        except (OSError, ValueError, TypeError) as error:
            parser.error(f"--taskset: cannot load {args.taskset}: {error}")
        if args.report:
            from repro.report import build_report

            print(build_report(taskset, args.speedup, reset_budget=args.budget))
        else:
            print(_run_analyze(taskset, args.speedup, args.budget))
        return 0

    runners: Dict[str, Callable[[], str]] = {
        "table1": _run_table1,
        "fig1": _run_fig1,
        "fig3": _run_fig3,
        "fig4": _run_fig4,
        "fig5": _run_fig5,
        "fig6": _make_fig6(args.quick, args.jobs),
        "fig7": _make_fig7(args.quick, args.jobs),
        "multiproc": _make_multiproc(args.quick, args.jobs),
        "validate": _run_validate,
        "resilience": _make_resilience(args.quick, args.csv, args.jobs),
    }
    names = list(runners) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.perf_counter()
        print(f"=== {name} " + "=" * max(0, 66 - len(name)))
        print(runners[name]())
        print(f"--- {name} done in {time.perf_counter() - start:.1f}s\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
