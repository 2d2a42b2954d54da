#!/usr/bin/env python
"""Old-vs-new benchmark for the compiled demand kernels.

Times the scalar per-task oracle (``engine="scalar"``, the original
``repro.analysis.dbf`` loops) against the struct-of-arrays fast path
(``engine="compiled"``, :mod:`repro.analysis.kernels`) on seeded
populations, asserts that both engines return *exactly* equal results,
and writes a machine-readable ``BENCH_kernels.json`` at the repo root.

Scenarios
---------
* ``min_speedup_small`` / ``min_speedup_medium`` / ``min_speedup_large``
  — the Theorem-2 ``s_min`` scan over seeded populations of growing
  task-set size; ``large`` is the ~50-task configuration the original
  acceptance criterion targets (>= 5x compiled).  ``small`` is the
  figure-sweep regime: hundreds of ~5-task sets, where per-set dispatch
  dominates and the population engine
  (:func:`repro.analysis.population.min_speedup_many`) is the
  acceptance target (>= 5x over scalar, vs ~1.2x for per-set compiled).
* ``per_task_tuning`` — the greedy per-task deadline-tuning ablation
  sweep: for each mover set and each shrink step, tune the deadlines,
  then trace speedup-margin curves for both the tuned and the uniform-x
  baseline configuration across a speedup grid.  The compiled engine
  threads one snapshot through the greedy loop and dedups repeated
  probes via the fingerprint memo (>= 10x).
* ``fig6_fig7_e2e`` — end-to-end wall clock of shrunken Figure-6 and
  Figure-7 sweeps through the batch pipeline: the "scalar" pass is the
  per-item path (``WorkQueueCore(chunk_size=1)``), the "compiled" pass the
  default grouped pipeline, with byte-identical figure data.

Speedup scenarios additionally time the population engine in one fused
pass (``population_ms`` / ``population_ratio`` vs scalar); its results
participate in the exact-equality check alongside both engines.

Each engine pass is timed best-of-N (default 3) because single-shot
wall-clock on a loaded machine is noisy; caches and compiled snapshots
are cleared before every repetition so the compiled timing includes
compilation.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full run
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI smoke

A full run writes ``BENCH_kernels.json`` unless ``--out`` names another
file.  A ``--quick`` run writes only to an explicit ``--out``, so the
smoke never overwrites the committed full-run baseline.

The full run enforces the acceptance thresholds (exit code 1 on a
miss); ``--quick`` shrinks the workloads (so the ratios under-represent
the full-size gains) and only enforces that the compiled engine is not
slower than the scalar one, with a generous margin for shared-runner
noise.  Engine result mismatches always fail, in either mode.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro import api  # noqa: E402
from repro.analysis import kernels  # noqa: E402
from repro.analysis.per_task_tuning import tune_per_task_deadlines  # noqa: E402
from repro.analysis.population import min_speedup_many  # noqa: E402
from repro.analysis.sensitivity import min_speedup_margin  # noqa: E402
from repro.analysis.speedup import min_speedup  # noqa: E402
from repro.analysis.tuning import min_preparation_factor  # noqa: E402
from repro.experiments import fig6, fig7  # noqa: E402
from repro.generator.taskgen import GeneratorConfig, population  # noqa: E402
from repro.model.taskset import TaskSet  # noqa: E402
from repro.model.transform import (  # noqa: E402
    apply_uniform_scaling,
    shorten_hi_deadlines,
)

#: Compiled-vs-scalar acceptance thresholds, enforced on the full run.
#: Every scenario carries an explicit floor: the small/medium regimes
#: and the end-to-end sweep must at least break even per set; the
#: large-set scan and the tuning sweep keep their headline targets.
THRESHOLDS = {
    "min_speedup_small": 1.0,
    "min_speedup_medium": 1.0,
    "min_speedup_large": 5.0,
    "per_task_tuning": 10.0,
    "fig6_fig7_e2e": 1.0,
}

#: Population-vs-scalar acceptance thresholds (full run).  The small
#: scenario is the issue's target: hundreds of ~5-task sets where the
#: per-set compiled engine manages only ~1.2-2x.
POPULATION_THRESHOLDS = {"min_speedup_small": 5.0}

#: --quick only requires the compiled engine not to lose; the margin
#: absorbs timer noise on small workloads and shared CI runners.
QUICK_MIN_RATIO = 0.8


def _reset_caches(tasksets: Sequence[TaskSet]) -> None:
    """Drop every cache so a repetition pays the full compiled cost."""
    kernels.clear_memo()
    kernels.clear_compile_cache()
    for ts in tasksets:
        try:
            delattr(ts, kernels._COMPILED_ATTR)
        except AttributeError:
            pass


def _best_of(
    fn: Callable[[], Any], tasksets: Sequence[TaskSet], reps: int
) -> Tuple[float, Any]:
    """Minimum wall-clock over ``reps`` cold-cache repetitions."""
    best, result = math.inf, None
    for _ in range(reps):
        _reset_caches(tasksets)
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@dataclass
class Scenario:
    name: str
    description: str
    tasksets: List[TaskSet]
    run: Callable[[str], Any]  # engine -> comparable result
    #: One fused population-engine pass returning the same comparable
    #: result as ``run`` (None for scenarios without a population path).
    run_population: Optional[Callable[[], Any]] = None


def _speedup_population(
    u: float, count: int, x: float, y: float, config: GeneratorConfig
) -> List[TaskSet]:
    return [
        apply_uniform_scaling(ts, x, y)
        for ts in population(u, count, seed=7, config=config)
    ]


def _speedup_scenario(
    name: str,
    description: str,
    u: float,
    count: int,
    x: float,
    y: float,
    config: GeneratorConfig,
) -> Scenario:
    sets = _speedup_population(u, count, x, y, config)

    def run(engine: str) -> List[Dict[str, Any]]:
        return [min_speedup(ts, engine=engine).to_dict() for ts in sets]

    def run_population() -> List[Dict[str, Any]]:
        return [result.to_dict() for result in min_speedup_many(sets)]

    return Scenario(name, description, sets, run, run_population)


def _tuning_scenario(quick: bool) -> Scenario:
    """Greedy-tuning ablation sweep over mover sets (see module docstring)."""
    config = GeneratorConfig(u_lo_range=(0.02, 0.1))
    utilizations = (0.8, 0.85) if quick else (0.7, 0.75, 0.8, 0.85, 0.9)
    movers: List[TaskSet] = []
    for u in utilizations:
        for ts in population(u, 12, seed=7, config=config):
            result = tune_per_task_deadlines(ts)
            if result is not None and len(result.moves) >= 4:
                movers.append(ts)
        _reset_caches([])
    shrinks = (0.75, 0.85) if quick else (0.70, 0.75, 0.80, 0.85, 0.90)
    grid_points = 8 if quick else 24
    s_grid = tuple(1.0 + 0.125 * k for k in range(1, grid_points + 1))

    def run(engine: str) -> List[Tuple[Any, ...]]:
        rows = []
        for ts in movers:
            for shrink in shrinks:
                tuned = tune_per_task_deadlines(ts, shrink=shrink, engine=engine)
                x = min_preparation_factor(ts, method="exact", engine=engine)
                uniform = shorten_hi_deadlines(ts, min(x, 1.0 - 1e-9))
                row: List[Any] = [
                    tuned.s_min,
                    tuned.uniform_s_min,
                    tuple(tuned.moves),
                ]
                for s in s_grid:
                    row.append(min_speedup_margin(tuned.taskset, s, engine=engine))
                    row.append(min_speedup_margin(uniform, s, engine=engine))
                rows.append(tuple(row))
            # A fresh analysis per mover set: memo reuse within one
            # set's sweep is the measured effect, reuse across sets
            # would be an artifact of the benchmark loop.
            _reset_caches([ts])
        return rows

    return Scenario(
        "per_task_tuning",
        "greedy per-task tuning + tuned-vs-uniform margin curves "
        f"({len(movers)} sets x {len(shrinks)} shrinks x {len(s_grid)}-pt grid)",
        movers,
        run,
    )


def _e2e_scenario(quick: bool) -> Scenario:
    """Shrunken Figure-6/Figure-7 sweeps, per-set vs population pipeline.

    The grids are cut down from the paper's (500 sets/point, 6x6) so a
    5-repetition gate stays practical, but the shape is the real one:
    generation, x-tuning, Theorem-2, Corollary-5 and the acceptance
    logic all run through :func:`repro.api.analyze_many`.  The "scalar"
    pass keeps every request on the per-item path (singleton groups), the
    "compiled" pass is the default grouped pipeline; both must produce
    byte-identical figures.
    """
    if quick:
        u6, n6 = (0.5, 0.7), 8
        u7, n7 = (0.4, 0.7), 4
    else:
        u6, n6 = (0.4, 0.6, 0.8), 40
        u7, n7 = (0.25, 0.55, 0.85), 12

    def run(engine: str) -> Tuple[Any, ...]:
        per_item = (
            api.WorkQueueCore(chunk_size=1) if engine == "scalar" else nullcontext()
        )
        with per_item as core:
            points = fig6.run(u_bounds=u6, sets_per_point=n6, core=core)
            grid = fig7.run(u_points=u7, sets_per_point=n7, core=core)
        return (
            [
                (p.u_bound, [(s.s_min, s.delta_r, s.lo_feasible) for s in p.samples])
                for p in points
            ],
            grid.with_speedup.tolist(),
            grid.without_speedup.tolist(),
        )

    return Scenario(
        "fig6_fig7_e2e",
        "end-to-end fig6+fig7 sweeps, per-item vs grouped pipeline "
        f"(fig6: {len(u6)} pts x {n6} sets, fig7: {len(u7)}^2 pts x {n7} sets)",
        [],
        run,
    )


def build_scenarios(quick: bool) -> List[Scenario]:
    count = 3 if quick else 8
    # The small scenario runs in the population regime the issue names —
    # hundreds of task sets per pass — so the population ratio measures
    # amortized dispatch, not three lonely sets.
    small_count = 24 if quick else 200
    scenarios = [
        _speedup_scenario(
            "min_speedup_small",
            "Theorem-2 s_min scan, ~5-task sets x hundreds "
            "(u=0.6, x=0.5, y=1.5)",
            0.6,
            small_count,
            0.5,
            1.5,
            GeneratorConfig(),
        ),
        _speedup_scenario(
            "min_speedup_medium",
            "Theorem-2 s_min scan, ~25-task sets (u=0.7, x=0.6, y=2.0)",
            0.7,
            count,
            0.6,
            2.0,
            GeneratorConfig(u_lo_range=(0.01, 0.05)),
        ),
        _speedup_scenario(
            "min_speedup_large",
            "Theorem-2 s_min scan, ~50-task sets (u=0.75, x=0.6, y=2.0)",
            0.75,
            count,
            0.6,
            2.0,
            GeneratorConfig(u_lo_range=(0.005, 0.02)),
        ),
        _tuning_scenario(quick),
        _e2e_scenario(quick),
    ]
    return scenarios


def run_scenario(scenario: Scenario, reps: int) -> Dict[str, Any]:
    scalar_s, scalar_result = _best_of(
        lambda: scenario.run("scalar"), scenario.tasksets, reps
    )
    compiled_s, compiled_result = _best_of(
        lambda: scenario.run("compiled"), scenario.tasksets, reps
    )
    record = {
        "name": scenario.name,
        "description": scenario.description,
        "n_sets": len(scenario.tasksets),
        "tasks_per_set": [len(ts) for ts in scenario.tasksets],
        "reps": reps,
        "scalar_ms": round(scalar_s * 1e3, 3),
        "compiled_ms": round(compiled_s * 1e3, 3),
        "speedup_ratio": round(scalar_s / compiled_s, 3),
        "results_match": scalar_result == compiled_result,
    }
    if scenario.run_population is not None:
        population_s, population_result = _best_of(
            scenario.run_population, scenario.tasksets, reps
        )
        record["population_ms"] = round(population_s * 1e3, 3)
        record["population_ratio"] = round(scalar_s / population_s, 3)
        record["results_match"] = (
            record["results_match"] and scalar_result == population_result
        )
    return record


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workloads, relaxed thresholds (CI smoke)",
    )
    parser.add_argument(
        "--reps", type=int, default=3, help="best-of-N repetitions per engine"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (a full run defaults to BENCH_kernels.json; "
        "--quick writes nothing without it)",
    )
    args = parser.parse_args(argv)
    out = args.out
    if out is None and not args.quick:
        out = REPO_ROOT / "BENCH_kernels.json"

    runs = []
    failures = []
    for scenario in build_scenarios(args.quick):
        record = run_scenario(scenario, args.reps)
        threshold = QUICK_MIN_RATIO if args.quick else THRESHOLDS[scenario.name]
        record["threshold"] = threshold
        record["threshold_met"] = record["speedup_ratio"] >= threshold
        if "population_ratio" in record:
            pop_threshold = (
                QUICK_MIN_RATIO
                if args.quick
                else POPULATION_THRESHOLDS.get(scenario.name, 1.0)
            )
            record["population_threshold"] = pop_threshold
            record["population_threshold_met"] = (
                record["population_ratio"] >= pop_threshold
            )
        else:
            record["population_threshold"] = None
            record["population_threshold_met"] = True
        runs.append(record)
        ok = (
            record["threshold_met"]
            and record["population_threshold_met"]
            and record["results_match"]
        )
        status = "ok" if ok else "FAIL"
        pop_col = (
            f"population {record['population_ms']:>8.1f} ms "
            f"{record['population_ratio']:>6.2f}x   "
            if "population_ms" in record
            else ""
        )
        print(
            f"{record['name']:<20} scalar {record['scalar_ms']:>9.1f} ms   "
            f"compiled {record['compiled_ms']:>8.1f} ms   "
            f"{record['speedup_ratio']:>6.2f}x   "
            f"{pop_col}"
            f"match={record['results_match']}   [{status}]"
        )
        if not record["results_match"]:
            failures.append(f"{scenario.name}: engine results differ")
        if not record["threshold_met"]:
            failures.append(
                f"{scenario.name}: ratio {record['speedup_ratio']}x "
                f"below threshold {threshold}x"
            )
        if not record["population_threshold_met"]:
            failures.append(
                f"{scenario.name}: population ratio "
                f"{record['population_ratio']}x below threshold "
                f"{record['population_threshold']}x"
            )

    payload = {
        "schema_version": 2,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "perf_counters": kernels.perf_snapshot(),
        "runs": runs,
    }
    if out is None:
        print("--quick without --out: no JSON written")
    else:
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
