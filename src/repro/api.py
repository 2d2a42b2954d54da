"""Stable public facade for the reproduction.

Everything an experiment, script or downstream user needs lives here
behind a small, stable surface:

* :func:`analyze` — one task set in, one
  :class:`~repro.pipeline.request.AnalysisReport` out (Theorem 2,
  Corollary 5, LO/HI feasibility, Lemma 6/7 bounds, per-task tuning).
* :func:`analyze_many` — the same over a population, optionally across
  worker processes with caching and checkpoint/resume (on a
  :class:`WorkQueueCore`).
* :func:`load_taskset` / :func:`save_taskset` /
  :func:`save_report` / :func:`load_report` — versioned JSON I/O.
* The service surface: :func:`serve` runs the analysis-as-a-service
  HTTP front-end (``repro-mc serve``), :class:`AnalysisClient` is its
  synchronous client (``submit``/``poll``/``result`` helpers plus
  remote ``analyze``/``analyze_many``), and :class:`WorkQueueCore` /
  :class:`JobHandle` expose the work-queue every batch runs through,
  for in-process submission with job-level dedup/coalescing.
* Blessed re-exports of the individual analyses (:func:`min_speedup`,
  :func:`resetting_time`, :func:`hi_mode_schedulable`, ...) for callers
  that want one number instead of a full report.
* The multiprocessor surface: :func:`partition_tasks` /
  :func:`partitioned_design` / :func:`min_cores` (partitioned
  deployment under the per-core Theorem-2 admission, kernel-batched),
  :func:`partition_tasks_edf_vd_degraded` and the comparison baselines
  :func:`edf_vd_degraded_schedulable` / :func:`fluid_schedulable`.

Experiment modules import :mod:`repro.api` instead of
``repro.analysis.*`` internals (enforced by a lint ban), so the
analysis package can evolve without touching every figure script.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Iterable, List, Optional, Sequence, Union

import numpy as np

# Blessed analysis surface -------------------------------------------------
from repro.analysis.budget import AnalysisBudgetExceeded
from repro.analysis.closed_form import (
    ClosedFormBounds,
    closed_form_bounds,
    closed_form_resetting_time,
    closed_form_speedup,
)
from repro.analysis.dbf import total_adb_hi, total_dbf_hi, total_dbf_lo
from repro.analysis.resetting import ResettingResult, resetting_curve, resetting_time
from repro.analysis.result import AnalysisResult
from repro.analysis.schedulability import hi_mode_schedulable, lo_mode_schedulable
from repro.analysis.sensitivity import (
    max_tolerable_gamma,
    max_tolerable_load_scale,
    min_speedup_margin,
)
from repro.analysis.population import (
    lo_mode_schedulable_many,
    min_preparation_factor_many,
    min_speedup_many,
    resetting_many,
)
from repro.analysis.speedup import SpeedupResult, min_speedup
from repro.analysis.tuning import min_preparation_factor
from repro.analysis.per_task_tuning import tune_per_task_deadlines
from repro.baselines.edf_vd_degraded import (
    EdfVdDegradedResult,
    edf_vd_degraded_schedulable,
)
from repro.baselines.fluid import (
    FluidResult,
    fluid_schedulable,
    fluid_speedup_bound,
)
from repro.multiproc.partition import (
    PartitionedDesign,
    PartitioningError,
    min_cores,
    partition_tasks,
    partition_tasks_edf_vd_degraded,
    partitioned_design,
)
from repro.io import (
    load_report,
    load_taskset,
    save_report,
    save_taskset,
    taskset_from_json,
    taskset_to_json,
)
from repro.model.taskset import TaskSet
from repro.obs import MetricsRegistry, ProgressLine, trace
from repro.pipeline.cache import ResultCache, taskset_fingerprint
from repro.pipeline.core import JobHandle, WorkQueueCore, job_fingerprint
from repro.pipeline.fault_tolerance import BatchAborted, RetryPolicy
from repro.pipeline.request import (
    AnalysisFailure,
    AnalysisReport,
    AnalysisRequest,
    evaluate_request,
)
from repro.pipeline.runner import BatchStats, ProgressCallback
from repro.service.client import AnalysisClient, ServiceError
from repro.service.schema import WIRE_VERSION, WireError
from repro.service.server import serve

__all__ = [
    "AnalysisBudgetExceeded",
    "AnalysisClient",
    "AnalysisFailure",
    "AnalysisReport",
    "AnalysisRequest",
    "AnalysisResult",
    "BatchAborted",
    "BatchStats",
    "ClosedFormBounds",
    "EdfVdDegradedResult",
    "FluidResult",
    "JobHandle",
    "MetricsRegistry",
    "ProgressLine",
    "PartitionedDesign",
    "PartitioningError",
    "ResettingResult",
    "ResultCache",
    "RetryPolicy",
    "ServiceError",
    "SpeedupResult",
    "WIRE_VERSION",
    "WireError",
    "WorkQueueCore",
    "analyze",
    "analyze_many",
    "closed_form_bounds",
    "closed_form_resetting_time",
    "closed_form_speedup",
    "demand_curve",
    "edf_vd_degraded_schedulable",
    "evaluate_request",
    "fluid_schedulable",
    "fluid_speedup_bound",
    "hi_mode_schedulable",
    "job_fingerprint",
    "load_report",
    "load_taskset",
    "lo_mode_schedulable",
    "lo_mode_schedulable_many",
    "max_tolerable_gamma",
    "max_tolerable_load_scale",
    "min_cores",
    "min_preparation_factor",
    "min_preparation_factor_many",
    "min_speedup",
    "min_speedup_many",
    "min_speedup_margin",
    "partition_tasks",
    "partition_tasks_edf_vd_degraded",
    "partitioned_design",
    "resetting_curve",
    "resetting_many",
    "resetting_time",
    "save_report",
    "save_taskset",
    "serve",
    "taskset_fingerprint",
    "taskset_from_json",
    "taskset_to_json",
    "trace",
    "tune_per_task_deadlines",
]


def _build_request(
    taskset: TaskSet,
    *,
    speedup: Optional[float],
    budget: Optional[float],
    **options: Any,
) -> AnalysisRequest:
    return AnalysisRequest(
        taskset=taskset, speedup=speedup, reset_budget=budget, **options
    )


def analyze(
    taskset: TaskSet,
    *,
    speedup: Optional[float] = None,
    budget: Optional[float] = None,
    **options: Any,
) -> AnalysisReport:
    """Full dual-mode analysis of one task set.

    Parameters
    ----------
    taskset:
        The dual-criticality task set to analyse.
    speedup:
        Target HI-mode speedup ``s``; enables the HI-mode verdict and the
        Corollary-5 resetting time.
    budget:
        Recovery budget checked against the resetting time.
    options:
        Any further :class:`~repro.pipeline.request.AnalysisRequest`
        field (``x``, ``auto_x``, ``y``, ``closed_form``, ``per_task``,
        ``max_candidates``, ...).

    Analysis errors (budget exhaustion, degenerate inputs) propagate as
    exceptions here; use :func:`analyze_many` for capture-and-continue
    semantics over a population.

    >>> report = analyze(table1_taskset(), speedup=2.0)   # doctest: +SKIP
    >>> report.s_min, report.delta_r                      # doctest: +SKIP
    (1.3333333333333333, 6.0)
    """
    return evaluate_request(
        _build_request(taskset, speedup=speedup, budget=budget, **options)
    )


def analyze_many(
    tasksets: Iterable[Union[TaskSet, AnalysisRequest]],
    *,
    speedup: Optional[float] = None,
    budget: Optional[float] = None,
    jobs: int = 1,
    cache: Optional[Union[ResultCache, str]] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    core: Optional[WorkQueueCore] = None,
    retry: Optional[RetryPolicy] = None,
    quarantine: Optional[str] = None,
    **options: Any,
) -> List[AnalysisReport]:
    """Analyse a population, optionally in parallel worker processes.

    ``tasksets`` may mix plain :class:`~repro.model.taskset.TaskSet`
    objects (analysed with the shared ``speedup``/``budget``/``options``)
    and pre-built :class:`AnalysisRequest` items (used as-is).  Reports
    come back in input order; a failed item carries a structured
    ``failure`` record instead of raising.

    ``cache`` accepts a :class:`ResultCache` or a directory path;
    ``checkpoint``/``resume`` give interruptible sweeps (durable JSONL,
    CRC per line, flushed and fsynced per completed batch).  ``retry``
    bounds the handling of infrastructure failures (worker crashes,
    broken pools, watchdog timeouts); ``quarantine`` names a JSONL file
    that collects items exhausting their attempts instead of aborting
    the sweep.  SIGINT/SIGTERM during a run drains gracefully and raises
    :class:`BatchAborted` with the resumable checkpoint path.  The call
    runs on a :class:`WorkQueueCore` it closes before returning, so no
    worker outlives it; pass ``core`` to reuse one you own and close
    instead (its resources replace ``jobs``/``cache``/``chunk_size``/
    ``retry``/``quarantine``).  An identical submission to the same core
    coalesces onto the earlier job: nothing is recomputed, checkpointed
    or reported to ``progress``.  For that, a core keeps the payloads
    of up to ``completed_capacity`` completed jobs until it is closed.

    Pending requests are evaluated in groups of up to ``chunk_size``
    (default :data:`~repro.pipeline.runner.GROUP_SIZE`), the same groups
    at any ``jobs``: a group of two or more runs each analysis stage as
    one fused population scan across its sets
    (:func:`repro.pipeline.grouping.evaluate_chunk_grouped`), a singleton
    runs per item.  Reports are byte-identical either way.
    """
    requests = [
        item
        if isinstance(item, AnalysisRequest)
        else _build_request(item, speedup=speedup, budget=budget, **options)
        for item in tasksets
    ]
    scope = (
        nullcontext(core)
        if core is not None
        else WorkQueueCore(
            jobs=jobs,
            cache=cache,
            retry=retry,
            quarantine=quarantine,
            chunk_size=chunk_size,
        )
    )
    with scope as target:
        return target.run(
            requests, checkpoint=checkpoint, resume=resume, progress=progress
        )


def demand_curve(
    taskset: TaskSet,
    deltas: Union[Sequence[float], np.ndarray],
    *,
    kind: str = "dbf_hi",
    drop_terminated_carryover: bool = False,
) -> np.ndarray:
    """Total demand of ``taskset`` over interval lengths ``deltas``.

    ``kind`` selects the bound: ``"dbf_lo"`` (Eq. 4), ``"dbf_hi"``
    (Lemma 1) or ``"adb_hi"`` (Theorem 4 arrived demand).  This is the
    facade over :mod:`repro.analysis.dbf` used by the demand-curve
    figures.
    """
    deltas = np.asarray(deltas, dtype=float)
    if kind == "dbf_lo":
        return np.asarray(total_dbf_lo(taskset, deltas), dtype=float)
    if kind == "dbf_hi":
        return np.asarray(total_dbf_hi(taskset, deltas), dtype=float)
    if kind == "adb_hi":
        return np.asarray(
            total_adb_hi(
                taskset, deltas, drop_terminated_carryover=drop_terminated_carryover
            ),
            dtype=float,
        )
    raise ValueError(
        f"kind must be 'dbf_lo', 'dbf_hi' or 'adb_hi', got {kind!r}"
    )
