"""Mixed-criticality EDF scheduling with temporary processor speedup.

Reproduction of Huang, Kumar, Giannopoulou, Thiele, *Run and Be Safe:
Mixed-Criticality Scheduling with Temporary Processor Speedup* (DATE
2015).

Public API highlights
---------------------
* :class:`repro.model.MCTask`, :class:`repro.model.TaskSet` — the
  dual-criticality sporadic task model of Section II.
* :func:`repro.api.analyze` — full dual-mode analysis of one task set
  (Theorem 2 minimum speedup, Corollary 5 resetting time, LO/HI
  feasibility, Lemma 6/7 bounds) as one
  :class:`~repro.pipeline.request.AnalysisReport`.
* :func:`repro.api.analyze_many` — the same over a population, with
  process-pool fan-out, content-addressed caching and
  checkpoint/resume (:class:`~repro.pipeline.core.WorkQueueCore`).
* :func:`repro.api.load_taskset` / :func:`repro.api.save_report` —
  versioned JSON I/O.
* :mod:`repro.sim` — discrete-event EDF simulator with mode switching
  and dynamic speed.
* :mod:`repro.generator` — the synthetic task-set generator of Section
  VI and the flight-management-system workload.
* :mod:`repro.experiments` — one module per paper table/figure.

The individual analyses (``min_speedup`` and friends) are imported from
:mod:`repro.api`; since 2.0.0 the package top level no longer re-exports
them.
"""

from repro.model import (
    Criticality,
    MCTask,
    TaskSet,
    apply_uniform_scaling,
    degrade_lo_tasks,
    shorten_hi_deadlines,
    terminate_lo_tasks,
)
from repro.api import (
    AnalysisReport,
    AnalysisRequest,
    ResultCache,
    WorkQueueCore,
    analyze,
    analyze_many,
    load_report,
    load_taskset,
    save_report,
    save_taskset,
)

__version__ = "3.0.0"

__all__ = [
    "Criticality",
    "MCTask",
    "TaskSet",
    "apply_uniform_scaling",
    "degrade_lo_tasks",
    "shorten_hi_deadlines",
    "terminate_lo_tasks",
    "AnalysisReport",
    "AnalysisRequest",
    "ResultCache",
    "WorkQueueCore",
    "analyze",
    "analyze_many",
    "load_report",
    "load_taskset",
    "save_report",
    "save_taskset",
    "api",
    "__version__",
]
