"""Batched, parallel, fault-tolerant analysis pipeline.

The pipeline turns the per-taskset analyses of :mod:`repro.analysis`
into a population-scale engine:

* :mod:`repro.pipeline.request` — :class:`AnalysisRequest` /
  :class:`AnalysisReport` bundle one task set plus every knob and every
  verdict; :func:`evaluate_request` is the pure taskset→verdict
  function.
* :mod:`repro.pipeline.cache` — content-addressed
  :class:`ResultCache` keyed by a canonical task-set hash, with
  checksummed disk entries (corruption degrades to a miss).
* :mod:`repro.pipeline.runner` — :class:`BatchRunner`: process-pool
  fan-out with chunking, per-item error capture, progress callbacks,
  durable JSONL checkpoint/resume, retry/watchdog/pool-rebuild fault
  handling and poison-item quarantine.
* :mod:`repro.pipeline.core` — :class:`WorkQueueCore`: the long-lived
  work-queue over the runner machinery that the CLI batch path and the
  analysis service (:mod:`repro.service`) share — submission queue,
  persistent supervised pool, job-level dedup/coalescing and a global
  exactly-once stats tally.
* :mod:`repro.pipeline.fault_tolerance` — the fault-handling
  primitives: :class:`RetryPolicy`, CRC-wrapped durable lines, the
  injectable :class:`CheckpointIO` seam, :class:`Quarantine`,
  :class:`GracefulShutdown` / :class:`BatchAborted` and the
  deterministic :class:`InjectionSpec` fault-injection hooks.
* :mod:`repro.pipeline.chaos` — the seeded chaos harness that proves
  the above by injecting worker kills, hangs, fork crashes and storage
  corruption into real batch runs and asserting exactly-once
  accounting plus byte-identical reports.

Most callers want :func:`repro.api.analyze` /
:func:`repro.api.analyze_many` rather than this package directly.
"""

from repro.pipeline.core import (
    JobHandle,
    WorkQueueCore,
    job_fingerprint,
)
from repro.pipeline.cache import (
    ResultCache,
    canonical_taskset_payload,
    request_fingerprint,
    taskset_fingerprint,
)
from repro.pipeline.fault_tolerance import (
    BatchAborted,
    CheckpointIO,
    FaultStats,
    InjectionSpec,
    Quarantine,
    RetryPolicy,
    decode_durable_line,
    encode_durable_line,
    load_quarantine,
)
from repro.pipeline.request import (
    AnalysisFailure,
    AnalysisReport,
    AnalysisRequest,
    evaluate_captured,
    evaluate_request,
)
from repro.pipeline.runner import (
    BatchRunner,
    BatchStats,
    PersistentPool,
    run_batch,
)

__all__ = [
    "AnalysisFailure",
    "AnalysisReport",
    "AnalysisRequest",
    "BatchAborted",
    "BatchRunner",
    "BatchStats",
    "CheckpointIO",
    "FaultStats",
    "InjectionSpec",
    "JobHandle",
    "PersistentPool",
    "Quarantine",
    "ResultCache",
    "RetryPolicy",
    "WorkQueueCore",
    "canonical_taskset_payload",
    "decode_durable_line",
    "encode_durable_line",
    "evaluate_captured",
    "evaluate_request",
    "job_fingerprint",
    "load_quarantine",
    "request_fingerprint",
    "run_batch",
    "taskset_fingerprint",
]
