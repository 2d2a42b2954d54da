"""The work-queue core: the one public batch entry point.

:class:`WorkQueueCore` is the long-lived object every batch caller runs
through — :func:`repro.api.analyze_many`, ``repro-mc batch``, the HTTP
service, the figure sweeps and the chaos harness.  It builds one
:class:`~repro.pipeline.runner.BatchRunner` executor from its resource
arguments and runs every submission on it, so the content-addressed
:class:`~repro.pipeline.cache.ResultCache`, the
:class:`~repro.pipeline.runner.PersistentPool` of worker processes, the
:class:`~repro.pipeline.fault_tolerance.RetryPolicy`, the quarantine
sink and the :class:`~repro.obs.metrics.MetricsRegistry` exist once per
core (read them through :attr:`WorkQueueCore.runner`).  Close the core,
or use it as a context manager, to release the pool's workers.

Two client shapes:

* **Synchronous** (the CLI, :func:`~repro.api.analyze_many`):
  :meth:`WorkQueueCore.run` executes the submission in the calling
  thread — signal handlers stay installable (main thread only),
  ``BatchAborted`` propagates for the resume-hint path, and per-run
  checkpoint/resume/progress arguments apply directly.
* **Asynchronous** (the HTTP service): :meth:`WorkQueueCore.submit`
  enqueues the submission and returns a :class:`JobHandle`
  immediately; a single dispatcher thread drains the queue FIFO, so
  submissions never race each other over the shared pool and the
  global accounting stays exactly-once.

A settled job keeps the report payloads the executor returned — the
encoding the cache, the checkpoint and the wire share.  They are
decoded into reports only for a caller that asks for reports
(:meth:`WorkQueueCore.run`, :meth:`JobHandle.result`); the service
sends :meth:`JobHandle.payloads` as they are.

Both paths **coalesce duplicate work** at two levels:

* *job level* — a submission's identity is the SHA-256 over its ordered
  request keys (:func:`job_fingerprint`).  Submitting a byte-identical
  job while the first is queued, running, or still in the bounded
  completed-job registry returns the *same* :class:`JobHandle` — the
  same job id over the wire — and executes nothing.
* *request level* — distinct jobs that share individual request keys
  settle the overlap from the shared cache (``cache_hits``) or as
  within-job duplicates (``deduplicated``); only genuinely new keys are
  computed.

Per-job stats reconcile exactly (``computed + cache_hits + resumed +
deduplicated + quarantined == total``) and the core's global tally is
their :meth:`~repro.pipeline.runner.BatchStats.__add__` sum — each item
is charged to exactly one executed job, and coalesced submissions are
counted separately (:attr:`WorkQueueCore.jobs_coalesced`), never folded
into batch accounting, so the invariant holds globally as well.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.pipeline.cache import ResultCache
from repro.pipeline.fault_tolerance import (
    CheckpointIO,
    FaultStats,
    InjectionSpec,
    RetryPolicy,
)
from repro.pipeline.payload import ReportPayload
from repro.pipeline.request import AnalysisReport, AnalysisRequest
from repro.pipeline.runner import BatchRunner, BatchStats, ProgressCallback

PathLike = Union[str, Path]

#: States a job moves through: ``queued`` (accepted, not yet picked up
#: by the dispatcher), ``running`` (executing on the shared pool),
#: ``done`` (payloads available) and ``error`` (the run itself failed —
#: infrastructure declared dead or the submission was aborted; per-item
#: analysis failures are *not* job errors, they are failure reports).
JOB_STATES = ("queued", "running", "done", "error")

#: Completed jobs kept for duplicate-submission dedup and result
#: retrieval before eviction (oldest-first).
DEFAULT_COMPLETED_CAPACITY = 1024


def job_fingerprint(requests: Sequence[AnalysisRequest]) -> str:
    """Content address of a submission: SHA-256 over its ordered request keys.

    Request keys are themselves content hashes (task set + options,
    ``FINGERPRINT_VERSION`` 2), so two submissions carrying the same
    task sets with the same options in the same order get the same job
    id — the property the service's dedup/coalescing relies on.
    """
    digest = hashlib.sha256()
    digest.update(
        json.dumps([request.key for request in requests]).encode("ascii")
    )
    return digest.hexdigest()


class JobHandle:
    """Observable state of one submitted job.

    Written by the dispatcher thread, read from any other thread (the
    service's event loop, a CLI progress line): plain attribute writes
    are ordered before the terminal :meth:`wait` event is set, so a
    reader that observed :meth:`is_done` always sees the final payloads
    and stats.
    """

    def __init__(self, job_id: str, total: int) -> None:
        self.job_id = job_id
        self.total = total
        self.state: str = "queued"
        self.done_count: int = 0
        #: Duplicate submissions that coalesced onto this job.
        self.coalesced: int = 0
        self.stats: Optional[BatchStats] = None
        self.error: Optional[str] = None
        self._payloads: Optional[List[ReportPayload]] = None
        self._event = threading.Event()
        self._callback_lock = threading.Lock()
        self._callbacks: List[Callable[[], None]] = []

    def is_done(self) -> bool:
        """True once the job settled (successfully or not)."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job settles; False on timeout."""
        return self._event.wait(timeout)

    def add_done_callback(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the job settles.

        Fires immediately (in the calling thread) when the job already
        settled, otherwise from the thread that settles it — the bridge
        an event loop uses (``loop.call_soon_threadsafe``) to await a
        job without polling.
        """
        with self._callback_lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback()

    def _finish(self) -> None:
        """Mark the job settled and fire the registered callbacks."""
        self._event.set()
        with self._callback_lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback()

    def payloads(self) -> List[ReportPayload]:
        """The settled report payloads (raises until :meth:`is_done`)."""
        if not self._event.is_set():
            raise RuntimeError(f"job {self.job_id} has not settled yet")
        if self._payloads is None:
            raise RuntimeError(f"job {self.job_id} failed: {self.error}")
        return self._payloads

    def result(self) -> List[AnalysisReport]:
        """The settled reports, decoded from their payloads on each call."""
        return [AnalysisReport.from_dict(payload) for payload in self.payloads()]


@dataclass
class _Submission:
    """One queued unit of work: a handle plus its per-run options."""

    handle: JobHandle
    requests: List[AnalysisRequest]
    checkpoint: Optional[PathLike]
    resume: bool
    progress: Optional[ProgressCallback]


class WorkQueueCore:
    """Long-lived submission queue over one batch executor.

    The resource arguments (``jobs``, ``cache``, ``retry``,
    ``quarantine``, ``metrics``, ``chunk_size``, ``io``, ``injection``)
    build the core's one :class:`~repro.pipeline.runner.BatchRunner`,
    :attr:`runner`; per-run options (checkpoint, resume, progress)
    travel with each submission instead.

    The core is thread-safe: ``submit`` may be called from any thread,
    and one dispatcher thread executes submissions FIFO on the runner.
    :meth:`run` is the synchronous client path and serialises against
    the dispatcher through the same execution lock.  :meth:`close` (or
    leaving a ``with`` block) shuts the runner's worker pool.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Union[ResultCache, PathLike, None] = None,
        retry: Optional[RetryPolicy] = None,
        quarantine: Optional[PathLike] = None,
        metrics: Optional[MetricsRegistry] = None,
        chunk_size: Optional[int] = None,
        io: Optional[CheckpointIO] = None,
        injection: Optional[InjectionSpec] = None,
        completed_capacity: int = DEFAULT_COMPLETED_CAPACITY,
    ) -> None:
        if completed_capacity < 1:
            raise ValueError(
                f"completed_capacity must be >= 1, got {completed_capacity}"
            )
        #: The one executor every submission runs on; it owns the cache,
        #: the worker pool, the retry policy and the metrics registry.
        self.runner = BatchRunner(
            jobs=jobs,
            cache=cache,
            chunk_size=chunk_size,
            metrics=metrics,
            retry=retry if retry is not None else RetryPolicy(),
            quarantine=quarantine,
            io=io if io is not None else CheckpointIO(),
            injection=injection,
        )
        #: Executed submissions (coalesced duplicates excluded).
        self.jobs_executed = 0
        #: Submissions answered by an existing queued/running/completed job.
        self.jobs_coalesced = 0
        self._stats = BatchStats()
        self._faults = FaultStats()
        self._registry_lock = threading.Lock()
        self._exec_lock = threading.Lock()
        self._active: Dict[str, JobHandle] = {}
        self._completed: "OrderedDict[str, JobHandle]" = OrderedDict()
        self._completed_capacity = completed_capacity
        self._queue: "queue.SimpleQueue[Optional[_Submission]]" = queue.SimpleQueue()
        self._dispatcher: Optional[threading.Thread] = None
        self._closed = False

    def __enter__(self) -> "WorkQueueCore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    @property
    def stats(self) -> BatchStats:
        """Global exactly-once tally: the ``+``-sum of every executed job."""
        return self._stats

    @property
    def faults(self) -> FaultStats:
        """Fault-handling counters summed over every executed job."""
        return self._faults

    def active_count(self) -> int:
        """Jobs currently queued or running (coalesced targets included once)."""
        with self._registry_lock:
            return len(self._active)

    def get_job(self, job_id: str) -> Optional[JobHandle]:
        """Look a job up by id in the active set or the completed registry."""
        with self._registry_lock:
            handle = self._active.get(job_id)
            if handle is None:
                handle = self._completed.get(job_id)
            return handle

    def alive(self) -> bool:
        """Liveness probe: dispatcher (if started) and pool are healthy."""
        if self._closed:
            return False
        dispatcher = self._dispatcher
        if dispatcher is not None and not dispatcher.is_alive():
            return False
        pool = self.runner.pool
        return pool is None or pool.alive()

    # ------------------------------------------------------------------
    # Submission paths
    # ------------------------------------------------------------------
    def submit(
        self,
        requests: Sequence[AnalysisRequest],
        *,
        checkpoint: Optional[PathLike] = None,
        resume: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> Tuple[JobHandle, bool]:
        """Enqueue a job; returns ``(handle, coalesced)`` immediately.

        ``coalesced`` is True when an identical job (same
        :func:`job_fingerprint`) was already queued, running, or still
        in the completed registry — the existing handle is returned and
        nothing is executed or re-counted.  Per-run options
        (``checkpoint``/``resume``/``progress``) apply only when this
        call actually creates the job.
        """
        items = list(requests)
        handle, coalesced = self._register(items, queued=True)
        if not coalesced:
            self._queue.put(
                _Submission(handle, items, checkpoint, resume, progress)
            )
        return handle, coalesced

    def run(
        self,
        requests: Sequence[AnalysisRequest],
        *,
        checkpoint: Optional[PathLike] = None,
        resume: bool = False,
        progress: Optional[ProgressCallback] = None,
        install_signal_handlers: bool = True,
    ) -> List[AnalysisReport]:
        """Execute a submission synchronously in the calling thread.

        This is the CLI client: signal handlers can be installed (main
        thread), :class:`~repro.pipeline.fault_tolerance.BatchAborted`
        propagates so the caller can print the resume command, and the
        reports come back in request order.  Duplicate submissions
        coalesce exactly as in :meth:`submit` (an identical in-flight
        job is awaited, a completed one answers from the registry).
        """
        items = list(requests)
        handle, coalesced = self._register(items, queued=False)
        if coalesced:
            handle.wait()
        else:
            self._execute(
                _Submission(handle, items, checkpoint, resume, progress),
                install_signal_handlers=install_signal_handlers,
            )
        return handle.result()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Drain queued submissions, stop the dispatcher, shut the pool.

        New submissions are rejected from the moment ``close`` is
        called; work already in the queue still executes (the stop
        sentinel sits behind it, FIFO), which is the graceful-drain
        contract the service's SIGTERM path relies on.
        """
        with self._registry_lock:
            already_closed = self._closed
            self._closed = True
            dispatcher = self._dispatcher
        if not already_closed and dispatcher is not None:
            self._queue.put(None)
            dispatcher.join(timeout)
        self.runner.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _register(
        self, items: List[AnalysisRequest], *, queued: bool
    ) -> Tuple[JobHandle, bool]:
        """Admit a submission: ``(handle, coalesced)``.

        Fingerprints the job, rejects it once the core is closed, and
        either coalesces it onto an existing job or creates its handle
        (starting the dispatcher for a ``queued`` one).
        """
        job_id = job_fingerprint(items)
        with self._registry_lock:
            if self._closed:
                raise RuntimeError("work-queue core is closed")
            existing = self._lookup_locked(job_id)
            if existing is not None:
                existing.coalesced += 1
                self.jobs_coalesced += 1
                return existing, True
            handle = JobHandle(job_id, total=len(items))
            self._active[job_id] = handle
            if queued:
                self._ensure_dispatcher_locked()
        return handle, False

    def _lookup_locked(self, job_id: str) -> Optional[JobHandle]:
        """Find an existing job by id; refreshes completed-registry LRU."""
        handle = self._active.get(job_id)
        if handle is not None:
            return handle
        done = self._completed.get(job_id)
        if done is not None:
            self._completed.move_to_end(job_id)
        return done

    def _ensure_dispatcher_locked(self) -> None:
        if self._dispatcher is None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="workqueue-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        while True:
            submission = self._queue.get()
            if submission is None:
                return
            try:
                self._execute(submission)
            except Exception:
                # Recorded on the handle by _settle; the dispatcher must
                # outlive any single job, else the queue starves.
                pass

    def _execute(
        self, submission: _Submission, *, install_signal_handlers: bool = False
    ) -> None:
        handle = submission.handle
        client_progress = submission.progress

        def progress(done: int, total: int) -> None:
            handle.done_count = done
            if client_progress is not None:
                client_progress(done, total)

        with self._exec_lock:
            handle.state = "running"
            try:
                payloads = self.runner.run(
                    submission.requests,
                    checkpoint=submission.checkpoint,
                    resume=submission.resume,
                    progress=progress,
                    install_signal_handlers=install_signal_handlers,
                )
            except BaseException as error:
                self._settle(handle, None, error)
                raise
            self._settle(handle, payloads, None)

    def _settle(
        self,
        handle: JobHandle,
        payloads: Optional[List[ReportPayload]],
        error: Optional[BaseException],
    ) -> None:
        runner = self.runner
        with self._registry_lock:
            self._stats = self._stats + runner.stats
            for name, value in runner.faults.to_dict().items():
                setattr(self._faults, name, getattr(self._faults, name) + value)
            self.jobs_executed += 1
            handle.stats = runner.stats
            self._active.pop(handle.job_id, None)
            if error is None:
                handle._payloads = payloads
                handle.state = "done"
                # Only successful jobs join the dedup registry: a job
                # that died to infrastructure (or was aborted) is
                # transient, and a resubmission must retry it rather
                # than coalesce onto the stale failure.
                self._completed[handle.job_id] = handle
                self._completed.move_to_end(handle.job_id)
                while len(self._completed) > self._completed_capacity:
                    self._completed.popitem(last=False)
            else:
                handle.error = f"{type(error).__name__}: {error}"
                handle.state = "error"
        handle._finish()
