"""Batched, parallel, fault-tolerant execution of analysis requests.

:class:`BatchRunner` is the executor behind
:class:`~repro.pipeline.core.WorkQueueCore`, the one public batch entry
point.  It fans a population of
:class:`~repro.pipeline.request.AnalysisRequest` items over a
``concurrent.futures.ProcessPoolExecutor`` (or runs them inline for
``jobs=1``, for one item, and for one group of a run-scoped pool) with

* **grouping** — pending requests are cut into groups of at most
  :data:`GROUP_SIZE` whose boundaries depend only on the pending list,
  never on ``jobs``; every group of two or more requests is evaluated
  stage-major through the fused population scans
  (:func:`~repro.pipeline.grouping.evaluate_chunk_grouped`), inline or
  in a worker, and the pool ships one group per chunk;
* **right-sized dispatch** — a kept pool has ``jobs`` warm workers and
  a caller that only dispatches; a run-scoped pool (``keep_pool=False``)
  forks only the workers its run can use, and the calling process may
  evaluate the last group (:meth:`BatchRunner._workers`);
* **content-addressed caching** — results land in a
  :class:`~repro.pipeline.cache.ResultCache` under the request key, so
  re-running a sweep (or sharing task sets between sweeps) recomputes
  nothing; a corrupt cache entry degrades to a miss, never a crash;
* **error capture** — an :class:`~repro.analysis.budget.
  AnalysisBudgetExceeded` or a degenerate task set becomes a structured
  failure record on that item's report, never a crashed sweep;
* **infrastructure fault tolerance** — the run survives its own
  machinery failing (see :mod:`repro.pipeline.fault_tolerance`):

  - a dead worker or broken pool rebuilds the pool and requeues
    in-flight items exactly once per break, with bounded, seeded
    exponential backoff (:class:`~repro.pipeline.fault_tolerance.
    RetryPolicy`, overridable per request);
  - a hung worker is killed by a wall-clock watchdog
    (``retry.timeout`` seconds per item) and its chunk retried;
  - an item that keeps breaking the pool is escalated to *solitary*
    execution (run alone, so collateral chunks stop paying for it) and,
    after exhausting its attempts, lands in a structured
    ``quarantine.jsonl`` with its attempt history — the batch finishes;
  - checkpoint/cache IO errors are retried and then degrade
    (checkpointing disables itself, a cache write is skipped) rather
    than abort the run;
* **durable checkpoint/resume** — every settled item is appended to a
  JSONL checkpoint as a CRC-wrapped line, flushed *and fsynced* once per
  settled group (its results arrive together).  Lines are appended in
  group order at any ``jobs``: a pool's group that settles early is held
  until every earlier group is appended, so the file's bytes do not
  depend on ``jobs``, and a process kill at any byte offset loses at
  most the groups not yet appended.  On resume, torn tails
  and corrupt lines are detected (CRC) and treated as "recompute";
  duplicate keys resolve last-wins; infrastructure failures (worker
  death, quarantine) are transient, not verdicts, and are recomputed.
  The file is truncated on a non-resume run and compacted atomically on
  resume;
* **graceful shutdown** — SIGINT/SIGTERM stop scheduling, flush the
  checkpoint and metrics, and raise :class:`~repro.pipeline.
  fault_tolerance.BatchAborted` carrying the resume path — an
  interrupted sweep is a resumable sweep, not a traceback;
* **observability** — pass a :class:`~repro.obs.metrics.MetricsRegistry`
  to collect one unified snapshot of batch statistics, cache hit/miss
  totals, kernel perf counters, per-worker chunk timings and the
  fault-handling counters (``faults.*``: retries, timeouts, pool
  rebuilds, corruption detections — all zero on an undisturbed run).

The evaluation itself (:func:`~repro.pipeline.request.analysis_steps`,
driven per item or per group) is deterministic and order-independent,
and the groups are the same at any job count, so ``jobs=1`` and ``jobs=N``
produce byte-identical reports, counters and trace content — the
property the pipeline test suite pins down, and which the chaos harness
(:mod:`repro.pipeline.chaos`) extends to "byte-identical *under injected
infrastructure faults*".
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.cache import ResultCache, open_cache
from repro.pipeline.fault_tolerance import (
    BatchAborted,
    CheckpointIO,
    DurableAppender,
    FaultStats,
    GracefulShutdown,
    InjectionSpec,
    Quarantine,
    RetryPolicy,
    chaos_pool_initializer,
    decode_durable_line,
    encode_durable_line,
    maybe_inject,
)
from repro.pipeline.grouping import evaluate_chunk_grouped
from repro.pipeline.payload import (
    AttemptRecord,
    CheckpointEntry,
    ReportPayload,
    WorkerMeta,
)
from repro.pipeline.request import (
    AnalysisFailure,
    AnalysisReport,
    AnalysisRequest,
    evaluate_captured,
)

PathLike = Union[str, Path]
ProgressCallback = Callable[[int, int], None]
ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Version stamped into every checkpoint entry.  Version 2 entries are
#: CRC-wrapped durable lines; version 1 (pre-CRC) lines fail the CRC
#: check on resume and are recomputed.  Unknown versions are skipped
#: rather than misinterpreted.
CHECKPOINT_VERSION = 2

#: Checkpoint entry versions accepted on resume.
_RESUMABLE_VERSIONS = frozenset({CHECKPOINT_VERSION})

#: Fixed slack added to a chunk's wall-clock deadline on top of
#: ``timeout * items``: absorbs fork/pickle/dispatch latency so the
#: watchdog measures the work, not the plumbing.
_TIMEOUT_GRACE = 0.5

#: Pool breaks with an unidentified culprit before an item is run in
#: solitary (alone in the pool, so the next break convicts it).
_SUSPECT_THRESHOLD = 2

#: Consecutive pool rebuilds without a single settled chunk before the
#: infrastructure itself is declared dead (not an item's fault).
_MAX_CONSECUTIVE_REBUILDS = 16

#: Upper bound on any single watchdog wait, so signal drain requests
#: and backoff expiries are noticed promptly.
_MAX_POLL_SECONDS = 0.5

#: Most requests per evaluation group (and per pool chunk) unless the
#: runner's ``chunk_size`` overrides it.  Chosen by measurement on
#: Figure-6 sets (DESIGN.md §9.1): larger groups amortise more kernel
#: dispatch per stage, smaller ones balance a pool better.
GROUP_SIZE = 64


#: Failure stages that describe the batch machinery rather than the
#: analysis verdict.  They are transient: resume recomputes them and
#: checkpoint compaction drops them.
INFRASTRUCTURE_STAGES = frozenset({"worker", "quarantine"})


def _is_infrastructure_failure(payload: ReportPayload) -> bool:
    """True when a report payload records a transient machinery failure."""
    failure = payload.get("failure")
    return failure is not None and failure["stage"] in INFRASTRUCTURE_STAGES


def _evaluate_group(requests: Sequence[AnalysisRequest]) -> List[AnalysisReport]:
    """Evaluate one group: a lone request per item, two or more fused.

    Reports are byte-identical either way; a singleton keeps the per-set
    scans, which cost a half to a third of a one-member lockstep.
    """
    if len(requests) == 1:
        return [evaluate_captured(requests[0])]
    return evaluate_chunk_grouped(requests)


def _cut(items: Sequence[ItemT], size: int) -> List[List[ItemT]]:
    """Cut ``items`` into ``ceil(len / size)`` near-equal runs, in order.

    The boundaries depend only on ``len(items)`` and ``size`` — never on
    the job count — so inline and pooled runs evaluate the same groups.
    """
    count = math.ceil(len(items) / size)
    return [
        list(items[(i * len(items)) // count : ((i + 1) * len(items)) // count])
        for i in range(count)
    ]


class _GroupOrder:
    """Append checkpoint entries in group order, each group's in item order.

    A pool settles groups in completion order (and an item requeued or
    quarantined after a failure on its own), and a caller that evaluates
    the last group settles it before the workers' groups; each entry is
    held until its group and every earlier one have settled.  The inline
    path settles groups in order, so nothing waits there, and all of them
    write the same bytes.
    """

    def __init__(self, appender: DurableAppender, groups: Sequence[Sequence[str]]) -> None:
        self.appender = appender
        self.place = {
            key: (group, slot)
            for group, keys in enumerate(groups)
            for slot, key in enumerate(keys)
        }
        self.held: List[List[Optional[CheckpointEntry]]] = [[None] * len(keys) for keys in groups]
        self.left = [len(keys) for keys in groups]  # entries still to settle
        self.next = 0

    def append(self, key: str, entry: CheckpointEntry) -> None:
        group, slot = self.place[key]
        self.held[group][slot] = entry
        self.left[group] -= 1
        while self.next < len(self.left) and not self.left[self.next]:
            self.flush(self.next + 1)

    def flush(self, end: Optional[int] = None) -> None:
        """Append what is held up to group ``end`` (every group, for a run
        cut short), in group order."""
        for held in self.held[self.next : end]:
            for entry in held:
                if entry is not None:
                    self.appender.append(entry)
            held.clear()
        self.next = len(self.held) if end is None else end


#: One unit of pool work: (slot within the chunk, request key, request).
_ChunkItem = Tuple[int, str, AnalysisRequest]


def _kill_executor(executor: ProcessPoolExecutor) -> None:
    """Terminate a pool *now*, including hung workers.

    ``shutdown`` alone would join workers, which never returns while
    one is stuck in an injected (or real) infinite stall — so the
    worker processes are killed first.  ``_processes`` is internal
    to ``ProcessPoolExecutor`` but has been stable across supported
    versions; when absent the shutdown below still detaches us.
    """
    processes = getattr(executor, "_processes", None)
    if processes:
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except (OSError, RuntimeError):
        pass


class PersistentPool:
    """A supervised worker pool that outlives a single ``run()`` call.

    Every parallel :class:`BatchRunner` run executes through the one its
    executor owns, so a work-queue core's submissions do not pay the
    fork/spawn cost each time.  A ``PersistentPool`` owns the
    ``ProcessPoolExecutor``:

    * :meth:`acquire` lazily creates the pool (and recreates it after a
      :meth:`discard`); with the fork start method the executor forks
      all ``jobs`` workers at the first submit;
    * :meth:`discard` kills a broken or hung pool — the supervised run
      calls it on every break (rebuild, requeue, quarantine);
    * :meth:`close` shuts the pool down and releases its workers.

    An executor built with ``keep_pool=False`` gives each parallel run a
    pool of its own, with as many workers as the run sends groups to, and
    closes it when the run ends.

    The pool itself is not thread-safe; the work-queue core serialises
    runs over it (one executing submission at a time — parallelism comes
    from the worker processes, not from concurrent runs).
    """

    def __init__(
        self, jobs: int, injection: Optional[InjectionSpec] = None
    ) -> None:
        self.jobs = jobs
        self.injection = injection
        self.created = 0  #: executors built over the lifetime
        self._executor: Optional[ProcessPoolExecutor] = None

    def acquire(self) -> ProcessPoolExecutor:
        """The live executor, building one if necessary."""
        if self._executor is None:
            if self.injection is not None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=chaos_pool_initializer,
                    initargs=(self.injection,),
                )
            else:
                self._executor = ProcessPoolExecutor(max_workers=self.jobs)
            self.created += 1
        return self._executor

    def discard(self, executor: ProcessPoolExecutor) -> None:
        """Kill a broken executor and forget it (next acquire rebuilds)."""
        _kill_executor(executor)
        if executor is self._executor:
            self._executor = None

    def alive(self) -> bool:
        """False only when the held executor is marked broken.

        A pool that has not been built yet is healthy by definition —
        the next :meth:`acquire` will create it.
        """
        executor = self._executor
        return executor is None or not bool(getattr(executor, "_broken", False))

    def close(self) -> None:
        """Shut the executor down and release its workers."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def _worker_chunk(
    chunk: Sequence[_ChunkItem],
    trace_enabled: bool = False,
    injection: Optional[InjectionSpec] = None,
) -> Tuple[List[Tuple[int, ReportPayload]], WorkerMeta]:
    """Process-pool entry point: evaluate a chunk, return JSON payloads.

    Workers hand back plain dictionaries (the ``to_dict`` encoding), the
    same currency the cache and checkpoint use, so nothing
    analysis-specific ever crosses the process boundary on the way out.
    Alongside the results travels a metadata dict with the worker's
    kernel perf-counter delta for the chunk (kernel counters are per
    process and forked workers inherit the parent's totals, hence the
    delta), the chunk wall time, and — when the parent had tracing on —
    the span records the chunk produced.

    ``injection`` is the chaos harness's deterministic fault seam: when
    armed, an item can SIGKILL its own worker or hang it before any
    evaluation runs (:func:`~repro.pipeline.fault_tolerance.
    maybe_inject`).  Every item is checked before the chunk evaluates,
    because a group's items evaluate together (:func:`_evaluate_group`).
    """
    from repro.analysis.kernels import PERF

    if trace_enabled:
        trace.enable()
        trace.drain()  # discard records inherited from the parent via fork
    perf_before = PERF.snapshot()
    t0 = time.perf_counter()
    for _slot, key, _request in chunk:
        maybe_inject(injection, key)
    reports = _evaluate_group([request for _, _, request in chunk])
    results = [
        (slot, report.to_dict()) for (slot, _, _), report in zip(chunk, reports)
    ]
    meta: WorkerMeta = {
        "pid": os.getpid(),
        "items": len(chunk),
        "seconds": time.perf_counter() - t0,
        "perf": PERF.delta_since(perf_before),
        "spans": trace.drain() if trace_enabled else [],
    }
    return results, meta


@dataclass
class BatchStats:
    """Bookkeeping for one :meth:`BatchRunner.run` call.

    The settle paths reconcile exactly:
    ``computed + cache_hits + resumed + deduplicated + quarantined ==
    total`` — the exactly-once accounting invariant the chaos harness
    asserts under every injected fault family.

    Instances merge with ``+``: a work-queue core serving many
    submissions aggregates per-job stats into a global tally, and the
    invariant is preserved by the merge (each term is additive and every
    item is settled by exactly one job).
    """

    total: int = 0
    computed: int = 0
    cache_hits: int = 0
    resumed: int = 0
    deduplicated: int = 0
    quarantined: int = 0
    failures: int = 0

    def __add__(self, other: "BatchStats") -> "BatchStats":
        """Field-wise merge of two per-run tallies.

        Because every settled item is counted by exactly one run (the
        core never executes the same submission twice — duplicates
        coalesce onto one job), the merged stats satisfy the same
        exactly-once invariant the per-run stats do.
        """
        return BatchStats(
            total=self.total + other.total,
            computed=self.computed + other.computed,
            cache_hits=self.cache_hits + other.cache_hits,
            resumed=self.resumed + other.resumed,
            deduplicated=self.deduplicated + other.deduplicated,
            quarantined=self.quarantined + other.quarantined,
            failures=self.failures + other.failures,
        )

    def reconciles(self) -> bool:
        """True when the exactly-once accounting invariant holds."""
        return self.settled() == self.total

    def to_dict(self) -> Dict[str, int]:
        return {
            "total": self.total,
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "deduplicated": self.deduplicated,
            "quarantined": self.quarantined,
            "failures": self.failures,
        }

    def settled(self) -> int:
        """Items accounted for so far (the left side of the invariant)."""
        return (
            self.computed
            + self.cache_hits
            + self.resumed
            + self.deduplicated
            + self.quarantined
        )


@dataclass
class _Tracked:
    """Parent-side state of one pending unique key in the pool path."""

    key: str
    request: AnalysisRequest
    policy: RetryPolicy
    attempts: List[AttemptRecord] = field(default_factory=list)
    counted: int = 0  # attempts charged toward quarantine
    suspect_breaks: int = 0  # pool breaks with this item in flight, culprit unknown
    solitary: bool = False

    def record(self, stage: str, error: Optional[BaseException], counted: bool) -> None:
        self.attempts.append(
            {
                "attempt": len(self.attempts) + 1,
                "stage": stage,
                "error_type": type(error).__name__ if error is not None else stage,
                "message": str(error) if error is not None else stage,
            }
        )
        if counted:
            self.counted += 1

    def exhausted(self) -> bool:
        return self.counted >= self.policy.max_attempts


@dataclass
class _Flight:
    """One submitted chunk: its items and (optional) watchdog deadline."""

    chunk: List[_Tracked]
    deadline: Optional[float]
    solitary: bool


@dataclass
class BatchRunner:
    """The batch executor: runs analysis requests inline or over a pool.

    Internal to :class:`~repro.pipeline.core.WorkQueueCore`, which builds
    one per core and runs every submission on it; callers go through the
    core (or :func:`repro.api.analyze_many`).  The executor holds each
    cross-run resource once: it opens the cache, validates ``jobs`` and
    ``chunk_size``, and owns the :class:`PersistentPool` its parallel
    runs share until :meth:`close`.

    Parameters
    ----------
    jobs:
        Most worker processes; ``1`` (default) runs inline with no pool —
        every path produces identical reports.  A run of two or more
        items goes to a pool of ``jobs`` workers, unless ``keep_pool``
        is off.
    cache:
        Optional :class:`ResultCache`, or a directory path that opens one
        at construction; hits skip evaluation entirely.  Corrupt entries
        degrade to misses; failed writes are retried under ``retry`` and
        then skipped.
    chunk_size:
        Most requests per group (default :data:`GROUP_SIZE`).  The
        pending requests are cut into ``ceil(pending / chunk_size)``
        near-equal groups, the same at any ``jobs``; a group of two or
        more evaluates through the fused population scans, a singleton
        per item.  The pool ships one group per chunk.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; each run
        folds in batch stats, cache totals, kernel perf deltas (summed
        across workers), per-worker chunk timings and fault counters.
    retry:
        Executor-wide :class:`~repro.pipeline.fault_tolerance.RetryPolicy`
        (attempt budget, backoff, per-item watchdog timeout) for
        infrastructure failures; ``request.retry`` overrides it per
        item.
    quarantine:
        Optional JSONL path: items that exhaust their attempts are
        recorded there (with full attempt history) and settle as
        ``stage="quarantine"`` failure reports instead of aborting the
        batch.  Without a path, quarantining still happens — only the
        forensic file is skipped.
    io:
        Injectable filesystem seam for the durable writes (checkpoint,
        quarantine); the chaos harness substitutes a failing one.
    injection:
        Deterministic worker-fault injection spec (chaos/testing only).
    keep_pool:
        Keep the worker pool warm between runs (default) until
        :meth:`close`.  Off, for a core that runs once (as
        :func:`repro.api.analyze_many` and ``repro-mc batch`` build),
        each parallel run forks a pool of only the workers it can use
        (see :meth:`_workers`) and closes it when the run ends.

    ``stats`` and ``faults`` describe the latest :meth:`run`; each run
    starts them afresh.
    """

    jobs: int = 1
    cache: Union[ResultCache, PathLike, None] = None
    chunk_size: Optional[int] = None
    metrics: Optional[MetricsRegistry] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    quarantine: Optional[PathLike] = None
    io: CheckpointIO = field(default_factory=CheckpointIO)
    injection: Optional[InjectionSpec] = None
    keep_pool: bool = True
    stats: BatchStats = field(init=False, default_factory=BatchStats)
    faults: FaultStats = field(init=False, default_factory=FaultStats)
    #: The worker pool of the parallel runs; built at the first one (at
    #: each one without ``keep_pool``).
    pool: Optional[PersistentPool] = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        self.cache = open_cache(self.cache)

    def close(self) -> None:
        """Shut the worker pool down and release its workers."""
        if self.pool is not None:
            self.pool.close()

    def _result_cache(self) -> Optional[ResultCache]:
        """``cache``, which construction turned into a ``ResultCache``."""
        assert self.cache is None or isinstance(self.cache, ResultCache)
        return self.cache

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------
    def _load_checkpoint(self, path: Path) -> Dict[str, ReportPayload]:
        """Completed payloads by key; corruption-tolerant.

        Every line is CRC-verified (:func:`~repro.pipeline.
        fault_tolerance.decode_durable_line`); a torn tail, a flipped
        bit or a truncated line counts as corrupt and that item is
        simply recomputed.  Duplicate keys resolve last-wins (an
        append-mode file can hold a failed attempt followed by a later
        success).  Infrastructure failures — a worker died, an item was
        quarantined — are transient, not verdicts: they are dropped so
        resume retries those items against (hopefully) healthier
        machinery.
        """
        completed: Dict[str, ReportPayload] = {}
        if not path.exists():
            return completed
        try:
            text = self.io.read_text(path)
        except OSError:
            self.faults.checkpoint_io_errors += 1
            return completed
        for line in text.splitlines():
            if not line.strip():
                continue
            entry = decode_durable_line(line)
            if entry is None:
                self.faults.checkpoint_corrupt_lines += 1
                continue
            if entry.get("checkpoint_version") not in _RESUMABLE_VERSIONS:
                continue
            key = entry.get("key")
            report = entry.get("report")
            if not isinstance(key, str) or not isinstance(report, dict):
                self.faults.checkpoint_corrupt_lines += 1
                continue
            payload = cast(ReportPayload, report)
            if _is_infrastructure_failure(payload):
                completed.pop(key, None)
                continue
            completed[key] = payload
        return completed

    def _open_appender(
        self, path: Path, resume: bool, completed: Dict[str, ReportPayload]
    ) -> DurableAppender:
        """Open the durable checkpoint appender.

        Not resuming: truncate — stale entries from an unrelated earlier
        run must not leak into a later resume.  Resuming: rewrite the
        file as one compacted CRC line per surviving key (atomically,
        via a temp file) before reopening for append, so duplicates and
        infrastructure failures don't accumulate across interruptions.
        A failed compaction is not fatal: the appender falls back to
        plain append and last-wins resume absorbs the duplicates.
        """
        if resume and path.exists():
            lines = []
            # Canonical compaction order: the append order of the dying
            # file reflects jobs=N scheduling, so a key-sorted rewrite
            # keeps compacted checkpoints byte-identical across runs.
            for key, payload in sorted(completed.items()):
                entry: CheckpointEntry = {
                    "checkpoint_version": CHECKPOINT_VERSION,
                    "key": key,
                    "report": payload,
                }
                lines.append(encode_durable_line(entry))
            try:
                self.io.write_text_atomic(
                    path, "".join(line + "\n" for line in lines)
                )
            except OSError:
                self.faults.checkpoint_io_errors += 1
            return DurableAppender(path, io=self.io, policy=self.retry)
        return DurableAppender(path, io=self.io, policy=self.retry, truncate=True)

    # ------------------------------------------------------------------
    # Cache write with bounded retry
    # ------------------------------------------------------------------
    def _cache_put(self, key: str, payload: ReportPayload) -> None:
        """Store in the cache, retrying IO errors; a lost entry is not fatal."""
        cache = self._result_cache()
        if cache is None:
            return
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                cache.put(key, payload)
                return
            except OSError:
                self.faults.cache_io_errors += 1
                if attempt >= self.retry.max_attempts:
                    return  # cache is an optimisation: degrade, don't abort
                time.sleep(self.retry.delay(f"cache:{key}", attempt))

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def run(
        self,
        requests: Sequence[AnalysisRequest],
        *,
        checkpoint: Optional[PathLike] = None,
        resume: bool = False,
        progress: Optional[ProgressCallback] = None,
        install_signal_handlers: bool = True,
    ) -> List[ReportPayload]:
        """Evaluate every request; its report payloads in request order.

        The payloads are the ``to_dict`` encoding the cache, the
        checkpoint and the wire store, so nothing is decoded here.

        ``checkpoint`` is an optional JSONL path: every settled item is
        appended as a CRC-wrapped line, flushed and fsynced once per
        settled group, so a killed sweep loses at most the groups in
        flight.  ``resume`` loads it first and skips every request whose
        key is recorded there (corrupt or torn lines are recomputed).
        ``progress(done, total)`` is called after every settled item
        (cache hit, resumed, computed, quarantined or failed).
        ``install_signal_handlers`` traps SIGINT/SIGTERM for a graceful
        drain (main thread only): the first signal stops scheduling,
        flushes checkpoint and metrics, and raises :class:`~repro.
        pipeline.fault_tolerance.BatchAborted`; a second one kills the
        process.
        """
        from repro.analysis.kernels import PERF

        requests = list(requests)
        self.stats = BatchStats(total=len(requests))
        self.faults = FaultStats()
        path = Path(checkpoint) if checkpoint is not None else None
        payloads: List[Optional[ReportPayload]] = [None] * len(requests)

        perf_before = PERF.snapshot()
        cache = self._result_cache()
        cache_before = (
            (cache.hits, cache.misses, cache.corrupt, cache.io_errors)
            if cache is not None
            else (0, 0, 0, 0)
        )
        t_run = time.perf_counter()
        resumed = self._load_checkpoint(path) if resume and path is not None else {}

        # Settle cache/checkpoint hits and dedup the rest by key: a
        # population containing the same configured task set twice costs
        # one evaluation.  A failure payload counts as a failure however
        # it arrives — computed, cached, resumed or quarantined.
        pending: Dict[str, List[int]] = {}
        pending_request: Dict[str, AnalysisRequest] = {}
        for index, request in enumerate(requests):
            key = request.key
            payload = resumed.get(key)
            if payload is not None:
                payloads[index] = payload
                self.stats.resumed += 1
                if payload.get("failure") is not None:
                    self.stats.failures += 1
                continue
            if cache is not None:
                payload = cache.get(key)
                if payload is not None:
                    payloads[index] = payload
                    self.stats.cache_hits += 1
                    if payload.get("failure") is not None:
                        self.stats.failures += 1
                    continue
            if key in pending:
                pending[key].append(index)
            else:
                pending[key] = [index]
                pending_request[key] = request

        done = len(requests) - sum(len(v) for v in pending.values())
        if progress is not None and done:
            progress(done, len(requests))

        appender = (
            self._open_appender(path, resume, resumed) if path is not None else None
        )
        work = [(key, pending_request[key]) for key in pending]
        groups = self._groups(work)
        ordered = (
            _GroupOrder(appender, [[key for key, _ in group] for group in groups])
            if appender is not None
            else None
        )
        quarantine_file = (
            Quarantine(self.quarantine, io=self.io, policy=self.retry)
            if self.quarantine is not None
            else None
        )

        def settle(key: str, payload: ReportPayload, quarantined: bool = False) -> None:
            nonlocal done
            indices = pending[key]
            if payloads[indices[0]] is not None:
                raise RuntimeError(
                    f"batch item {key} settled twice — exactly-once "
                    f"accounting would be violated"
                )
            for index in indices:
                payloads[index] = payload
            done += len(indices)
            if quarantined:
                self.stats.quarantined += 1
            else:
                self.stats.computed += 1
            self.stats.deduplicated += len(indices) - 1
            if payload.get("failure") is not None:
                self.stats.failures += 1
            if not quarantined:
                # A quarantined verdict is transient; caching it would
                # resurface an infrastructure hiccup as a cached fact.
                self._cache_put(key, payload)
            if ordered is not None:
                ordered.append(
                    key,
                    {"checkpoint_version": CHECKPOINT_VERSION, "key": key, "report": payload},
                )
            if progress is not None:
                progress(done, len(requests))

        def commit() -> None:
            if appender is not None:
                appender.commit()

        def evaluate_here(
            group: Sequence[Tuple[str, AnalysisRequest]],
            worker: str,
            on_error: Optional[Callable[[Exception], None]] = None,
        ) -> None:
            """Evaluate one group in this process; settle, commit, record it.

            An exception the evaluation raises goes to ``on_error`` when
            given (the caller's group hands it back to the pool), else
            it propagates.
            """
            t0 = time.perf_counter()
            try:
                outcome = _evaluate_group([request for _, request in group])
            except Exception as error:
                if on_error is None:
                    raise
                on_error(error)
                return
            for (key, _request), report in zip(group, outcome):
                settle(key, report.to_dict())
            # One fsync per group: its results arrived together.
            commit()
            if self.metrics is not None:
                self.metrics.record_chunk(worker, len(group), time.perf_counter() - t0)

        def quarantine_item(item: _Tracked) -> None:
            last = item.attempts[-1] if item.attempts else None
            failure = AnalysisFailure(
                stage="quarantine",
                error_type=last["error_type"] if last else "Unknown",
                message=(
                    f"quarantined after {item.counted} counted attempts "
                    f"({len(item.attempts)} recorded: "
                    + ", ".join(a["stage"] for a in item.attempts)
                    + ")"
                ),
            )
            report = AnalysisReport.failed(item.request, failure)
            if quarantine_file is not None:
                quarantine_file.record(
                    item.key, item.request.taskset.name, item.attempts
                )
            settle(item.key, report.to_dict(), quarantined=True)
            commit()

        workers = self._workers(work, len(groups))
        try:
            with GracefulShutdown(install=install_signal_handlers) as shutdown:
                if not workers:
                    for group in groups:
                        if shutdown.requested:
                            raise self._aborted(shutdown, done, len(requests), path)
                        evaluate_here(group, "inline")
                else:
                    # A kept pool stays warm for the next run, until
                    # close(); a run-scoped one closes when this run ends.
                    if self.pool is None or not self.keep_pool:
                        self.pool = PersistentPool(workers, self.injection)
                    self._run_parallel(
                        self.pool,
                        work,
                        settle,
                        commit,
                        quarantine_item,
                        evaluate_here,
                        shutdown,
                        lambda: self._aborted(shutdown, done, len(requests), path),
                    )
        finally:
            if ordered is not None:
                # A run cut short (a signal, an unusable pool) keeps every
                # settled result: held groups go out before the last commit.
                ordered.flush()
            if appender is not None:
                appender.close()
                self.faults.checkpoint_io_errors += appender.io_errors
            if quarantine_file is not None:
                quarantine_file.close()
                self.faults.checkpoint_io_errors += quarantine_file.io_errors
            if cache is not None:
                self.faults.cache_corrupt += cache.corrupt - cache_before[2]
                self.faults.cache_io_errors += (
                    cache.io_errors - cache_before[3]
                )
            if self.metrics is not None:
                # The main-process kernel delta covers the inline path and
                # the caller's group (and is zero under a pool that only
                # dispatches); worker deltas were folded in per chunk.
                # Folding in ``finally`` means an aborted run still
                # flushes everything it measured.
                self.metrics.record_kernel_perf(PERF.delta_since(perf_before))
                self.metrics.record_batch_stats(self.stats.to_dict())
                self.metrics.record_fault_stats(self.faults.to_dict())
                if cache is not None:
                    self.metrics.record_cache(
                        cache.hits - cache_before[0],
                        cache.misses - cache_before[1],
                    )
                self.metrics.timing(
                    "batch.wall_seconds", time.perf_counter() - t_run
                )
            if not self.keep_pool:
                self.close()

        for index, payload in enumerate(payloads):
            if payload is None:  # unreachable unless settle logic regresses
                raise RuntimeError(
                    f"batch item {index} ({requests[index].key}) never settled"
                )
        return cast(List[ReportPayload], payloads)

    def _groups(self, items: Sequence[ItemT]) -> List[List[ItemT]]:
        """The evaluation groups of the pending list (see ``chunk_size``)."""
        return _cut(items, self.chunk_size or GROUP_SIZE)

    def _policy(self, request: AnalysisRequest) -> RetryPolicy:
        """The item's retry policy: its own, else the executor's."""
        return request.retry if request.retry is not None else self.retry

    def _workers(
        self, work: Sequence[Tuple[str, AnalysisRequest]], groups: int
    ) -> int:
        """The pool workers a run uses; with fewer than ``jobs``, the
        calling process evaluates the last of its ``groups``.

        No workers means every group runs inline.  A kept pool has
        ``jobs`` workers, whose forks later runs share.  A run-scoped
        pool pays its forks in this run, and a freshly forked worker is
        the dearest place to evaluate a small group (DESIGN.md §8,
        "Where a group runs"), so a run with 2 <= G <= ``jobs`` groups
        forks G - 1 and evaluates the last group itself.  With more
        groups than ``jobs`` the caller only dispatches: a group it held
        would leave a freed worker idle.  An armed injection spec or a
        watchdog timeout keeps every group of a multi-item run in a pool
        of ``jobs`` workers, where the chaos families and the watchdog
        cover it.
        """
        if self.jobs == 1 or len(work) <= 1:
            return 0
        if (
            self.keep_pool
            or groups > self.jobs
            or self.injection is not None
            or any(self._policy(request).timeout is not None for _, request in work)
        ):
            return self.jobs
        return groups - 1

    @staticmethod
    def _aborted(
        shutdown: GracefulShutdown, done: int, total: int, path: Optional[Path]
    ) -> BatchAborted:
        return BatchAborted(shutdown.signal_name or "signal", done, total, path)

    # ------------------------------------------------------------------
    # Supervised pool execution
    # ------------------------------------------------------------------
    def _chunk_deadline(self, chunk: List[_Tracked], now: float) -> Optional[float]:
        """Watchdog deadline for a chunk, or None when any item opts out."""
        total = 0.0
        for item in chunk:
            timeout = item.policy.timeout
            if timeout is None:
                return None
            total += timeout
        return now + total + _TIMEOUT_GRACE

    def _run_parallel(
        self,
        pool: PersistentPool,
        work: Sequence[Tuple[str, AnalysisRequest]],
        settle: Callable[..., None],
        commit: Callable[[], None],
        quarantine_item: Callable[[_Tracked], None],
        evaluate_here: Callable[..., None],
        shutdown: GracefulShutdown,
        make_abort: Callable[[], BatchAborted],
    ) -> None:
        """Run ``work`` over ``pool``'s workers, supervised.

        A pool of fewer than ``jobs`` workers leaves the calling process
        the last group, which ``evaluate_here`` runs once the others are
        submitted; only that first attempt runs here, and an item it
        fails on goes back to the pool isolated.
        """
        tracked = [
            _Tracked(key=key, request=request, policy=self._policy(request))
            for key, request in work
        ]
        ready: Deque[List[_Tracked]] = deque(self._groups(tracked))
        held = ready.pop() if pool.jobs < self.jobs else None
        delayed: List[Tuple[float, List[_Tracked]]] = []
        solitary: Deque[_Tracked] = deque()
        in_flight: Dict["Future[Tuple[List[Tuple[int, ReportPayload]], WorkerMeta]]", _Flight] = {}
        trace_enabled = trace.is_enabled()
        executor: Optional[ProcessPoolExecutor] = None
        consecutive_rebuilds = 0

        def requeue(item: _Tracked, delay: float) -> None:
            """Route one item back into the right queue (or quarantine)."""
            if item.exhausted():
                quarantine_item(item)
                return
            item.solitary = item.solitary or item.suspect_breaks >= _SUSPECT_THRESHOLD
            if item.solitary:
                solitary.append(item)
            elif delay > 0.0:
                delayed.append((time.perf_counter() + delay, [item]))
            else:
                ready.append([item])

        def break_pool(culprit_known: bool) -> None:
            """Kill + forget the pool; requeue everything in flight once."""
            nonlocal executor, consecutive_rebuilds
            self.faults.pool_rebuilds += 1
            consecutive_rebuilds += 1
            if executor is not None:
                pool.discard(executor)
                executor = None
            collateral = [flight for flight in in_flight.values()]
            in_flight.clear()
            for flight in collateral:
                for item in flight.chunk:
                    # Exactly-once requeue per break: the item goes back
                    # into a queue a single time, as a singleton so one
                    # bad chunk-mate cannot keep dragging it down.
                    item.record("pool", None, counted=False)
                    if not culprit_known:
                        item.suspect_breaks += 1
                    requeue(item, 0.0)
            if consecutive_rebuilds > _MAX_CONSECUTIVE_REBUILDS:
                raise RuntimeError(
                    f"process pool broke {consecutive_rebuilds} times without "
                    f"settling a single chunk; infrastructure is unusable"
                )

        def submit(chunk: List[_Tracked], is_solitary: bool) -> bool:
            """Submit one chunk; False when the pool broke at submit time."""
            nonlocal executor
            if executor is None:
                executor = pool.acquire()
            payload: List[_ChunkItem] = [
                (slot, item.key, item.request) for slot, item in enumerate(chunk)
            ]
            try:
                future = executor.submit(
                    _worker_chunk,
                    payload,
                    trace_enabled,
                    self.injection,
                )
            except BrokenProcessPool:
                # The chunk never ran: requeue it for free, recycle the
                # pool, and charge the break to whatever was in flight.
                if is_solitary:
                    solitary.extendleft(reversed(chunk))
                else:
                    ready.appendleft(chunk)
                break_pool(culprit_known=False)
                return False
            now = time.perf_counter()
            in_flight[future] = _Flight(
                chunk=chunk,
                deadline=self._chunk_deadline(chunk, now),
                solitary=is_solitary,
            )
            return True

        def handle_failure(flight: _Flight, error: BaseException) -> None:
            """A chunk future completed exceptionally (pool still alive)."""
            chunk = flight.chunk
            if len(chunk) > 1:
                # Culprit unknown inside the chunk: isolate to singletons
                # without charging anyone an attempt yet.
                for item in chunk:
                    item.record("isolate", error, counted=False)
                    requeue(item, 0.0)
                return
            item = chunk[0]
            stage = "worker" if flight.solitary else "compute"
            item.record(stage, error, counted=True)
            self.faults.retries += 1
            requeue(item, item.policy.delay(item.key, item.counted))

        while ready or delayed or solitary or in_flight or held:
            if shutdown.requested:
                if executor is not None:
                    pool.discard(executor)
                    executor = None
                commit()
                raise make_abort()

            now = time.perf_counter()
            if delayed:
                due = [chunk for when, chunk in delayed if when <= now]
                delayed[:] = [(when, c) for when, c in delayed if when > now]
                ready.extend(due)

            # Fill the window: at most one chunk per worker in flight, so
            # every submitted chunk is actually running and its watchdog
            # deadline measures work, not queueing.  Solitary items run
            # strictly alone — the next pool break convicts them beyond doubt.
            while ready and len(in_flight) < pool.jobs:
                submit(ready.popleft(), is_solitary=False)
            if not ready and not delayed and not in_flight and solitary:
                submit([solitary.popleft()], is_solitary=True)

            if held is not None:
                chunk, held = held, None
                evaluate_here(
                    [(item.key, item.request) for item in chunk],
                    "caller",
                    lambda error: handle_failure(_Flight(chunk, None, False), error),
                )
                continue

            if not in_flight:
                if delayed and not ready:
                    next_due = min(when for when, _chunk in delayed)
                    time.sleep(
                        min(max(next_due - time.perf_counter(), 0.0), _MAX_POLL_SECONDS)
                    )
                continue

            poll = _MAX_POLL_SECONDS
            deadlines = [
                flight.deadline
                for flight in in_flight.values()
                if flight.deadline is not None
            ]
            if deadlines:
                poll = min(poll, max(min(deadlines) - time.perf_counter(), 0.01))
            finished, _pending = wait(
                set(in_flight), timeout=poll, return_when=FIRST_COMPLETED
            )

            broken = False
            for future in finished:
                flight = in_flight.pop(future)
                error = future.exception()
                if error is None:
                    results, meta = future.result()
                    consecutive_rebuilds = 0
                    if self.metrics is not None:
                        self.metrics.record_chunk(
                            f"pid{meta['pid']}", meta["items"], meta["seconds"]
                        )
                        self.metrics.record_kernel_perf(meta["perf"])
                    if meta["spans"]:
                        trace.extend(meta["spans"])
                    for slot, payload_dict in results:
                        settle(flight.chunk[slot].key, payload_dict)
                    commit()
                elif isinstance(error, BrokenProcessPool):
                    # The whole pool died; every in-flight chunk is a
                    # casualty and none of them is provably the cause.
                    for item in flight.chunk:
                        item.record("pool", error, counted=flight.solitary)
                        if flight.solitary:
                            # Ran alone: the conviction is definitive.
                            self.faults.retries += 1
                            requeue(
                                item, item.policy.delay(item.key, item.counted)
                            )
                        else:
                            item.suspect_breaks += 1
                            requeue(item, 0.0)
                    broken = True
                else:
                    handle_failure(flight, error)
            if broken:
                break_pool(culprit_known=False)
                continue

            # Watchdog: a chunk past its wall-clock deadline means a hung
            # worker.  Kill the pool (the only way to reclaim the process),
            # charge the expired chunk a timeout attempt, and requeue the
            # innocent bystander chunks for free.
            now = time.perf_counter()
            expired = [
                future
                for future, flight in in_flight.items()
                if flight.deadline is not None and now >= flight.deadline
            ]
            if expired:
                self.faults.timeouts += len(expired)
                for future in expired:
                    flight = in_flight.pop(future)
                    for item in flight.chunk:
                        item.record(
                            "timeout",
                            TimeoutError(
                                f"exceeded {item.policy.timeout}s/item watchdog"
                            ),
                            counted=True,
                        )
                        self.faults.retries += 1
                        requeue(item, item.policy.delay(item.key, item.counted))
                break_pool(culprit_known=True)


def map_items(
    fn: Callable[[ItemT], ResultT],
    items: Iterable[ItemT],
    *,
    jobs: int,
    progress: Optional[ProgressCallback] = None,
) -> List[ResultT]:
    """Map a picklable top-level function over items, in order.

    The generic fan-out of the resilience suite (no cache, checkpoint
    or grouping): serial for ``jobs=1``, otherwise
    ``ProcessPoolExecutor.map`` in chunks of a quarter of each worker's
    share (at most 32).  Exceptions propagate (no failure capture: the
    caller owns the item semantics here) — except ``BrokenProcessPool``,
    which rebuilds the pool and recomputes the not-yet-consumed tail,
    bounded by the default ``RetryPolicy().max_attempts``, so the sweep
    survives a dead worker like the batch path does.
    """
    items = list(items)
    policy = RetryPolicy()
    results: List[ResultT] = []
    if jobs == 1 or len(items) <= 1:
        for i, item in enumerate(items):
            results.append(fn(item))
            if progress is not None:
                progress(i + 1, len(items))
        return results
    size = max(1, min(32, math.ceil(len(items) / (jobs * 4))))
    breaks = 0
    while len(results) < len(items):
        remaining = items[len(results):]
        try:
            with ProcessPoolExecutor(max_workers=jobs) as executor:
                for result in executor.map(fn, remaining, chunksize=size):
                    results.append(result)
                    if progress is not None:
                        progress(len(results), len(items))
        except BrokenProcessPool as error:
            breaks += 1
            if breaks >= policy.max_attempts:
                raise RuntimeError(
                    f"map_items pool broke {breaks} times; giving up"
                ) from error
            time.sleep(policy.delay("map_items", breaks))
    return results
