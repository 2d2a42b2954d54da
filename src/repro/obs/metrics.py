"""One snapshot for every counter the system keeps.

Before this module the system had three disconnected telemetry islands:
the kernel :data:`~repro.analysis.kernels.PERF` counters (per process),
:class:`~repro.pipeline.runner.BatchStats` (per run) and the result
cache's hit/miss totals (per cache).  :class:`MetricsRegistry` merges
them — plus per-worker chunk timings — into a single JSON document with
a deliberate split:

``counters``
    Deterministic totals: a pure function of the work performed, byte
    identical across runs and across job counts (worker-local kernel
    counters are shipped back with each chunk and summed, so the total
    is independent of how chunks were distributed).
``timing``
    Everything derived from the clock or from process identity: wall
    seconds, kernel seconds, per-worker chunk counts/items/seconds.

:meth:`MetricsRegistry.strip_timing` drops the ``timing`` section, which
is exactly the invariance the pipeline test suite pins down:
``jobs=1`` and ``jobs=N`` snapshots agree on every counter.

The registry is a passive sink — callers push values in; it imports
nothing from the rest of ``repro``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

PathLike = Union[str, Path]

#: Version stamped into every snapshot.
METRICS_SCHEMA_VERSION = 1

#: Kernel counter fields that measure time rather than work; they are
#: routed into the ``timing`` section by :meth:`MetricsRegistry.
#: record_kernel_perf`.
KERNEL_TIMING_FIELDS = ("kernel_seconds",)


class MetricsRegistry:
    """Accumulates namespaced counters and timings; snapshots to JSON.

    Counter names are dotted (``"kernels.cells"``, ``"batch.computed"``,
    ``"cache.hits"``) so the snapshot stays flat and greppable.  All
    ``record_*`` helpers are additive: a registry can aggregate several
    runs, several workers, or both.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._timings: Dict[str, float] = {}
        self._workers: Dict[str, Dict[str, float]] = {}

    # -- primitive sinks ------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the deterministic counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + value

    def timing(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to the wall-clock total ``name``."""
        self._timings[name] = self._timings.get(name, 0.0) + seconds

    def counter(self, name: str, default: float = 0) -> float:
        """Current value of a counter (0 when never touched)."""
        return self._counters.get(name, default)

    # -- island adapters ------------------------------------------------
    def record_kernel_perf(self, delta: Dict[str, Any]) -> None:
        """Fold a kernel perf-counter delta (``PERF.delta_since``) in.

        Work counters land under ``kernels.*``; the wall-clock fields
        (:data:`KERNEL_TIMING_FIELDS`) land in the timing section.
        """
        for key, value in delta.items():
            if key in KERNEL_TIMING_FIELDS:
                self.timing(f"kernels.{key}", float(value))
            else:
                self.count(f"kernels.{key}", value)

    def record_batch_stats(self, stats: Dict[str, int]) -> None:
        """Fold a :class:`BatchStats` ``to_dict`` payload in (``batch.*``)."""
        for key, value in stats.items():
            self.count(f"batch.{key}", value)

    def record_fault_stats(self, stats: Dict[str, int]) -> None:
        """Fold a :class:`~repro.pipeline.fault_tolerance.FaultStats`
        ``to_dict`` payload in (``faults.*``).

        Every counter is zero on an undisturbed run, so the clean-path
        snapshot stays jobs-invariant; under faults they record the
        recovery schedule (retries, watchdog timeouts, pool rebuilds,
        corruption detections and IO-error retries).
        """
        for key, value in stats.items():
            self.count(f"faults.{key}", value)

    def record_cache(self, hits: int, misses: int) -> None:
        """Fold result-cache lookup totals in (``cache.*``)."""
        self.count("cache.hits", hits)
        self.count("cache.misses", misses)

    def record_chunk(self, worker: str, items: int, seconds: float) -> None:
        """Record one settled chunk for per-worker breakdowns.

        ``worker`` identifies the process (``"inline"`` for the serial
        path, ``"caller"`` for the group the calling process evaluates
        beside its pool, ``"pid<n>"`` for pool workers).  Worker
        identity and chunk distribution depend on the job count, so the
        whole breakdown lives in the timing section.
        """
        entry = self._workers.setdefault(
            worker, {"chunks": 0, "items": 0, "seconds": 0.0}
        )
        entry["chunks"] += 1
        entry["items"] += items
        entry["seconds"] += seconds

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The full JSON-ready snapshot (see module docstring)."""
        return {
            "metrics_schema_version": METRICS_SCHEMA_VERSION,
            "counters": {key: self._counters[key] for key in sorted(self._counters)},
            "timing": {
                **{key: self._timings[key] for key in sorted(self._timings)},
                "workers": {
                    worker: dict(self._workers[worker])
                    for worker in sorted(self._workers)
                },
            },
        }

    @staticmethod
    def strip_timing(snapshot: Dict[str, Any]) -> Dict[str, Any]:
        """A snapshot without its ``timing`` section.

        What remains is deterministic: identical across runs and across
        ``jobs=1`` / ``jobs=N`` for the same request population.
        """
        return {key: value for key, value in snapshot.items() if key != "timing"}

    def write_json(self, path: PathLike) -> Path:
        """Write the snapshot as stable (sorted-key) indented JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n")
        return path

    def summary(self) -> str:
        """One-line human summary of the headline counters."""
        parts = []
        for name in ("batch.total", "batch.computed", "batch.failures",
                     "cache.hits", "kernels.kernel_evals", "kernels.cells"):
            value = self._counters.get(name)
            if value is not None:
                parts.append(f"{name}={value:g}")
        wall = self._timings.get("batch.wall_seconds")
        if wall is not None:
            parts.append(f"wall={wall:.2f}s")
        return " ".join(parts) if parts else "(no metrics recorded)"

    def __len__(self) -> int:
        return len(self._counters)
