"""Content-addressed result cache for the batch-analysis pipeline.

Every :class:`~repro.pipeline.request.AnalysisRequest` maps to a
canonical payload — the task set's binary content fingerprint (tasks
sorted by name, parameters as IEEE-754 bytes) plus the options in a
fixed field order — whose SHA-256 digest is the request's *key*.  Two
requests with the same key are guaranteed to
produce the same :class:`~repro.pipeline.request.AnalysisReport` (the
analysis is deterministic), so the key doubles as

* the cache address (in-memory dictionary and optional on-disk store);
* the checkpoint identity used by :class:`~repro.pipeline.runner.BatchRunner`
  to resume an interrupted sweep.

The on-disk layout is one JSON document per key under
``<directory>/<key[:2]>/<key>.json`` so huge populations do not pile a
million files into one directory.

The canonicalisation itself lives in :mod:`repro.model.fingerprint`
(shared with the analysis layer's compiled-kernel cache and memo); this
module re-exports it unchanged.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Optional, Union, cast

from repro.model.fingerprint import (  # noqa: F401 - canonical home + re-exports
    FINGERPRINT_VERSION,
    canonical_number as _canonical_number,
    canonical_taskset_payload,
    digest_payload as _digest,
    taskset_fingerprint,
)
from repro.model.taskset import TaskSet
from repro.pipeline.fault_tolerance import (
    DEFAULT_IO,
    CheckpointIO,
    decode_durable_line,
    encode_durable_line,
)
from repro.pipeline.payload import ReportPayload

PathLike = Union[str, Path]

#: Version of the checksummed on-disk cache entry format.  Entries are
#: CRC-wrapped (``{"crc": ..., "entry": {"cache_format": 2, "report":
#: ...}}``); pre-checksum entries (a bare report payload) read as
#: corrupt and are recomputed.
CACHE_FORMAT_VERSION = 2


def request_fingerprint(taskset: TaskSet, options: Dict[str, Any]) -> str:
    """Content hash of a full analysis request (task set + options).

    ``options`` must already be JSON-ready (the request's
    ``options_payload``); float-valued entries are canonicalised here.
    The task set enters through its binary content fingerprint, so the
    request key inherits the same invariances (task order, set name).
    """
    payload = {
        "fingerprint_version": FINGERPRINT_VERSION,
        "taskset": taskset_fingerprint(taskset),
        "options": {
            key: _canonical_number(value) if isinstance(value, float) else value
            for key, value in sorted(options.items())
        },
    }
    return _digest(payload)


class ResultCache:
    """Two-level (memory, optional disk) store of report payloads by key.

    The cache stores JSON-ready dictionaries (the output of
    ``AnalysisReport.to_dict``), not live report objects, so disk and
    memory entries are interchangeable and a cache shared between
    processes never pickles analysis state.

    Disk entries are checksummed (CRC-32 over the canonical JSON): a
    corrupt, torn or unreadable entry degrades to a cache *miss* — it
    is counted in :attr:`corrupt` (or :attr:`io_errors`), best-effort
    deleted, and recomputed — never a crash and never silently wrong
    data.  An entry written before the checksum format counts as
    corrupt the same way: it is deleted and recomputed.  ``io`` is the injectable filesystem seam the chaos harness uses to
    simulate storage faults; :meth:`put` raises ``OSError`` to the
    caller (the runner retries it under its
    :class:`~repro.pipeline.fault_tolerance.RetryPolicy`).
    """

    def __init__(
        self,
        directory: Optional[PathLike] = None,
        io: Optional[CheckpointIO] = None,
    ) -> None:
        self._memory: Dict[str, ReportPayload] = {}
        self._directory = Path(directory) if directory is not None else None
        self._io = io if io is not None else DEFAULT_IO
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.io_errors = 0

    @property
    def directory(self) -> Optional[Path]:
        return self._directory

    def __len__(self) -> int:
        return len(self._memory)

    def _disk_path(self, key: str) -> Optional[Path]:
        if self._directory is None:
            return None
        return self._directory / key[:2] / f"{key}.json"

    def _load_disk(self, path: Path) -> Optional[ReportPayload]:
        """Read + verify one disk entry; ``None`` (and a counter) if bad."""
        try:
            text = self._io.read_text(path)
        except OSError:
            self.io_errors += 1
            return None
        entry = decode_durable_line(text)
        report = (
            entry.get("report")
            if entry is not None
            and entry.get("cache_format") == CACHE_FORMAT_VERSION
            else None
        )
        if not (
            isinstance(report, dict) and "name" in report and "key" in report
        ):
            self.corrupt += 1
            try:  # a corrupt entry only wastes a recompute once
                path.unlink()
            except OSError:
                pass
            return None
        return cast(ReportPayload, report)

    def get(self, key: str) -> Optional[ReportPayload]:
        """Look a report payload up; promotes disk entries into memory."""
        payload = self._memory.get(key)
        if payload is not None:
            self.hits += 1
            return payload
        path = self._disk_path(key)
        if path is not None and path.exists():
            loaded = self._load_disk(path)
            if loaded is not None:
                self._memory[key] = loaded
                self.hits += 1
                return loaded
        self.misses += 1
        return None

    def put(self, key: str, payload: ReportPayload) -> None:
        """Store a report payload under ``key`` (memory and disk).

        ``OSError`` from the disk layer propagates: the caller decides
        whether a failed cache write is retryable or ignorable (the
        cache is an optimisation, losing an entry is never fatal).
        """
        self._memory[key] = payload
        path = self._disk_path(key)
        if path is not None:
            line = encode_durable_line(
                {"cache_format": CACHE_FORMAT_VERSION, "report": payload}
            )
            self._io.write_text_atomic(path, line)

    def clear_memory(self) -> None:
        """Drop the in-memory layer (disk entries survive)."""
        self._memory.clear()


def open_cache(cache: Union[ResultCache, PathLike, None]) -> Optional[ResultCache]:
    """``cache`` as a :class:`ResultCache`: a directory path opens a disk
    cache there; an instance or ``None`` is returned as is.  Raises
    ``TypeError`` for anything else."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, (str, os.PathLike)):
        return ResultCache(cache)
    raise TypeError(
        f"cache must be a ResultCache or a directory path, got {type(cache).__name__}"
    )
