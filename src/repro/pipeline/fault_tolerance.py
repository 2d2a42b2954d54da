"""Infrastructure fault tolerance for the batch pipeline.

The analysis layer already treats *analysis* failures (budget
exhaustion, degenerate inputs) as verdicts; this module gives
:class:`~repro.pipeline.runner.BatchRunner` the same "run and be safe"
discipline for *infrastructure* failures — the machinery faults the
paper's mode-switch model never had to care about but a
population-scale sweep meets constantly:

* :class:`RetryPolicy` — bounded retry with exponential backoff and
  **deterministic, seeded** jitter (the determinism lint bans entropy in
  pipeline code; two runs with the same seed back off identically).
* durable line encoding (:func:`encode_durable_line` /
  :func:`decode_durable_line`) — every checkpoint/quarantine line
  carries a CRC-32 of its canonical JSON, so a torn tail or a corrupt
  line on resume is *detected* and treated as "recompute", never
  silently trusted.
* :class:`CheckpointIO` — the injectable IO seam all durable writes go
  through.  The chaos harness substitutes a failing implementation to
  simulate disk-full without touching a real filesystem limit.
* :class:`DurableAppender` — append + flush + fsync with retry; a
  persistently failing device degrades checkpointing to "disabled"
  instead of crashing the sweep (results stay correct, only
  resumability is lost).
* :class:`Quarantine` — the graceful-degradation rung for poison items:
  an item that exhausts its attempts lands in a structured
  ``quarantine.jsonl`` with its full attempt history instead of
  aborting the batch.
* :class:`InjectionSpec` — the deterministic fault-injection seam the
  chaos harness (:mod:`repro.pipeline.chaos`) arms: worker kill, worker
  hang and fork-time crash, each claimed at most a configured number of
  times through atomic marker files so retries find a healthy world.
* :class:`GracefulShutdown` / :class:`BatchAborted` — SIGINT/SIGTERM
  handling that drains, flushes and surfaces a *resumable* abort
  instead of a bare traceback.

This module sits below :mod:`repro.pipeline.cache` and
:mod:`repro.pipeline.request` (it imports only the payload types), so
every pipeline layer can share the primitives without cycles.
"""

from __future__ import annotations

import errno
import json
import os
import random
import signal
import threading
import time
import types
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, TextIO, Tuple, Union

from repro.pipeline.payload import AttemptRecord, QuarantineEntry

PathLike = Union[str, Path]

#: Version stamped into every quarantine line.
QUARANTINE_VERSION = 1


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Total attempts per item (first try included).  An item that
        fails ``max_attempts`` times is quarantined, not retried forever.
    backoff_base:
        Delay before the second attempt, in seconds.
    backoff_factor:
        Multiplier per further attempt (exponential).
    backoff_max:
        Upper clamp on any single delay.
    jitter:
        Fraction of the delay randomised (0..1).  The jitter stream is
        seeded from ``(seed, key, attempt)``, so the same run produces
        the same delays — the pipeline's determinism contract extends
        to its failure handling.
    seed:
        Base seed of the jitter stream.
    timeout:
        Per-item wall-clock budget in seconds for pool workers; a chunk
        that exceeds ``timeout * items`` (plus a fixed grace) is killed
        by the watchdog and its items retried.  ``None`` disables the
        watchdog.  Inline (``jobs=1``) evaluation cannot be preempted
        and ignores the timeout.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0.0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max < 0.0:
            raise ValueError(f"backoff_max must be >= 0, got {self.backoff_max}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.timeout is not None and self.timeout <= 0.0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry).

        Deterministic: the jitter is drawn from a generator seeded by
        ``(seed, key, attempt)``, never from global RNG state.
        """
        if attempt < 1:
            return 0.0
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        base = min(base, self.backoff_max)
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        rng = random.Random(f"{self.seed}:{key}:{attempt}")
        spread = self.jitter * base
        return base - spread + 2.0 * spread * rng.random()


# ---------------------------------------------------------------------------
# Durable line encoding (CRC-per-line)
# ---------------------------------------------------------------------------
def _canonical(obj: Mapping[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_durable_line(entry: Mapping[str, Any]) -> str:
    """One JSONL line carrying ``entry`` plus a CRC-32 of its canonical form.

    The CRC covers the canonical (sorted-key, no-whitespace) encoding,
    so :func:`decode_durable_line` re-canonicalises and compares —
    whitespace differences cannot fake a match, bit flips cannot pass.
    """
    payload = _canonical(entry)
    crc = zlib.crc32(payload.encode("utf-8"))
    return json.dumps({"crc": crc, "entry": entry}, sort_keys=True)


def decode_durable_line(line: str) -> Optional[Dict[str, Any]]:
    """Verify and unwrap one durable line; ``None`` on any corruption.

    Only the CRC wrapper written by :func:`encode_durable_line` is
    accepted.  Torn tails, bit flips, truncated JSON and bare objects
    without a ``crc`` (the pre-CRC line format) all come back as
    ``None``: the caller treats the line as "recompute", never as data.
    """
    line = line.strip()
    if not line:
        return None
    try:
        parsed = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(parsed, dict) or "crc" not in parsed:
        return None
    entry = parsed.get("entry")
    if not isinstance(entry, dict):
        return None
    try:
        expected = zlib.crc32(_canonical(entry).encode("utf-8"))
    except (TypeError, ValueError):
        return None
    if parsed["crc"] != expected:
        return None
    return entry


# ---------------------------------------------------------------------------
# Injectable IO layer
# ---------------------------------------------------------------------------
class CheckpointIO:
    """Filesystem seam for every durable write the pipeline performs.

    The default implementation is the real filesystem.  The chaos
    harness substitutes a subclass whose methods fail on a scripted
    schedule (disk-full, transient write errors), which is how "the
    disk fills up mid-sweep" becomes a deterministic, seedable test
    instead of an ops anecdote.
    """

    def open_append(self, path: Path) -> TextIO:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("a")

    def open_truncate(self, path: Path) -> TextIO:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("w")

    def write_line(self, handle: TextIO, line: str) -> None:
        handle.write(line + "\n")

    def commit(self, handle: TextIO) -> None:
        """Flush python and OS buffers: the line survives a process kill."""
        handle.flush()
        os.fsync(handle.fileno())

    def read_text(self, path: Path) -> str:
        return path.read_text()

    def write_text_atomic(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text)
        tmp.replace(path)


#: Shared default instance (stateless).
DEFAULT_IO = CheckpointIO()


class DurableAppender:
    """Append durable lines to a JSONL file, surviving IO faults.

    Every appended entry is CRC-wrapped, written, flushed and fsynced
    (per :meth:`commit`, which the runner calls once per settle batch).
    A failing write or commit is retried under ``policy``; when the
    device stays broken the appender *disables itself* — the sweep
    continues producing correct results, it merely loses resumability,
    which is the degraded-but-safe rung for storage faults.
    """

    def __init__(
        self,
        path: PathLike,
        io: Optional[CheckpointIO] = None,
        policy: Optional[RetryPolicy] = None,
        truncate: bool = False,
    ) -> None:
        self.path = Path(path)
        self.io = io if io is not None else DEFAULT_IO
        self.policy = policy if policy is not None else RetryPolicy()
        self.disabled = False
        self.io_errors = 0
        self._dirty = False
        self._handle: Optional[TextIO] = None
        self._truncate = truncate

    def _ensure_open(self) -> Optional[TextIO]:
        if self.disabled:
            return None
        if self._handle is None:
            opener = self.io.open_truncate if self._truncate else self.io.open_append
            self._handle = opener(self.path)
            self._truncate = False
        return self._handle

    def _attempt(self, what: str, line: Optional[str]) -> bool:
        """One write/commit attempt cycle with bounded retry."""
        for attempt in range(1, self.policy.max_attempts + 1):
            try:
                handle = self._ensure_open()
                if handle is None:
                    return False
                if line is not None:
                    self.io.write_line(handle, line)
                else:
                    self.io.commit(handle)
                return True
            except OSError:
                self.io_errors += 1
                if attempt >= self.policy.max_attempts:
                    self.disabled = True
                    self._close_quietly()
                    return False
                time.sleep(self.policy.delay(f"{self.path}:{what}", attempt))
        return False

    def append(self, entry: Mapping[str, Any]) -> bool:
        """Write one CRC-wrapped line (buffered until :meth:`commit`)."""
        if self.disabled:
            return False
        if self._attempt("write", encode_durable_line(entry)):
            self._dirty = True
            return True
        return False

    def commit(self) -> bool:
        """Flush + fsync everything appended since the last commit."""
        if self.disabled or not self._dirty:
            return not self.disabled
        if self._attempt("commit", None):
            self._dirty = False
            return True
        return False

    def _close_quietly(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def close(self) -> None:
        self.commit()
        self._close_quietly()


# ---------------------------------------------------------------------------
# Quarantine: the poison-item rung
# ---------------------------------------------------------------------------
class Quarantine:
    """Structured sink for items that exhausted their retry budget.

    One JSONL line per quarantined item: the request key, the task-set
    name and the full attempt history (stage, error type, message per
    attempt), so a post-mortem can tell a reproducible worker crash
    from a run of timeouts without re-running anything.
    """

    def __init__(
        self,
        path: PathLike,
        io: Optional[CheckpointIO] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.path = Path(path)
        self._appender = DurableAppender(path, io=io, policy=policy)
        self.count = 0

    def record(self, key: str, name: str, attempts: List[AttemptRecord]) -> None:
        entry: QuarantineEntry = {
            "quarantine_version": QUARANTINE_VERSION,
            "key": key,
            "name": name,
            "attempts": attempts,
        }
        self._appender.append(entry)
        self._appender.commit()
        self.count += 1

    @property
    def io_errors(self) -> int:
        return self._appender.io_errors

    def close(self) -> None:
        self._appender.close()


def load_quarantine(path: PathLike) -> List[QuarantineEntry]:
    """Parse a quarantine file, skipping corrupt lines like the runner."""
    entries: List[QuarantineEntry] = []
    file = Path(path)
    if not file.exists():
        return entries
    for line in file.read_text().splitlines():
        entry = decode_durable_line(line)
        if entry is None:
            continue
        if entry.get("quarantine_version") != QUARANTINE_VERSION:
            continue
        entries.append(
            {
                "quarantine_version": QUARANTINE_VERSION,
                "key": str(entry["key"]),
                "name": str(entry["name"]),
                "attempts": list(entry["attempts"]),
            }
        )
    return entries


# ---------------------------------------------------------------------------
# Deterministic fault injection (armed by the chaos harness)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class InjectionSpec:
    """Picklable description of the faults a worker should self-inflict.

    Faults are *claimed* through atomic marker files under
    ``armed_dir`` (``O_CREAT | O_EXCL``), so each token fires exactly
    once no matter how many processes race for it — the retry that
    follows finds a healthy world, which is what makes the chaos
    harness's "byte-identical to the undisturbed run" assertion
    meaningful.

    Parameters
    ----------
    armed_dir:
        Directory holding the one-shot claim markers.
    kill_keys:
        Request keys whose evaluation SIGKILLs its worker once.
    poison_keys:
        Request keys whose evaluation SIGKILLs its worker on *every*
        attempt — the reproducible crasher the quarantine rung exists
        for.
    hang_keys:
        Request keys whose evaluation sleeps ``hang_seconds`` once
        (long enough that the watchdog, not the sleep, ends it).
    hang_seconds:
        Sleep injected for ``hang_keys``.
    fork_crashes:
        Number of worker processes that die in their pool initializer
        (fork-time crash, breaking the pool before any work runs).
    """

    armed_dir: str
    kill_keys: Tuple[str, ...] = ()
    poison_keys: Tuple[str, ...] = ()
    hang_keys: Tuple[str, ...] = ()
    hang_seconds: float = 30.0
    fork_crashes: int = 0


def claim(armed_dir: str, token: str) -> bool:
    """Atomically claim a one-shot fault token; True for the winner."""
    marker = os.path.join(armed_dir, f"claimed-{token}")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return False  # armed_dir vanished: fail open, inject nothing
    os.close(fd)
    return True


def maybe_inject(spec: Optional[InjectionSpec], key: str) -> None:
    """Worker-side hook: self-inflict the configured fault for ``key``.

    Called before each item is evaluated.  SIGKILL (not ``sys.exit``)
    models a hard worker death: no cleanup, no exception, exactly what
    an OOM kill looks like from the parent.
    """
    if spec is None:
        return
    if key in spec.poison_keys:
        os.kill(os.getpid(), signal.SIGKILL)
    if key in spec.kill_keys and claim(spec.armed_dir, f"kill-{key[:16]}"):
        os.kill(os.getpid(), signal.SIGKILL)
    if key in spec.hang_keys and claim(spec.armed_dir, f"hang-{key[:16]}"):
        time.sleep(spec.hang_seconds)


def chaos_pool_initializer(spec: Optional[InjectionSpec]) -> None:
    """Pool initializer that models a fork-time crash.

    The first ``spec.fork_crashes`` workers to start die before
    executing anything, which breaks the pool at spawn time — the
    earliest infrastructure failure a pool can have.
    """
    if spec is None or spec.fork_crashes <= 0:
        return
    for slot in range(spec.fork_crashes):
        if claim(spec.armed_dir, f"forkcrash-{slot}"):
            os._exit(3)


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------
class BatchAborted(RuntimeError):
    """A batch run was interrupted by SIGINT/SIGTERM after a clean drain.

    Raised by :meth:`BatchRunner.run` once settled work is flushed
    (checkpoint committed, metrics folded): the run is *resumable*,
    not crashed.  ``done``/``total`` describe settled progress and
    ``checkpoint`` names the file to pass back via ``--resume``.
    """

    def __init__(
        self,
        signal_name: str,
        done: int,
        total: int,
        checkpoint: Optional[Path] = None,
    ) -> None:
        super().__init__(
            f"batch interrupted by {signal_name} after {done}/{total} items"
        )
        self.signal_name = signal_name
        self.done = done
        self.total = total
        self.checkpoint = checkpoint


class GracefulShutdown:
    """Scoped SIGINT/SIGTERM trap: first signal requests a drain.

    Inside the ``with`` block the first signal only sets
    :attr:`requested` — the runner stops scheduling, flushes, and
    raises :class:`BatchAborted`.  A second signal restores default
    behaviour (``KeyboardInterrupt``) so a wedged drain can still be
    killed.  Installation is skipped off the main thread (the only
    place CPython accepts handlers) and previous handlers are restored
    on exit.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, install: bool = True) -> None:
        self.requested = False
        self.signal_name = ""
        self._install = install
        self._previous: Dict[int, Any] = {}

    def _handler(self, signum: int, frame: Optional[types.FrameType]) -> None:
        if self.requested:  # second signal: stop trapping, die loudly
            raise KeyboardInterrupt
        self.requested = True
        self.signal_name = signal.Signals(signum).name

    def __enter__(self) -> "GracefulShutdown":
        if self._install and threading.current_thread() is threading.main_thread():
            for sig in self._SIGNALS:
                self._previous[sig] = signal.signal(sig, self._handler)
        return self

    def __exit__(self, *exc: object) -> None:
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)
        self._previous.clear()


# ---------------------------------------------------------------------------
# Fault statistics
# ---------------------------------------------------------------------------
@dataclass
class FaultStats:
    """Counters for everything the fault-handling machinery did.

    All zero on an undisturbed run (which keeps the metrics snapshot's
    ``counters`` section jobs-invariant in the clean case); under
    injected or real faults they record the actual recovery schedule.
    """

    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    cache_corrupt: int = 0
    cache_io_errors: int = 0
    checkpoint_corrupt_lines: int = 0
    checkpoint_io_errors: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "cache_corrupt": self.cache_corrupt,
            "cache_io_errors": self.cache_io_errors,
            "checkpoint_corrupt_lines": self.checkpoint_corrupt_lines,
            "checkpoint_io_errors": self.checkpoint_io_errors,
        }

    def any_faults(self) -> bool:
        return any(self.to_dict().values())


def disk_full_error() -> OSError:
    """The canonical ENOSPC error the chaos IO layer raises."""
    return OSError(errno.ENOSPC, "No space left on device (injected)")
