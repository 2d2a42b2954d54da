"""Canonical content fingerprints for task sets.

A task set maps to a canonical byte string — tasks sorted by name, each
encoded as its length-prefixed UTF-8 name, a criticality byte and the
six timing parameters as little-endian IEEE-754 doubles — whose SHA-256
digest is the set's *content fingerprint*.  Two sets with the same
fingerprint are guaranteed to produce the same analysis results (every
analysis is deterministic), so the fingerprint serves as

* the result-cache / checkpoint key of the batch pipeline
  (:mod:`repro.pipeline.cache` re-exports everything here);
* the memoisation key of the tuning/sensitivity search loops
  (:class:`repro.analysis.kernels.AnalysisMemo`);
* the identity under which a :class:`~repro.analysis.kernels.CompiledTaskSet`
  may be reused across task-set instances.

The binary row encoding is ``FINGERPRINT_VERSION = 2``: version 1
serialised the same fields through a canonical JSON payload with floats
normalised via ``repr``, which made ``repr(float)`` the single largest
cost of compiling a task set for analysis.  Encoding the IEEE-754 bytes
directly is exact (bit-for-bit, including the sign of zero) and an
order of magnitude faster; :func:`canonical_taskset_payload` keeps the
human-readable JSON payload as a debugging/reference view, and the
property tests pin :func:`digest_task_rows` to an obvious reference
encoder.

This lives under :mod:`repro.model` (not the pipeline) so the analysis
layer can fingerprint task sets without importing the pipeline package,
which itself imports the analysis layer.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.model.taskset import TaskSet

#: Version stamped into every canonical payload and digest: bump when
#: the encoding (and therefore every key) changes incompatibly.
FINGERPRINT_VERSION = 2

#: Leading domain-separation tag of every task-set digest.
_DIGEST_HEADER = b"repro-taskset-fingerprint:2\x00"

_PACK_PARAMS = struct.Struct("<6d").pack

#: One task as a digest row: ``(name, crit, c_lo, c_hi, d_lo, d_hi, t_lo, t_hi)``.
TaskRow = Tuple[str, str, float, float, float, float, float, float]

#: Attribute under which a task set's digest is memoised.  A ``TaskSet``
#: is immutable by convention, as for the compiled snapshot cached on it
#: the same way, and the attribute travels with a pickled set: a request
#: keyed in one process compiles in another without hashing again.
_DIGEST_ATTR = "_repro_digest"


def canonical_number(value: Optional[float]) -> Optional[str]:
    """Normalise a float for JSON payloads: exact ``repr``, stable inf/nan."""
    if value is None:
        return None
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value)


def canonical_taskset_payload(taskset: TaskSet) -> Dict[str, Any]:
    """The task set as a canonical, order-independent dictionary.

    Tasks are sorted by name and every timing parameter goes through
    :func:`canonical_number`, so the payload is invariant under task
    reordering and float formatting, but sensitive to any actual
    parameter change.  The task-set *name* is deliberately excluded:
    renaming a set does not change its analysis.  This JSON view is the
    readable counterpart of the binary digest rows — the digest itself
    is computed from the IEEE-754 bytes, not from this payload.
    """
    tasks = []
    for task in sorted(taskset, key=lambda t: t.name):
        tasks.append(
            {
                "name": task.name,
                "crit": task.crit.value,
                "c_lo": canonical_number(task.c_lo),
                "c_hi": canonical_number(task.c_hi),
                "d_lo": canonical_number(task.d_lo),
                "d_hi": canonical_number(task.d_hi),
                "t_lo": canonical_number(task.t_lo),
                "t_hi": canonical_number(task.t_hi),
            }
        )
    return {"fingerprint_version": FINGERPRINT_VERSION, "tasks": tasks}


def digest_payload(payload: Dict[str, Any]) -> str:
    """SHA-256 digest of a canonical JSON payload (request keys)."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def digest_task_rows(rows: Iterable[TaskRow]) -> str:
    """Digest ``(name, crit, c_lo, c_hi, d_lo, d_hi, t_lo, t_hi)`` rows.

    ``rows`` must already be sorted by name and ``crit`` is the
    criticality's string value (``"HI"``/``"LO"``).  Each row becomes
    ``len(name) || name || crit-byte || 6 little-endian doubles``; the
    length prefix keeps name boundaries unambiguous.  Encoding the raw
    IEEE-754 bytes is exact — two parameter vectors collide only when
    they are bit-for-bit equal — and avoids the ``repr(float)`` cost
    that dominated the version-1 JSON canonicalisation.
    """
    parts = [_DIGEST_HEADER]
    append = parts.append
    for name, crit, c_lo, c_hi, d_lo, d_hi, t_lo, t_hi in rows:
        encoded = name.encode("utf-8")
        append(len(encoded).to_bytes(4, "little"))
        append(encoded)
        append(b"\x01" if crit == "HI" else b"\x00")
        append(_PACK_PARAMS(c_lo, c_hi, d_lo, d_hi, t_lo, t_hi))
    return hashlib.sha256(b"".join(parts)).hexdigest()


def taskset_fingerprint(
    taskset: TaskSet, rows: Optional[List[TaskRow]] = None
) -> str:
    """SHA-256 content hash of the canonical task-set encoding.

    Digested once per set and memoised on it.  ``rows``, the set's tasks
    as digest rows in task order, spare a caller that has read them
    already a second pass over the tasks.
    """
    digest: Optional[str] = getattr(taskset, _DIGEST_ATTR, None)
    if digest is None:
        if rows is None:
            rows = [
                (t.name, t.crit.value, t.c_lo, t.c_hi, t.d_lo, t.d_hi, t.t_lo, t.t_hi)
                for t in taskset
            ]
        digest = digest_task_rows(sorted(rows, key=itemgetter(0)))
        try:
            setattr(taskset, _DIGEST_ATTR, digest)
        except (AttributeError, TypeError):  # pragma: no cover - exotic subclasses
            pass
    return digest
