"""Wire protocol of the analysis service: versioned, validated JSON.

Every request body carries an explicit ``wire_version`` and every
response body echoes it back, so clients and servers can evolve
independently: an unknown version is a structured 400
(:class:`WireError`), never a traceback.  Result payloads reuse the
pipeline's own :class:`~repro.pipeline.payload.ReportPayload` /
:class:`~repro.pipeline.payload.FailurePayload` TypedDicts — the wire
format of a report *is* its cache/checkpoint format, one serialization
lineage end to end.

Request shape (POST ``/analyze``)::

    {
      "wire_version": 1,
      "taskset":  {... repro-mc-taskset document ...},   # single, or
      "tasksets": [{...}, {...}],                        # batch
      "options":  {"speedup": 2.0, "resetting": "auto", ...},
      "wait": false
    }

``options`` accepts exactly the :class:`~repro.pipeline.request.
AnalysisRequest` analysis knobs (:data:`OPTION_FIELDS`); unknown keys
and invalid values are 400s.  Task-set documents are the versioned
``repro-mc-taskset`` format of :mod:`repro.io`, so a file written by
``save_taskset`` posts as-is.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple, TypedDict

from repro.io import taskset_from_dict
from repro.model.task import ModelError
from repro.pipeline.core import JobHandle
from repro.pipeline.payload import ReportPayload
from repro.pipeline.request import AnalysisRequest

#: Current wire-protocol version; bump on any incompatible change to the
#: request or response shapes.
WIRE_VERSION = 1

#: Versions this server accepts.
SUPPORTED_WIRE_VERSIONS = (1,)

#: Analysis knobs a request's ``options`` object may set — exactly the
#: :class:`~repro.pipeline.request.AnalysisRequest` fields that are part
#: of the content-addressed key, plus the ``engine`` selector.
OPTION_FIELDS = (
    "speedup",
    "reset_budget",
    "x",
    "auto_x",
    "y",
    "lo_test",
    "resetting",
    "closed_form",
    "per_task",
    "drop_terminated_carryover",
    "max_candidates",
    "engine",
)

#: Bodies larger than this are rejected before parsing (16 MiB).
MAX_BODY_BYTES = 16 * 1024 * 1024


class WireError(ValueError):
    """A request the protocol rejects; maps to a structured 4xx response.

    Attributes
    ----------
    status:
        HTTP status code the server answers with (default 400).
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class ErrorPayload(TypedDict):
    """Body of every non-2xx response."""

    wire_version: int
    error: str


class JobPayload(TypedDict):
    """Body of ``/analyze`` and ``/jobs/{id}`` responses."""

    wire_version: int
    job_id: str
    status: str
    done: int
    total: int
    coalesced: int
    stats: Optional[Dict[str, int]]
    results: Optional[List[ReportPayload]]
    error: Optional[str]


def parse_analyze_payload(raw: bytes) -> Tuple[List[AnalysisRequest], bool]:
    """Validate an ``/analyze`` body into requests plus the ``wait`` flag.

    Raises :class:`WireError` (→ structured 400) on malformed JSON, a
    missing/unsupported ``wire_version``, an invalid task-set document,
    unknown option keys, or option values the model rejects.
    """
    if len(raw) > MAX_BODY_BYTES:
        raise WireError(
            f"request body exceeds {MAX_BODY_BYTES} bytes", status=413
        )
    try:
        document = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise WireError(f"malformed JSON body: {error}") from None
    if not isinstance(document, dict):
        raise WireError("request body must be a JSON object")

    version = document.get("wire_version")
    if version is None:
        raise WireError("missing wire_version")
    if version not in SUPPORTED_WIRE_VERSIONS:
        raise WireError(
            f"unsupported wire_version {version!r} "
            f"(supported: {', '.join(map(str, SUPPORTED_WIRE_VERSIONS))})"
        )

    if "taskset" in document and "tasksets" in document:
        raise WireError("give either 'taskset' or 'tasksets', not both")
    if "taskset" in document:
        taskset_docs: List[Any] = [document["taskset"]]
    elif "tasksets" in document:
        taskset_docs = document["tasksets"]
        if not isinstance(taskset_docs, list):
            raise WireError("'tasksets' must be a list of task-set documents")
    else:
        raise WireError("missing 'taskset' (single) or 'tasksets' (batch)")
    if not taskset_docs:
        raise WireError("empty submission: no task sets given")

    options = document.get("options", {})
    if not isinstance(options, dict):
        raise WireError("'options' must be a JSON object")
    unknown = sorted(set(options) - set(OPTION_FIELDS))
    if unknown:
        raise WireError(
            f"unknown option(s) {', '.join(map(repr, unknown))} "
            f"(accepted: {', '.join(OPTION_FIELDS)})"
        )

    wait = document.get("wait", False)
    if not isinstance(wait, bool):
        raise WireError("'wait' must be a boolean")

    requests: List[AnalysisRequest] = []
    for index, entry in enumerate(taskset_docs):
        if not isinstance(entry, dict):
            raise WireError(
                f"task set #{index} must be a repro-mc-taskset JSON object"
            )
        try:
            taskset = taskset_from_dict(entry)
        except (ValueError, TypeError, KeyError) as error:
            raise WireError(f"task set #{index} invalid: {error}") from None
        try:
            requests.append(AnalysisRequest(taskset=taskset, **options))
        except (ModelError, ValueError, TypeError) as error:
            raise WireError(f"task set #{index} rejected: {error}") from None
    return requests, wait


def job_payload(handle: JobHandle, *, include_results: bool = True) -> JobPayload:
    """Encode a :class:`~repro.pipeline.core.JobHandle` for the wire.

    ``results`` is populated only for successfully settled jobs (and only
    when ``include_results``); ``stats`` carries the job's exactly-once
    tally once it executed; ``coalesced`` is the number of duplicate
    submissions this job answered without recomputing.
    """
    results: Optional[List[ReportPayload]] = None
    if include_results and handle.is_done() and handle.error is None:
        results = handle.payloads()
    return JobPayload(
        wire_version=WIRE_VERSION,
        job_id=handle.job_id,
        status=handle.state,
        done=handle.done_count,
        total=handle.total,
        coalesced=handle.coalesced,
        stats=None if handle.stats is None else handle.stats.to_dict(),
        results=results,
        error=handle.error,
    )


def error_payload(message: str) -> ErrorPayload:
    """The structured body of a non-2xx response."""
    return ErrorPayload(wire_version=WIRE_VERSION, error=message)
