"""Serialization: task sets to/from JSON, experiment results to CSV.

A downstream user needs to feed their own workloads in and get raw
numbers out; this module provides stable, versioned formats:

* task sets — JSON with one object per task carrying the full
  ``{T, D, C}`` triple per mode (``null`` encodes the terminated-task
  infinities);
* experiment series — plain CSV with a header row, written without any
  third-party dependency.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Sequence, Union

from repro.model.task import Criticality, MCTask
from repro.model.taskset import TaskSet

if TYPE_CHECKING:  # import-for-typing only: the runtime import would
    # close the io -> pipeline -> analysis -> ... cycle
    from repro.pipeline.request import AnalysisReport

#: Current task-set document schema.  Version 2 renamed the version
#: field to ``schema_version``; version-1 documents (``"version": 1``)
#: are still read.
FORMAT_VERSION = 2

#: Schema versions the loader accepts.
SUPPORTED_VERSIONS = (1, 2)

#: Analysis-report envelope schema (separate lineage from task sets).
REPORT_FORMAT_VERSION = 1

PathLike = Union[str, Path]


def _encode_value(value: float):
    return None if math.isinf(value) else value


def _decode_value(value):
    return math.inf if value is None else value


def task_to_dict(task: MCTask) -> Dict:
    """One task as a JSON-ready dictionary."""
    return {
        "name": task.name,
        "criticality": task.crit.value,
        "c_lo": task.c_lo,
        "c_hi": task.c_hi,
        "d_lo": task.d_lo,
        "d_hi": _encode_value(task.d_hi),
        "t_lo": task.t_lo,
        "t_hi": _encode_value(task.t_hi),
    }


def task_from_dict(data: Dict) -> MCTask:
    """Inverse of :func:`task_to_dict`; validates via the model.

    Each JSON value reaches :class:`MCTask` as it is, except that
    ``null`` in ``d_hi``/``t_hi`` decodes to ``inf``.  So a JSON number
    (an integer too) converts as it does in ``MCTask(...)``, and a bool,
    a string, any other ``null`` or a non-string name fails with the
    model's own message.
    """
    try:
        crit = Criticality(data["criticality"])
        return MCTask(
            name=data["name"],
            crit=crit,
            c_lo=data["c_lo"],
            c_hi=data["c_hi"],
            d_lo=data["d_lo"],
            d_hi=_decode_value(data["d_hi"]),
            t_lo=data["t_lo"],
            t_hi=_decode_value(data["t_hi"]),
        )
    except KeyError as missing:
        raise ValueError(f"task record missing field {missing}") from None


def _document_version(payload: Dict) -> int:
    """Schema version of a document: ``schema_version``, then the legacy
    version-1 field name ``version``."""
    if "schema_version" in payload:
        return int(payload["schema_version"])
    return int(payload.get("version", 0))


def taskset_to_json(taskset: TaskSet, *, indent: int = 2) -> str:
    """Serialize a task set (with explicit schema version and name)."""
    payload = {
        "format": "repro-mc-taskset",
        "schema_version": FORMAT_VERSION,
        "name": taskset.name,
        "tasks": [task_to_dict(t) for t in taskset],
    }
    return json.dumps(payload, indent=indent)


def taskset_from_json(text: str) -> TaskSet:
    """Parse a task set serialized by :func:`taskset_to_json`."""
    return taskset_from_dict(json.loads(text))


def taskset_from_dict(payload: Dict) -> TaskSet:
    """Build a task set from an already-parsed task-set document.

    Accepts every version in :data:`SUPPORTED_VERSIONS` (version-1
    documents carry the version under the legacy ``version`` key) and
    rejects anything else — unknown future schemas fail loudly instead
    of being misread.
    """
    if not isinstance(payload, dict) or payload.get("format") != "repro-mc-taskset":
        raise ValueError("not a repro-mc task-set document")
    version = _document_version(payload)
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported task-set schema version {version} "
            f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})"
        )
    tasks = [task_from_dict(entry) for entry in payload.get("tasks", [])]
    return TaskSet(tasks, name=payload.get("name", "taskset"))


def save_taskset(taskset: TaskSet, path: PathLike) -> None:
    """Write a task set to a JSON file."""
    Path(path).write_text(taskset_to_json(taskset) + "\n")


def load_taskset(path: PathLike) -> TaskSet:
    """Read a task set from a JSON file."""
    return taskset_from_json(Path(path).read_text())


def report_to_json(report: "AnalysisReport", *, indent: int = 2) -> str:
    """Serialize an :class:`~repro.pipeline.request.AnalysisReport`."""
    payload = {
        "format": "repro-mc-analysis-report",
        "schema_version": REPORT_FORMAT_VERSION,
        "report": report.to_dict(),
    }
    return json.dumps(payload, indent=indent)


def report_from_json(text: str) -> "AnalysisReport":
    """Parse an analysis report serialized by :func:`report_to_json`."""
    # Local import: repro.pipeline depends on the analysis layer, which
    # must stay importable without this module forming a cycle.
    from repro.pipeline.request import AnalysisReport

    payload = json.loads(text)
    if payload.get("format") != "repro-mc-analysis-report":
        raise ValueError("not a repro-mc analysis-report document")
    version = _document_version(payload)
    if version != REPORT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported analysis-report schema version {version} "
            f"(supported: {REPORT_FORMAT_VERSION})"
        )
    return AnalysisReport.from_dict(payload["report"])


def save_report(report: "AnalysisReport", path: PathLike) -> None:
    """Write an analysis report to a JSON file."""
    Path(path).write_text(report_to_json(report) + "\n")


def load_report(path: PathLike) -> "AnalysisReport":
    """Read an analysis report from a JSON file."""
    return report_from_json(Path(path).read_text())


def write_series_csv(
    path: PathLike,
    x_label: str,
    xs: Sequence[float],
    columns: Dict[str, Sequence[float]],
) -> None:
    """Write an experiment series (one x column, named y columns).

    Infinite values are written as the string ``inf`` (readable by
    ``float``); lengths must agree.
    """
    for name, values in columns.items():
        if len(values) != len(xs):
            raise ValueError(f"column {name!r} has {len(values)} rows, expected {len(xs)}")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([x_label, *columns.keys()])
        for i, x in enumerate(xs):
            writer.writerow([x, *(values[i] for values in columns.values())])


def write_records_csv(path: PathLike, records: Sequence[Dict]) -> None:
    """Write heterogeneous result records (e.g. resilience verdicts).

    The header is the union of keys over all records, in first-seen
    order; missing fields are left empty.  Values are written with
    ``str`` (so ``inf``, booleans and enum names round-trip as text).
    """
    if not records:
        raise ValueError("no records to write")
    fields: List[str] = []
    for record in records:
        for key in record:
            if key not in fields:
                fields.append(key)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields, restval="")
        writer.writeheader()
        for record in records:
            writer.writerow({key: _render_cell(record.get(key)) for key in fields})


def _render_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def read_records_csv(path: PathLike) -> List[Dict[str, str]]:
    """Inverse of :func:`write_records_csv` (values come back as strings)."""
    with open(path, newline="") as handle:
        return [dict(row) for row in csv.DictReader(handle)]


def read_series_csv(path: PathLike):
    """Inverse of :func:`write_series_csv`: ``(x_label, xs, columns)``."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    header, *body = rows
    x_label, *names = header
    xs: List[float] = []
    columns: Dict[str, List[float]] = {name: [] for name in names}
    for row in body:
        xs.append(float(row[0]))
        for name, cell in zip(names, row[1:]):
            columns[name].append(float(cell))
    return x_label, xs, columns
