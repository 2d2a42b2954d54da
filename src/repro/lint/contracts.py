"""Serialized-surface contracts: what RL006 hashes and compares.

Four serialization lineages carry a version constant whose bump is the
*only* sanctioned way to change what goes over the wire or onto disk:

====================  ==================================================
``fingerprint``       ``FINGERPRINT_VERSION`` — the canonical task-set
                      encoding in :mod:`repro.model.fingerprint`
                      (digest functions plus the domain-separation
                      header constant).
``checkpoint``        ``CHECKPOINT_VERSION`` — the checkpoint record
                      shape: the ``ReportPayload`` / ``FailurePayload``
                      / ``CheckpointEntry`` TypedDict fields.
``cache``             ``CACHE_FORMAT_VERSION`` — the result-cache entry:
                      ``request_fingerprint`` plus the report payload.
``wire``              ``WIRE_VERSION`` — the HTTP service schema:
                      response TypedDicts, ``OPTION_FIELDS``, and the
                      report payload they embed.
====================  ==================================================

Each surface reduces to a canonical text descriptor (TypedDict field
lists, docstring-stripped ``ast.dump`` of functions, value dumps of
constants) whose SHA-256 is committed to ``lint-contracts.json``
alongside the version number seen at commit time.  RL006 then fires
when the hash moves while the version stands still — the one
combination that silently invalidates persisted data.

Items that do not resolve in the analysed tree contribute an
``absent`` marker rather than failing: fixture trees exercise single
surfaces, and a refactor that *moves* a definition shows up as a
surface change (which is exactly right — serialized bytes follow the
definition, not the file).
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.model import ProjectModel

#: Schema stamp of the committed contract file.
CONTRACTS_VERSION = 1

#: Default committed contract file, relative to the working directory.
DEFAULT_CONTRACTS_NAME = "lint-contracts.json"

#: Item kinds a surface may reference.
_FUNCTION = "function"
_TYPEDDICT = "typeddict"
_CONSTANT = "constant"

#: surface name → (version anchor, items).  The version anchor is
#: ``(module, constant name)``; items are ``(module, kind, name)``.
SURFACES: Dict[str, Dict[str, Any]] = {
    "fingerprint": {
        "version": ("repro.model.fingerprint", "FINGERPRINT_VERSION"),
        "items": [
            ("repro.model.fingerprint", _FUNCTION, "canonical_number"),
            ("repro.model.fingerprint", _FUNCTION,
             "canonical_taskset_payload"),
            ("repro.model.fingerprint", _FUNCTION, "digest_payload"),
            ("repro.model.fingerprint", _FUNCTION, "digest_task_rows"),
            ("repro.model.fingerprint", _FUNCTION, "taskset_fingerprint"),
            ("repro.model.fingerprint", _CONSTANT, "_DIGEST_HEADER"),
        ],
    },
    "checkpoint": {
        "version": ("repro.pipeline.runner", "CHECKPOINT_VERSION"),
        "items": [
            ("repro.pipeline.payload", _TYPEDDICT, "FailurePayload"),
            ("repro.pipeline.payload", _TYPEDDICT, "ReportPayload"),
            ("repro.pipeline.payload", _TYPEDDICT, "CheckpointEntry"),
        ],
    },
    "cache": {
        "version": ("repro.pipeline.cache", "CACHE_FORMAT_VERSION"),
        "items": [
            ("repro.pipeline.cache", _FUNCTION, "request_fingerprint"),
            ("repro.pipeline.payload", _TYPEDDICT, "ReportPayload"),
        ],
    },
    "wire": {
        "version": ("repro.service.schema", "WIRE_VERSION"),
        "items": [
            ("repro.service.schema", _TYPEDDICT, "ErrorPayload"),
            ("repro.service.schema", _TYPEDDICT, "JobPayload"),
            ("repro.service.schema", _CONSTANT, "OPTION_FIELDS"),
            ("repro.pipeline.payload", _TYPEDDICT, "ReportPayload"),
        ],
    },
}


def _strip_docstring(fn: ast.FunctionDef) -> ast.FunctionDef:
    clone = copy.deepcopy(fn)
    if (
        clone.body
        and isinstance(clone.body[0], ast.Expr)
        and isinstance(clone.body[0].value, ast.Constant)
        and isinstance(clone.body[0].value.value, str)
    ):
        clone.body = clone.body[1:] or [ast.Pass()]
    return clone


def _typeddict_descriptor(node: ast.ClassDef) -> str:
    fields: List[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            fields.append(
                f"{stmt.target.id}:{ast.unparse(stmt.annotation)}"
            )
    return f"typeddict {node.name}({'; '.join(sorted(fields))})"


def _item_descriptor(
    model: ProjectModel, module: str, kind: str, name: str
) -> str:
    info = model.get(module)
    if info is None:
        return f"{module}:{kind}:{name}=absent"
    if kind == _TYPEDDICT:
        node = info.classes.get(name)
        if node is None:
            return f"{module}:{kind}:{name}=absent"
        return f"{module}:{kind}:{name}={_typeddict_descriptor(node)}"
    if kind == _FUNCTION:
        fn = info.functions.get(name)
        if fn is None:
            return f"{module}:{kind}:{name}=absent"
        return f"{module}:{kind}:{name}={ast.dump(_strip_docstring(fn))}"
    assign = info.constants.get(name)
    if assign is None:
        return f"{module}:{kind}:{name}=absent"
    return f"{module}:{kind}:{name}={ast.dump(assign.value)}"


def surface_hash(model: ProjectModel, surface: str) -> Optional[str]:
    """SHA-256 over the surface's canonical descriptors.

    ``None`` when *every* item is unresolvable — the surface simply
    does not exist in the analysed tree (fixture runs).
    """
    spec = SURFACES[surface]
    descriptors = [
        _item_descriptor(model, module, kind, name)
        for module, kind, name in spec["items"]
    ]
    if all(d.endswith("=absent") for d in descriptors):
        return None
    acc = hashlib.sha256()
    for descriptor in sorted(descriptors):
        acc.update(descriptor.encode("utf-8"))
        acc.update(b"\n")
    return acc.hexdigest()


def surface_version(
    model: ProjectModel, surface: str
) -> Optional[Tuple[int, ast.Assign, str]]:
    """(version value, anchoring assignment, constant name), if present."""
    module, constant = SURFACES[surface]["version"]
    info = model.get(module)
    if info is None:
        return None
    assign = info.constants.get(constant)
    if (
        assign is None
        or not isinstance(assign.value, ast.Constant)
        or not isinstance(assign.value.value, int)
        or isinstance(assign.value.value, bool)
    ):
        return None
    return assign.value.value, assign, constant


def compute_contracts(model: ProjectModel) -> Dict[str, Any]:
    """The contract document for the current tree (``--write-contracts``)."""
    surfaces: Dict[str, Dict[str, Any]] = {}
    for name in sorted(SURFACES):
        digest = surface_hash(model, name)
        version = surface_version(model, name)
        if digest is None or version is None:
            continue
        surfaces[name] = {"version": version[0], "surface": digest}
    return {
        "lint_contracts_version": CONTRACTS_VERSION,
        "surfaces": surfaces,
    }


def load_contracts(path: Optional[Path]) -> Optional[Dict[str, Any]]:
    """The committed contract document, or ``None`` when absent or foreign."""
    if path is None or not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("lint_contracts_version") != CONTRACTS_VERSION
    ):
        return None
    return payload
