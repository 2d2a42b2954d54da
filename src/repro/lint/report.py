"""Reporters: findings as human text or machine JSON.

The JSON document is what scripts consume: stable key order, a schema
version, the registered rules, the checked-file count and every
finding.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.lint.engine import Finding, available_rules

#: Version stamped into the JSON report; 2 has no ``baselined`` list.
REPORT_SCHEMA_VERSION = 2


def render_text(
    findings: Sequence[Finding], *, checked_files: int = 0
) -> str:
    """Human-readable report, one ``path:line:col CODE message`` per line."""
    out: List[str] = []
    for finding in findings:
        out.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule} {finding.message}"
        )
    out.append(
        f"repro-lint: {len(findings)} finding(s) in {checked_files} file(s)"
    )
    return "\n".join(out)


def render_json(
    findings: Sequence[Finding], *, checked_files: int = 0
) -> str:
    """Machine-readable report (sorted keys, schema-versioned)."""
    payload: Dict[str, object] = {
        "lint_schema_version": REPORT_SCHEMA_VERSION,
        "rules": available_rules(),
        "checked_files": checked_files,
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
