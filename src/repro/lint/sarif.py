"""SARIF 2.1.0 reporter for repro-lint.

SARIF (Static Analysis Results Interchange Format) is what code
hosting UIs ingest for inline annotations; the CI lint job uploads the
document this module renders.  The mapping is deliberately small:

* each registered rule becomes a ``reportingDescriptor`` in the tool's
  ``driver.rules`` array;
* each finding becomes a ``result`` at level ``error`` with one
  physical location (SARIF columns are 1-based, the engine's are
  0-based).  No result carries ``suppressions``: a suppressed finding
  is one an inline marker removed before reporting.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.lint.engine import Finding, available_rules

#: The SARIF spec version this document conforms to.
SARIF_VERSION = "2.1.0"

SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_TOOL_NAME = "repro-lint"
_TOOL_VERSION = "2.0.0"


def _result(finding: Finding, rule_index: Dict[str, int]) -> Dict[str, Any]:
    return {
        "ruleId": finding.rule,
        "ruleIndex": rule_index.get(finding.rule, -1),
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": max(1, finding.line),
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
    }


def render_sarif(
    findings: Sequence[Finding], *, checked_files: int = 0
) -> str:
    """The findings as a SARIF 2.1.0 JSON document."""
    rules = available_rules()
    rule_ids = sorted(rules)
    rule_index = {code: i for i, code in enumerate(rule_ids)}
    descriptors: List[Dict[str, Any]] = [
        {
            "id": code,
            "name": code,
            "shortDescription": {"text": rules[code]},
            "defaultConfiguration": {"level": "error"},
        }
        for code in rule_ids
    ]
    run: Dict[str, Any] = {
        "tool": {
            "driver": {
                "name": _TOOL_NAME,
                "version": _TOOL_VERSION,
                "informationUri":
                    "https://example.invalid/repro-mc/lint",
                "rules": descriptors,
            }
        },
        "columnKind": "utf16CodeUnits",
        "properties": {"checkedFiles": checked_files},
        "results": [_result(f, rule_index) for f in findings],
    }
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [run],
    }
    return json.dumps(document, indent=2, sort_keys=True)
