"""``repro-mc lint``: run the repro-lint rule pack from the command line.

Usage::

    repro-mc lint src/                      # text report, exit 1 on findings
    repro-mc lint src/ --format json        # machine-readable
    repro-mc lint src/ --format sarif       # SARIF 2.1.0 (CI upload)
    repro-mc lint src/ --rules RL001,RL003  # a subset of the pack
    repro-mc lint src/ --write-contracts    # regenerate lint-contracts.json

Exit status: **0** when the tree is clean, **1** on any finding, **2**
on a usage error.  A deliberate exception is suppressed inline with a
written reason (``# repro-lint: ignore[RL002] <why>``); there is no
other way to silence a finding.

RL006 compares against ``--contracts FILE``, else ``lint-contracts.json``
in the working directory.  A named contract file, or a default one
that is present, must load: one that does not is a usage error naming
it.  When the default file is absent and RL006 runs, a note on stderr
names the path that was looked for, and RL006 reports nothing.

The run summary (file count, duration) and every note go to stderr, so
stdout stays pure JSON under ``--format json``/``sarif``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.lint.contracts import (
    DEFAULT_CONTRACTS_NAME,
    compute_contracts,
    load_contracts,
)
from repro.lint.engine import (
    available_rules,
    iter_python_files,
    lint_project,
)
from repro.lint.model import build_model
from repro.lint.report import render_json, render_text
from repro.lint.sarif import render_sarif

_CONTRACT_RULE = "RL006"


def _note(message: str) -> None:
    print(f"repro-lint: {message}", file=sys.stderr)


def run_lint_command(
    paths: Sequence[str],
    *,
    output_format: str = "text",
    rules: Optional[str] = None,
    contracts_path: Optional[str] = None,
    write_contracts: bool = False,
) -> int:
    """Execute the lint subcommand; returns the process exit code."""
    targets = [Path(p) for p in (paths or ["src"])]
    for target in targets:
        if not target.exists():
            _note(f"path does not exist: {target}")
            return 2

    selected: Optional[List[str]] = None
    if rules:
        selected = [code.strip() for code in rules.split(",") if code.strip()]
        unknown = sorted(set(selected) - set(available_rules()))
        if unknown:
            _note(
                f"unknown rule(s) {', '.join(unknown)}; "
                f"available: {', '.join(available_rules())}"
            )
            return 2

    contracts_file = Path(contracts_path or DEFAULT_CONTRACTS_NAME)

    if write_contracts:
        model = build_model(list(iter_python_files(targets)))
        document = compute_contracts(model)
        contracts_file.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        _note(
            f"wrote {len(document['surfaces'])} surface contract(s) to "
            f"{contracts_file}"
        )
        return 0

    contracts: Optional[Dict[str, Any]] = None
    if contracts_path or contracts_file.is_file():
        try:
            contracts = load_contracts(contracts_file)
        except ValueError as exc:
            _note(str(exc))
            return 2
    elif selected is None or _CONTRACT_RULE in selected:
        _note(
            f"no contract file at {contracts_file.resolve()}; RL006 "
            f"(contract drift) checks nothing without one: pass "
            f"--contracts FILE"
        )

    run = lint_project(targets, selected, contracts=contracts)
    _note(
        f"{len(run.checked_files)} file(s) checked "
        f"({run.duration_s:.2f}s)"
    )

    checked = len(run.checked_files)
    if output_format == "json":
        print(render_json(run.findings, checked_files=checked))
    elif output_format == "sarif":
        print(render_sarif(run.findings, checked_files=checked))
    else:
        print(render_text(run.findings, checked_files=checked))
    return 1 if run.findings else 0
