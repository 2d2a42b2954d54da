"""repro-lint: whole-program static analysis for this reproduction.

The analysis core makes promises the test suite can only sample:

* Theorem 2 / Corollary 5 demand-bound comparisons are **exact** — a
  float ``==`` in the wrong place silently turns a proof into a
  coin-flip (RL002);
* pipeline output is byte-identical for ``jobs=1`` and ``jobs=N`` and
  cache keys are stable across runs, which requires every source of
  entropy (wall clock, unseeded RNG, process identity) to stay out of
  fingerprint-, cache- and counter-affecting code (RL003);
* functions shipped to the :class:`~repro.pipeline.runner.BatchRunner`
  process pool must be picklable and must not communicate through
  module-level globals (RL004);
* the layering that makes all of this auditable — ``repro.obs``
  observes without participating, experiments speak only to the
  ``repro.api`` facade — must hold in every module, not just the ones a
  test happens to import (RL001);
* the public API surface stays documented and fully typed, and
  deprecated shims actually warn (RL005);
* serialized surfaces never drift without a version bump (RL006).

The engine parses every file into a
:class:`~repro.lint.model.ProjectModel` (alias tables, top-level
definitions, re-export resolution), then runs the rules with that
whole-program context.  Suppressions (``# repro-lint: ignore[RL002]
reason``) require a reason; grandfathered findings live in a committed
JSON baseline (:mod:`repro.lint.baseline`); reporters render text,
JSON and SARIF 2.1.0 (:mod:`repro.lint.report`,
:mod:`repro.lint.sarif`).  The ``repro-mc lint`` subcommand
(:mod:`repro.lint.cli`) is the entry point used by CI.
"""

from repro.lint.baseline import Baseline, load_baseline, write_baseline
from repro.lint.contracts import compute_contracts
from repro.lint.engine import (
    Finding,
    LintContext,
    LintRun,
    Rule,
    available_rules,
    lint_file,
    lint_paths,
    lint_project,
    register,
)
from repro.lint.model import ProjectModel, build_model
from repro.lint.report import render_json, render_text
from repro.lint.sarif import render_sarif

# Importing the rule pack registers every rule with the engine.
from repro.lint import rules as _rules  # noqa: F401  (import for side effect)

__all__ = [
    "Baseline",
    "Finding",
    "LintContext",
    "LintRun",
    "ProjectModel",
    "Rule",
    "available_rules",
    "build_model",
    "compute_contracts",
    "lint_file",
    "lint_paths",
    "lint_project",
    "load_baseline",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "write_baseline",
]
