"""Core of ``repro-lint``: findings, the registry, and the driver.

A *rule* is a callable taking a :class:`LintContext` (one parsed source
file plus the whole-program :class:`~repro.lint.model.ProjectModel`)
and yielding :class:`Finding` records.  Rules register themselves under
a stable code (``RL001`` ...) via :func:`register`.

:func:`lint_project` parses every requested file, indexes them into the
project model (alias tables, top-level definitions, re-export
resolution) and runs the selected rules over each file with that model
in hand.  A full run over ``src/`` takes under two seconds on a 2-vCPU
machine, so nothing is cached between runs.

Suppression comments must justify themselves: ``# repro-lint:
ignore[RL002] exact dedup mirrors the scalar oracle`` silences RL002 on
that line, while a bare ``# repro-lint: ignore[RL002]`` suppresses
nothing and instead raises the engine's own hygiene finding (RL000).

The engine is deliberately dependency-free (stdlib ``ast`` only) and
imports nothing from the analysed packages, so linting can never be
distorted by the code under analysis.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.model import ModuleInfo, ProjectModel, build_model

#: Suppression marker: ``# repro-lint: ignore[RL002] <why>`` silences
#: the listed rules on that line; ``# repro-lint: ignore <why>``
#: silences every rule.  The trailing justification is mandatory — a
#: reasonless marker is inert and raises RL000 instead.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore"
    r"(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
    r"(?P<reason>[^#]*)"
)

#: Engine-owned hygiene code (reasonless suppression markers).
HYGIENE_CODE = "RL000"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class LintContext:
    """Everything a rule may inspect about one source file.

    ``module`` is the dotted module name when the file lives under a
    recognised package root (``.../src/repro/analysis/dbf.py`` →
    ``repro.analysis.dbf``), else the stem.  ``model`` is the
    whole-program project model; ``info`` is this file's own entry in
    it.  ``contracts`` carries the committed serialized-surface contract
    data when a contract file was supplied (RL006 stays silent without
    one).
    """

    path: Path
    source: str
    tree: ast.Module
    module: str
    model: ProjectModel
    info: ModuleInfo
    contracts: Optional[Dict[str, object]] = None
    lines: List[str] = field(init=False)

    def __post_init__(self) -> None:
        self.lines = self.source.splitlines()

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule=rule,
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


Rule = Callable[[LintContext], Iterator[Finding]]

#: code → (rule function, one-line summary); populated by :func:`register`.
_REGISTRY: Dict[str, Tuple[Rule, str]] = {}


def register(code: str, summary: str) -> Callable[[Rule], Rule]:
    """Class/function decorator adding a rule to the registry."""

    def deco(rule: Rule) -> Rule:
        if code in _REGISTRY:
            raise ValueError(f"duplicate lint rule code {code!r}")
        _REGISTRY[code] = (rule, summary)
        return rule

    return deco


def available_rules() -> Dict[str, str]:
    """Registered rule codes mapped to their one-line summaries."""
    return {code: summary for code, (_rule, summary) in sorted(_REGISTRY.items())}


@register(HYGIENE_CODE, "suppression hygiene: every repro-lint ignore "
                        "marker carries a written justification")
def _hygiene_placeholder(context: LintContext) -> Iterator[Finding]:
    # RL000 findings are emitted by the engine's suppression scanner
    # (they come from comments, not the AST); this placeholder exists
    # so the code shows up in available_rules() and --rules validation.
    return iter(())


def _scan_suppressions(
    source: str, path: str
) -> Tuple[Dict[int, Optional[Set[str]]], List[Finding]]:
    """(line → suppressed codes, hygiene findings) for one file.

    ``None`` as the code set means "all rules".  Comments are found
    with :mod:`tokenize` rather than a substring scan, so a marker
    inside a string literal does not suppress anything.  Markers with
    no justification text after the code list suppress nothing and
    yield an RL000 finding instead.
    """
    suppressed: Dict[int, Optional[Set[str]]] = {}
    hygiene: List[Finding] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            line = token.start[0]
            reason = match.group("reason").strip(" \t-—:;,.")
            if not reason:
                hygiene.append(Finding(
                    rule=HYGIENE_CODE,
                    path=path,
                    line=line,
                    col=token.start[1],
                    message=(
                        "suppression without justification: follow the "
                        "marker with a reason, e.g. `# repro-lint: "
                        "ignore[RL002] exact dedup mirrors the oracle`"
                    ),
                ))
                continue
            codes = match.group("codes")
            if codes is None:
                suppressed[line] = None
            else:
                wanted = {
                    code.strip() for code in codes.split(",") if code.strip()
                }
                existing = suppressed.get(line)
                if line not in suppressed:
                    suppressed[line] = wanted
                elif existing is not None:
                    existing.update(wanted)
    except (tokenize.TokenError, IndentationError, StopIteration):
        pass
    return suppressed, hygiene


def _is_suppressed(
    finding: Finding, suppressed: Dict[int, Optional[Set[str]]]
) -> bool:
    if finding.rule == HYGIENE_CODE:
        return False  # hygiene findings are not themselves suppressable
    codes = suppressed.get(finding.line)
    if finding.line not in suppressed:
        return False
    return codes is None or finding.rule in codes


def _select(rules: Optional[Sequence[str]]) -> List[str]:
    selected = sorted(rules) if rules is not None else sorted(_REGISTRY)
    for code in selected:
        if code not in _REGISTRY:
            raise ValueError(
                f"unknown lint rule {code!r}; known: "
                f"{', '.join(sorted(_REGISTRY))}"
            )
    return selected


def lint_file(
    context: LintContext, rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run the selected rules over one parsed file."""
    selected = _select(rules)
    findings: List[Finding] = []
    for code in selected:
        rule, _summary = _REGISTRY[code]
        findings.extend(rule(context))
    suppressed, hygiene = _scan_suppressions(context.source, str(context.path))
    if HYGIENE_CODE in selected:
        findings.extend(hygiene)
    return [f for f in findings if not _is_suppressed(f, suppressed)]


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``*.py`` under ``paths`` (files accepted directly), sorted."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate.suffix == ".py" and candidate not in seen:
                seen.add(candidate)
                yield candidate


@dataclass
class LintRun:
    """Result of one :func:`lint_project` invocation."""

    findings: List[Finding]
    #: Every file in the linted set.
    checked_files: List[Path]
    duration_s: float


def _context_for(
    info: ModuleInfo,
    model: ProjectModel,
    contracts: Optional[Dict[str, object]],
) -> LintContext:
    return LintContext(
        path=info.path,
        source=info.source,
        tree=info.tree,
        module=info.module,
        model=model,
        info=info,
        contracts=contracts,
    )


def lint_project(
    paths: Sequence[Path],
    rules: Optional[Sequence[str]] = None,
    *,
    contracts: Optional[Dict[str, object]] = None,
) -> LintRun:
    """Parse every file under ``paths``, build the model, run the rules.

    ``contracts`` is the loaded contract document RL006 compares against
    (:func:`repro.lint.contracts.load_contracts`); without one RL006
    reports nothing.
    """
    started = time.perf_counter()
    selected = _select(rules)
    files = list(iter_python_files(paths))
    model = build_model(files)
    findings = sorted(
        (
            finding
            for info in model.linted_modules()
            for finding in lint_file(
                _context_for(info, model, contracts), selected
            )
        ),
        key=Finding.sort_key,
    )
    return LintRun(
        findings=findings,
        checked_files=files,
        duration_s=time.perf_counter() - started,
    )
