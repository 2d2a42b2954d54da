"""Tests for the repro-lint static-analysis pass (src/repro/lint/).

Each rule gets fixture snippets that MUST trigger it and snippets that
must NOT; on top of that the suite covers suppression-comment handling,
baseline round-trips, CLI exit codes, and the self-check the CI lint
job relies on: ``repro-mc lint src/`` runs clean against the committed
baseline.

Fixture trees are written under ``tmp_path`` with a ``repro/...``
package layout because the engine derives dotted module names by
anchoring at the ``repro`` path component — a file at
``<tmp>/repro/analysis/bad.py`` lints as ``repro.analysis.bad`` and
falls inside the rules' scopes exactly like the real tree.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    Finding,
    available_rules,
    lint_paths,
    load_baseline,
    render_json,
    render_text,
    write_baseline,
)
from repro.lint.cli import run_lint_command

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_tree(tmp_path: Path, files: dict) -> Path:
    """Write ``{relative_path: source}`` fixtures and return the root."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def run(root: Path, rules=None):
    return lint_paths([root], rules=rules)


def codes(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_rules_registered(self):
        assert sorted(available_rules()) == [
            "RL000", "RL001", "RL002", "RL003", "RL004",
            "RL005", "RL006",
        ]

    def test_unknown_rule_rejected(self, tmp_path):
        make_tree(tmp_path, {"repro/x.py": "X = 1\n"})
        with pytest.raises(ValueError, match="unknown lint rule"):
            run(tmp_path, rules=["RL999"])


# ---------------------------------------------------------------------------
# RL001: layering
# ---------------------------------------------------------------------------


class TestRL001Layering:
    def test_obs_importing_repro_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/obs/bad.py": """\
                from repro.analysis import dbf
            """,
        })
        findings = run(tmp_path, rules=["RL001"])
        assert len(findings) == 1
        assert findings[0].rule == "RL001"
        assert "repro.obs.bad imports repro.analysis" in findings[0].message

    def test_obs_relative_import_resolved_and_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/obs/bad.py": """\
                from ..analysis import dbf
            """,
        })
        findings = run(tmp_path, rules=["RL001"])
        assert len(findings) == 1
        assert "repro.analysis" in findings[0].message

    def test_obs_importing_itself_and_stdlib_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/obs/good.py": """\
                import json
                import time
                from repro.obs.metrics import MetricsRegistry
            """,
        })
        assert run(tmp_path, rules=["RL001"]) == []

    def test_experiments_importing_analysis_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/experiments/fig.py": """\
                from repro.analysis.speedup import min_speedup
            """,
        })
        findings = run(tmp_path, rules=["RL001"])
        assert len(findings) == 1
        assert "repro.api facade" in findings[0].message

    def test_experiments_importing_api_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/experiments/fig.py": """\
                from repro.api import analyze, analyze_many
                from repro.generator.uunifast import generate_taskset
            """,
        })
        assert run(tmp_path, rules=["RL001"]) == []

    def test_one_finding_per_import_statement(self, tmp_path):
        # `from repro.analysis import a, b` matches the ban both as the
        # module and per alias; the rule must not double-report it.
        make_tree(tmp_path, {
            "repro/experiments/fig.py": """\
                from repro.analysis import dbf, speedup
            """,
        })
        assert len(run(tmp_path, rules=["RL001"])) == 1

    def test_other_packages_unconstrained(self, tmp_path):
        make_tree(tmp_path, {
            "repro/pipeline/ok.py": """\
                from repro.analysis.speedup import min_speedup
                from repro.obs.metrics import MetricsRegistry
            """,
        })
        assert run(tmp_path, rules=["RL001"]) == []

    def test_service_importing_experiments_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/service/bad.py": """\
                from repro.experiments import fig6
            """,
        })
        findings = run(tmp_path, rules=["RL001"])
        assert len(findings) == 1
        assert "repro.service.bad imports repro.experiments" in findings[0].message
        assert "not serving dependencies" in findings[0].message

    def test_service_importing_pipeline_obs_api_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/service/good.py": """\
                from repro.api import analyze
                from repro.obs.metrics import MetricsRegistry
                from repro.pipeline.core import WorkQueueCore
            """,
        })
        assert run(tmp_path, rules=["RL001"]) == []

    def test_real_service_package_clean(self):
        service_dir = REPO_ROOT / "src" / "repro" / "service"
        assert run(service_dir, rules=["RL001"]) == []

    def test_matches_legacy_obs_ast_test(self):
        # The migrated enforcement: the real obs package must be clean
        # (this is the check tests/test_obs.py used to hand-roll).
        obs_dir = REPO_ROOT / "src" / "repro" / "obs"
        assert run(obs_dir, rules=["RL001"]) == []

    def test_multiproc_importing_experiments_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/multiproc/bad.py": """\
                from repro.experiments import figM
            """,
        })
        findings = run(tmp_path, rules=["RL001"])
        assert len(findings) == 1
        assert "repro.multiproc.bad imports repro.experiments" in findings[0].message
        assert "cycle" in findings[0].message

    def test_multiproc_importing_service_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/multiproc/bad.py": """\
                from repro.service.client import AnalysisClient
            """,
        })
        findings = run(tmp_path, rules=["RL001"])
        assert len(findings) == 1
        assert "repro.multiproc.bad imports repro.service" in findings[0].message

    def test_multiproc_importing_analysis_baselines_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/multiproc/good.py": """\
                from repro.analysis.population import min_speedup_many
                from repro.baselines.edf_vd_degraded import (
                    edf_vd_degraded_schedulable,
                )
                from repro.model.taskset import TaskSet
            """,
        })
        assert run(tmp_path, rules=["RL001"]) == []

    def test_real_multiproc_package_clean(self):
        multiproc_dir = REPO_ROOT / "src" / "repro" / "multiproc"
        assert run(multiproc_dir, rules=["RL001"]) == []


# ---------------------------------------------------------------------------
# RL002: float equality in repro.analysis
# ---------------------------------------------------------------------------


class TestRL002FloatEquality:
    def test_float_literal_equality_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/analysis/bad.py": """\
                def f(x):
                    return x == 0.0
            """,
        })
        findings = run(tmp_path, rules=["RL002"])
        assert len(findings) == 1
        assert "'=='" in findings[0].message

    @pytest.mark.parametrize("expr", [
        "x != 1.5",
        "x == float(y)",
        "math.sqrt(x) == y",
        "x / y == z",
        "x == -0.5",
        "x == a + 0.25 * b",
        "x is 0.0",
    ])
    def test_float_valued_forms_flagged(self, tmp_path, expr):
        make_tree(tmp_path, {
            "repro/analysis/bad.py": f"""\
                import math

                def f(x, y, z, a, b):
                    return {expr}
            """,
        })
        assert codes(run(tmp_path, rules=["RL002"])) == ["RL002"]

    @pytest.mark.parametrize("expr", [
        "x <= 0.0",           # ordering comparisons are fine
        "x < 1.5",
        "n == 0",             # int equality is fine
        "name == 'exact'",    # strings are fine
        "x == y",             # bare names: type unknown, stay silent
        "math.floor(x) == n",  # int-returning math call
    ])
    def test_non_float_comparisons_clean(self, tmp_path, expr):
        make_tree(tmp_path, {
            "repro/analysis/ok.py": f"""\
                import math

                def f(x, y, n, name):
                    return {expr}
            """,
        })
        assert run(tmp_path, rules=["RL002"]) == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        make_tree(tmp_path, {
            "repro/model/loose.py": """\
                def f(x):
                    return x == 0.0
            """,
        })
        assert run(tmp_path, rules=["RL002"]) == []


# ---------------------------------------------------------------------------
# RL003: determinism
# ---------------------------------------------------------------------------


class TestRL003Determinism:
    @pytest.mark.parametrize("body", [
        "import time\nstamp = time.time()",
        "import time\nstamp = time.time_ns()",
        "import datetime\nnow = datetime.datetime.now()",
        "from datetime import datetime\nnow = datetime.utcnow()",
        "import os\nnoise = os.urandom(8)",
        "import uuid\nkey = uuid.uuid4()",
        "import secrets\ntok = secrets.token_hex()",
        "import random\nx = random.random()",
        "import random\nrandom.shuffle([1, 2])",
        "import numpy as np\nx = np.random.rand(4)",
        "import numpy as np\nrng = np.random.default_rng()",
        "import random\nrng = random.Random()",
    ])
    def test_entropy_sources_flagged(self, tmp_path, body):
        make_tree(tmp_path, {"repro/pipeline/bad.py": body + "\n"})
        findings = run(tmp_path, rules=["RL003"])
        assert codes(findings) == ["RL003"], body

    @pytest.mark.parametrize("body", [
        "import time\nt0 = time.perf_counter()",   # timings are observability
        "import time\nt0 = time.monotonic()",
        "import numpy as np\nrng = np.random.default_rng(42)",
        "import random\nrng = random.Random(7)",
        "import numpy as np\nss = np.random.SeedSequence(1234)",
        "import uuid\nkey = uuid.uuid5(uuid.NAMESPACE_DNS, 'x')",  # content-derived
    ])
    def test_deterministic_constructs_clean(self, tmp_path, body):
        make_tree(tmp_path, {"repro/pipeline/ok.py": body + "\n"})
        assert run(tmp_path, rules=["RL003"]) == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        # repro.report is presentation-layer: wall clock is legal there.
        make_tree(tmp_path, {
            "repro/report.py": "import time\nstamp = time.time()\n",
        })
        assert run(tmp_path, rules=["RL003"]) == []

    def test_alias_resolution(self, tmp_path):
        # `from time import time as _clock` must still be caught.
        make_tree(tmp_path, {
            "repro/generator/bad.py": """\
                from time import time as _clock

                def stamp():
                    return _clock()
            """,
        })
        assert codes(run(tmp_path, rules=["RL003"])) == ["RL003"]

    def test_real_deterministic_scope_clean(self):
        for package in ("model", "analysis", "pipeline", "generator"):
            target = REPO_ROOT / "src" / "repro" / package
            assert run(target, rules=["RL003"]) == [], package


# ---------------------------------------------------------------------------
# RL004: fork-safety
# ---------------------------------------------------------------------------

class TestRL004ForkSafety:
    def test_lambda_submission_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/pipeline/bad.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        return [pool.submit(lambda x: x + 1, i) for i in items]
            """,
        })
        findings = run(tmp_path, rules=["RL004"])
        assert len(findings) == 1
        assert "lambdas do not pickle" in findings[0].message

    def test_nested_function_submission_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/pipeline/bad.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def run(items):
                    def helper(x):
                        return x + 1
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(helper, items))
            """,
        })
        findings = run(tmp_path, rules=["RL004"])
        assert len(findings) == 1
        assert "closures do not pickle" in findings[0].message

    def test_bound_method_submission_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/pipeline/bad.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def run(obj, items):
                    with ProcessPoolExecutor() as pool:
                        return [pool.submit(obj.work, i) for i in items]
            """,
        })
        findings = run(tmp_path, rules=["RL004"])
        assert len(findings) == 1
        assert "module-level function" in findings[0].message

    def test_global_write_in_worker_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/pipeline/bad.py": """\
                from concurrent.futures import ProcessPoolExecutor

                COUNTER = 0

                def worker(x):
                    global COUNTER
                    COUNTER += 1
                    return x

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(worker, items))
            """,
        })
        findings = run(tmp_path, rules=["RL004"])
        assert len(findings) == 1
        assert "COUNTER" in findings[0].message
        assert "never share that write back" in findings[0].message

    def test_transitive_shared_state_write_flagged(self, tmp_path):
        # worker -> helper; only helper touches the module-level dict.
        make_tree(tmp_path, {
            "repro/pipeline/bad.py": """\
                from concurrent.futures import ProcessPoolExecutor

                CACHE = {}

                def helper(x):
                    CACHE[x] = x * 2
                    return CACHE[x]

                def worker(x):
                    return helper(x)

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(worker, items))
            """,
        })
        findings = run(tmp_path, rules=["RL004"])
        assert len(findings) == 1
        assert "worker -> helper" in findings[0].message
        assert "CACHE" in findings[0].message

    def test_cross_module_traversal(self, tmp_path):
        # The submitted function is imported from a sibling module; the
        # traversal must follow the import through the project index.
        make_tree(tmp_path, {
            "repro/pipeline/jobs.py": """\
                STATE = {}

                def crunch(x):
                    STATE[x] = x
                    return x
            """,
            "repro/pipeline/bad.py": """\
                from concurrent.futures import ProcessPoolExecutor

                from repro.pipeline.jobs import crunch

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(crunch, items))
            """,
        })
        findings = run(tmp_path, rules=["RL004"])
        assert len(findings) == 1
        assert "repro.pipeline.jobs.crunch" in findings[0].message

    def test_pure_worker_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/pipeline/ok.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def worker(x):
                    local = {}
                    local[x] = x * 2
                    return local[x]

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(worker, items))
            """,
        })
        assert run(tmp_path, rules=["RL004"]) == []

    def test_parameter_submission_skipped(self, tmp_path):
        # map_items-style generic fan-out: fn is a parameter, semantics
        # belong to the caller; the rule must stay silent.
        make_tree(tmp_path, {
            "repro/pipeline/ok.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def fan_out(fn, items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(fn, items))
            """,
        })
        assert run(tmp_path, rules=["RL004"]) == []

    def test_local_shadowing_not_flagged(self, tmp_path):
        # A local name that shadows a module-level binding is worker-local.
        make_tree(tmp_path, {
            "repro/pipeline/ok.py": """\
                from concurrent.futures import ProcessPoolExecutor

                CACHE = {}

                def worker(x):
                    CACHE = {}
                    CACHE[x] = x
                    return CACHE[x]

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(worker, items))
            """,
        })
        assert run(tmp_path, rules=["RL004"]) == []

    def test_real_runner_clean(self):
        runner = REPO_ROOT / "src" / "repro" / "pipeline" / "runner.py"
        assert run(runner, rules=["RL004"]) == []


# ---------------------------------------------------------------------------
# RL005: api surface
# ---------------------------------------------------------------------------


class TestRL005ApiSurface:
    def test_unannotated_export_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/api.py": """\
                __all__ = ["analyze"]

                def analyze(taskset, speedup=None):
                    \"\"\"Documented but untyped.\"\"\"
                    return taskset
            """,
        })
        findings = run(tmp_path, rules=["RL005"])
        assert len(findings) == 1
        assert "missing type annotations" in findings[0].message
        assert "taskset" in findings[0].message
        assert "return" in findings[0].message

    def test_undocumented_export_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/api.py": """\
                __all__ = ["analyze"]

                def analyze(x: int) -> int:
                    return x
            """,
        })
        findings = run(tmp_path, rules=["RL005"])
        assert len(findings) == 1
        assert "no docstring" in findings[0].message

    def test_clean_export_passes(self, tmp_path):
        make_tree(tmp_path, {
            "repro/api.py": """\
                __all__ = ["analyze"]

                def analyze(x: int, *, y: float = 0.5) -> int:
                    \"\"\"Fully typed and documented.\"\"\"
                    return x
            """,
        })
        assert run(tmp_path, rules=["RL005"]) == []

    def test_private_helpers_exempt(self, tmp_path):
        make_tree(tmp_path, {
            "repro/api.py": """\
                __all__ = []

                def _internal(x):
                    return x
            """,
        })
        assert run(tmp_path, rules=["RL005"]) == []

    def test_reexport_resolved_and_anchored_in_api(self, tmp_path):
        # The defect lives in repro.pipeline.stats, but the finding must
        # anchor at the api.py import site so suppression/baseline
        # identity stays in the facade file.
        make_tree(tmp_path, {
            "repro/pipeline/stats.py": """\
                def summarize(reports):
                    return len(reports)
            """,
            "repro/api.py": """\
                from repro.pipeline.stats import summarize

                __all__ = ["summarize"]
            """,
        })
        findings = run(tmp_path, rules=["RL005"])
        assert findings, "re-exported unannotated function must be flagged"
        assert all(f.path.endswith("api.py") for f in findings)
        assert any(
            "defined in repro.pipeline.stats" in f.message for f in findings
        )

    def test_silent_getattr_shim_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/legacy.py": """\
                def __getattr__(name):
                    if name == "old_name":
                        from repro.model import new_name
                        return new_name
                    raise AttributeError(name)
            """,
        })
        findings = run(tmp_path, rules=["RL005"])
        assert len(findings) == 1
        assert "DeprecationWarning" in findings[0].message

    def test_warning_getattr_shim_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/legacy.py": """\
                import warnings

                def __getattr__(name):
                    if name == "old_name":
                        warnings.warn(
                            "old_name is deprecated", DeprecationWarning,
                            stacklevel=2,
                        )
                        from repro.model import new_name
                        return new_name
                    raise AttributeError(name)
            """,
        })
        assert run(tmp_path, rules=["RL005"]) == []

    def test_real_api_clean(self):
        api = REPO_ROOT / "src" / "repro" / "api.py"
        assert run(api, rules=["RL005"]) == []


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------


class TestSuppression:
    BAD = """\
        def f(x):
            return x == 0.0{marker}
    """

    def _findings(self, tmp_path, marker):
        make_tree(tmp_path, {
            "repro/analysis/s.py": self.BAD.format(marker=marker),
        })
        return run(tmp_path, rules=["RL002"])

    def test_targeted_suppression(self, tmp_path):
        marker = "  # repro-lint: ignore[RL002] exact sentinel by spec"
        assert self._findings(tmp_path, marker) == []

    def test_blanket_suppression(self, tmp_path):
        marker = "  # repro-lint: ignore exact sentinel by spec"
        assert self._findings(tmp_path, marker) == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        marker = "  # repro-lint: ignore[RL003] exact sentinel by spec"
        findings = self._findings(tmp_path, marker)
        assert codes(findings) == ["RL002"]

    def test_multiple_codes(self, tmp_path):
        marker = "  # repro-lint: ignore[RL003, RL002] exact sentinel by spec"
        assert self._findings(tmp_path, marker) == []

    def test_reasonless_marker_is_inert(self, tmp_path):
        # v2: a suppression must justify itself.  A bare marker
        # suppresses nothing...
        findings = self._findings(tmp_path, "  # repro-lint: ignore[RL002]")
        assert codes(findings) == ["RL002"]

    def test_reasonless_marker_raises_hygiene_finding(self, tmp_path):
        # ...and raises the engine's own RL000 when the full pack runs.
        make_tree(tmp_path, {
            "repro/analysis/s.py": self.BAD.format(
                marker="  # repro-lint: ignore[RL002]"
            ),
        })
        findings = run(tmp_path, rules=["RL000", "RL002"])
        assert codes(findings) == ["RL000", "RL002"]
        hygiene = [f for f in findings if f.rule == "RL000"]
        assert "without justification" in hygiene[0].message

    def test_hygiene_finding_is_not_suppressable(self, tmp_path):
        # A blanket reasonless marker cannot silence its own RL000.
        make_tree(tmp_path, {
            "repro/analysis/s.py": self.BAD.format(
                marker="  # repro-lint: ignore"
            ),
        })
        findings = run(tmp_path, rules=["RL000"])
        assert codes(findings) == ["RL000"]

    def test_suppression_only_covers_its_line(self, tmp_path):
        make_tree(tmp_path, {
            "repro/analysis/s.py": """\
                def f(x, y):
                    a = x == 0.0  # repro-lint: ignore[RL002] exact by spec
                    b = y == 0.0
                    return a or b
            """,
        })
        findings = run(tmp_path, rules=["RL002"])
        assert len(findings) == 1
        assert findings[0].line == 3

    def test_marker_inside_string_literal_ignored(self, tmp_path):
        # The scanner is tokenize-based: a marker in a string is data.
        make_tree(tmp_path, {
            "repro/analysis/s.py": """\
                def f(x):
                    note = "# repro-lint: ignore[RL002]"
                    return x == 0.0, note
            """,
        })
        assert codes(run(tmp_path, rules=["RL002"])) == ["RL002"]


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    def _findings(self, tmp_path):
        make_tree(tmp_path, {
            "repro/analysis/bad.py": """\
                def f(x):
                    return x == 0.0
            """,
        })
        return run(tmp_path, rules=["RL002"])

    def test_round_trip(self, tmp_path):
        findings = self._findings(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, findings)
        loaded = load_baseline(baseline_file)
        fresh, grandfathered = loaded.split(findings)
        assert fresh == []
        assert grandfathered == findings

    def test_baseline_is_line_independent(self, tmp_path):
        findings = self._findings(tmp_path)
        baseline = Baseline.from_findings(findings)
        moved = Finding(
            rule=findings[0].rule,
            path=findings[0].path,
            line=findings[0].line + 10,  # edits above shifted the line
            col=0,
            message=findings[0].message,
        )
        assert moved in baseline

    def test_new_finding_stays_fresh(self, tmp_path):
        findings = self._findings(tmp_path)
        baseline = Baseline.from_findings(findings)
        new = Finding(
            rule="RL002", path=findings[0].path, line=9, col=0,
            message="a different defect",
        )
        fresh, grandfathered = baseline.split([*findings, new])
        assert fresh == [new]
        assert grandfathered == findings

    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert len(load_baseline(tmp_path / "nope.json")) == 0

    def test_unknown_version_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"baseline_version": 99, "findings": []}))
        with pytest.raises(ValueError, match="baseline_version"):
            load_baseline(bad)


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


class TestReporters:
    FINDING = Finding(
        rule="RL002", path="repro/analysis/x.py", line=3, col=8,
        message="float-valued comparison",
    )

    def test_text_format(self):
        text = render_text([self.FINDING], [], checked_files=1)
        assert "repro/analysis/x.py:3:8: RL002 float-valued comparison" in text
        assert "1 finding(s)" in text

    def test_json_format(self):
        payload = json.loads(render_json([self.FINDING], [], checked_files=5))
        assert payload["lint_schema_version"] == 1
        assert payload["checked_files"] == 5
        assert payload["findings"][0]["rule"] == "RL002"
        assert payload["findings"][0]["line"] == 3
        assert payload["baselined"] == []
        assert "RL002" in payload["rules"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def _bad_tree(self, tmp_path):
        return make_tree(tmp_path, {
            "repro/analysis/bad.py": """\
                def f(x):
                    return x == 0.0
            """,
        })

    def test_findings_exit_1(self, tmp_path, capsys):
        root = self._bad_tree(tmp_path)
        code = run_lint_command(
            [str(root)], baseline_path=str(tmp_path / "b.json")
        )
        assert code == 1
        assert "RL002" in capsys.readouterr().out

    def test_write_baseline_then_grandfathered_exit_3(self, tmp_path, capsys):
        root = self._bad_tree(tmp_path)
        baseline = str(tmp_path / "b.json")
        assert run_lint_command(
            [str(root)], baseline_path=baseline, update_baseline=True
        ) == 0
        capsys.readouterr()
        # Exit-code contract: only-baselined findings exit 3, so
        # clean-but-grandfathered is distinguishable from clean.
        assert run_lint_command([str(root)], baseline_path=baseline) == 3
        assert "baselined" in capsys.readouterr().out

    def test_actually_clean_tree_exits_0(self, tmp_path, capsys):
        root = make_tree(tmp_path, {
            "repro/analysis/ok.py": """\
                def f(x: float) -> float:
                    return x + 1.0
            """,
        })
        assert run_lint_command(
            [str(root)], baseline_path=str(tmp_path / "b.json")
        ) == 0
        capsys.readouterr()

    def test_json_output(self, tmp_path, capsys):
        root = self._bad_tree(tmp_path)
        code = run_lint_command(
            [str(root)], output_format="json",
            baseline_path=str(tmp_path / "b.json"),
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "RL002"

    def test_missing_path_exit_2(self, tmp_path, capsys):
        assert run_lint_command([str(tmp_path / "nope")]) == 2
        # Diagnostics go to stderr so stdout stays pure JSON/SARIF.
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_rule_exit_2(self, tmp_path, capsys):
        root = self._bad_tree(tmp_path)
        assert run_lint_command([str(root)], rules="RL042") == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_rule_subset(self, tmp_path, capsys):
        root = self._bad_tree(tmp_path)
        assert run_lint_command(
            [str(root)], rules="RL001,RL003",
            baseline_path=str(tmp_path / "b.json"),
        ) == 0
        capsys.readouterr()

    def test_repro_mc_dispatch(self, tmp_path, capsys):
        # The `repro-mc lint` wiring end to end through the main parser.
        from repro.cli import main

        root = self._bad_tree(tmp_path)
        code = main([
            "lint", str(root), "--baseline", str(tmp_path / "b.json"),
        ])
        assert code == 1
        assert "RL002" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Self-check: the shipped tree is clean (the CI lint job's contract)
# ---------------------------------------------------------------------------


class TestSelfCheck:
    def test_src_lints_clean_against_committed_baseline(self, capsys):
        code = run_lint_command(
            [str(REPO_ROOT / "src")],
            output_format="json",
            baseline_path=str(REPO_ROOT / "lint-baseline.json"),
            contracts_path=str(REPO_ROOT / "lint-contracts.json"),
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0, payload["findings"]
        assert payload["findings"] == []

    def test_committed_baseline_is_empty(self):
        # Acceptance criterion: the tree is clean outright, not merely
        # grandfathered — every justified exception is an inline
        # suppression with a comment, not a baseline entry.
        assert len(load_baseline(REPO_ROOT / "lint-baseline.json")) == 0
