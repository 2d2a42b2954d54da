"""Tests for repro-lint's semantic layer.

Covers the whole-program project model (module naming, re-export
resolution), RL006 contract drift with must-fire and must-not-fire
fixtures, the SARIF reporter, and the acceptance proofs over the real
tree: RL006 stays silent on a pristine copy of ``src/`` and fires on a
``ReportPayload`` field added without a version bump, and the
committed contract file is fresh.

Fixture trees use the same ``repro/...`` layout as ``test_lint.py`` so
dotted module names land inside the rules' scopes.
"""

from __future__ import annotations

import ast
import json
import shutil
import textwrap
from pathlib import Path

from repro.lint import lint_project, render_sarif
from repro.lint.cli import run_lint_command
from repro.lint.contracts import compute_contracts, load_contracts
from repro.lint.engine import Finding
from repro.lint.model import ModuleInfo, build_model, module_name

REPO_ROOT = Path(__file__).resolve().parents[1]
CONTRACTS_FILE = REPO_ROOT / "lint-contracts.json"


def make_tree(tmp_path: Path, files: dict) -> Path:
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def run(root: Path, rules=None, *, contracts_path=None):
    contracts = load_contracts(contracts_path) if contracts_path else None
    return lint_project([root], rules=rules, contracts=contracts).findings


def codes(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# Project model
# ---------------------------------------------------------------------------


class TestProjectModel:
    def test_module_name_src_layout(self):
        assert module_name(Path("src/repro/analysis/dbf.py")) == (
            "repro.analysis.dbf"
        )
        assert module_name(Path("src/repro/obs/__init__.py")) == "repro.obs"
        assert module_name(Path("scratch/loose.py")) == "scratch.loose"

    def _model(self, tmp_path):
        root = make_tree(tmp_path, {
            "repro/pipeline/impl.py": """\
                def crunch(x: int) -> int:
                    \"\"\"Documented.\"\"\"
                    return x + 1
            """,
            "repro/pipeline/facade.py": """\
                from repro.pipeline.impl import crunch

                __all__ = ["crunch"]
            """,
            "repro/pipeline/top.py": """\
                from repro.pipeline.facade import crunch

                def use(x):
                    return crunch(x)
            """,
            "repro/pipeline/loner.py": "LONER = 1\n",
        })
        files = sorted(root.rglob("*.py"))
        return build_model(files)

    def test_resolve_name_follows_reexport_chain(self, tmp_path):
        model = self._model(tmp_path)
        resolved = model.resolve_name("repro.pipeline.facade", "crunch")
        assert resolved is not None
        owner, node = resolved
        assert owner.module == "repro.pipeline.impl"
        assert isinstance(node, ast.FunctionDef)
        assert node.name == "crunch"

    def test_parse_rejects_broken_source(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert ModuleInfo.parse(bad) is None


# ---------------------------------------------------------------------------
# RL006: contract drift
# ---------------------------------------------------------------------------


def _checkpoint_fixture(tmp_path: Path) -> Path:
    return make_tree(tmp_path, {
        "repro/pipeline/payload.py": """\
            from typing import TypedDict


            class FailurePayload(TypedDict):
                error: str


            class ReportPayload(TypedDict):
                fingerprint: str
                speedup: float


            class CheckpointEntry(TypedDict):
                key: str
                report: ReportPayload
        """,
        "repro/pipeline/runner.py": """\
            from repro.pipeline import payload

            CHECKPOINT_VERSION = 2
        """,
    })


def _write_contracts(root: Path, dest: Path) -> None:
    model = build_model(sorted(root.rglob("*.py")))
    dest.write_text(
        json.dumps(compute_contracts(model), indent=2, sort_keys=True)
    )


class TestRL006ContractDrift:
    def test_silent_without_contract_file(self, tmp_path):
        root = _checkpoint_fixture(tmp_path)
        assert run(root, rules=["RL006"]) == []

    def test_unchanged_surface_clean(self, tmp_path):
        root = _checkpoint_fixture(tmp_path)
        contracts = tmp_path / "contracts.json"
        _write_contracts(root, contracts)
        assert run(root, rules=["RL006"], contracts_path=contracts) == []

    def test_field_added_without_bump_fires(self, tmp_path):
        root = _checkpoint_fixture(tmp_path)
        contracts = tmp_path / "contracts.json"
        _write_contracts(root, contracts)
        payload = root / "repro" / "pipeline" / "payload.py"
        payload.write_text(payload.read_text().replace(
            "fingerprint: str", "fingerprint: str\n    extra: int"
        ))
        findings = run(root, rules=["RL006"], contracts_path=contracts)
        assert len(findings) == 1
        assert findings[0].rule == "RL006"
        # Anchored at the version constant in the owning module.
        assert findings[0].path.endswith("runner.py")
        assert "CHECKPOINT_VERSION" in findings[0].message
        assert "without bumping" in findings[0].message

    def test_bump_alongside_change_is_sanctioned(self, tmp_path):
        root = _checkpoint_fixture(tmp_path)
        contracts = tmp_path / "contracts.json"
        _write_contracts(root, contracts)
        payload = root / "repro" / "pipeline" / "payload.py"
        payload.write_text(payload.read_text().replace(
            "fingerprint: str", "fingerprint: str\n    extra: int"
        ))
        runner = root / "repro" / "pipeline" / "runner.py"
        runner.write_text(runner.read_text().replace(
            "CHECKPOINT_VERSION = 2", "CHECKPOINT_VERSION = 3"
        ))
        assert run(root, rules=["RL006"], contracts_path=contracts) == []

    def test_field_removed_without_bump_fires(self, tmp_path):
        root = _checkpoint_fixture(tmp_path)
        contracts = tmp_path / "contracts.json"
        _write_contracts(root, contracts)
        payload = root / "repro" / "pipeline" / "payload.py"
        payload.write_text(payload.read_text().replace(
            "    speedup: float\n", ""
        ))
        findings = run(root, rules=["RL006"], contracts_path=contracts)
        assert codes(findings) == ["RL006"]


class TestRL006RealTree:
    """The acceptance check, on a scratch copy of the real ``src/``."""

    SURFACE_FILES = (
        "repro/pipeline/runner.py",
        "repro/pipeline/cache.py",
        "repro/service/schema.py",
        "repro/model/fingerprint.py",
    )

    def _copy_src(self, tmp_path: Path) -> Path:
        shutil.copytree(
            REPO_ROOT / "src" / "repro", tmp_path / "src" / "repro"
        )
        return tmp_path / "src"

    def _lint_surfaces(self, src: Path):
        targets = [src / rel for rel in self.SURFACE_FILES]
        return lint_project(
            targets, rules=["RL006"], contracts=load_contracts(CONTRACTS_FILE)
        ).findings

    def test_pristine_copy_is_clean(self, tmp_path):
        src = self._copy_src(tmp_path)
        assert self._lint_surfaces(src) == []

    def test_report_payload_field_without_bump_fires(self, tmp_path):
        src = self._copy_src(tmp_path)
        payload = src / "repro" / "pipeline" / "payload.py"
        payload.write_text(payload.read_text().replace(
            "class ReportPayload(TypedDict):",
            "class ReportPayload(TypedDict):\n    drift_probe: int",
        ))
        findings = self._lint_surfaces(src)
        # ReportPayload participates in the checkpoint, cache and wire
        # surfaces; each owning module raises its own finding.
        assert codes(findings) == ["RL006"]
        constants = {
            name for f in findings
            for name in ("CHECKPOINT_VERSION", "CACHE_FORMAT_VERSION",
                         "WIRE_VERSION")
            if name in f.message
        }
        assert constants == {
            "CHECKPOINT_VERSION", "CACHE_FORMAT_VERSION", "WIRE_VERSION"
        }

    def test_report_payload_field_with_bumps_is_silent(self, tmp_path):
        src = self._copy_src(tmp_path)
        payload = src / "repro" / "pipeline" / "payload.py"
        payload.write_text(payload.read_text().replace(
            "class ReportPayload(TypedDict):",
            "class ReportPayload(TypedDict):\n    drift_probe: int",
        ))
        for rel, old, new in (
            ("repro/pipeline/runner.py",
             "CHECKPOINT_VERSION = 2", "CHECKPOINT_VERSION = 3"),
            ("repro/pipeline/cache.py",
             "CACHE_FORMAT_VERSION = 2", "CACHE_FORMAT_VERSION = 3"),
            ("repro/service/schema.py",
             "WIRE_VERSION = 1", "WIRE_VERSION = 2"),
        ):
            target = src / rel
            text = target.read_text()
            assert old in text, rel
            target.write_text(text.replace(old, new))
        assert self._lint_surfaces(src) == []


class TestContractFileFreshness:
    def test_committed_contracts_match_current_tree(self):
        files = sorted((REPO_ROOT / "src").rglob("*.py"))
        current = compute_contracts(build_model(files))
        committed = json.loads(CONTRACTS_FILE.read_text())
        assert committed == current, (
            "lint-contracts.json is stale: regenerate with "
            "`repro-mc lint src --write-contracts`"
        )

    def test_all_four_surfaces_recorded(self):
        committed = json.loads(CONTRACTS_FILE.read_text())
        assert sorted(committed["surfaces"]) == [
            "cache", "checkpoint", "fingerprint", "wire",
        ]
        for entry in committed["surfaces"].values():
            assert isinstance(entry["version"], int)
            assert len(entry["surface"]) == 64  # hex sha256


# ---------------------------------------------------------------------------
# SARIF reporter
# ---------------------------------------------------------------------------


class TestSarif:
    RL002_FINDING = Finding(
        rule="RL002", path="src/repro/analysis/x.py", line=3, col=8,
        message="float-valued comparison",
    )
    RL003_FINDING = Finding(
        rule="RL003", path="src/repro/pipeline/y.py", line=7, col=0,
        message="wall clock in deterministic scope",
    )

    def _document(self):
        return json.loads(render_sarif(
            [self.RL002_FINDING, self.RL003_FINDING], checked_files=2
        ))

    def test_version_and_schema(self):
        doc = self._document()
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        assert len(doc["runs"]) == 1

    def test_driver_lists_every_rule(self):
        driver = self._document()["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        ids = [rule["id"] for rule in driver["rules"]]
        assert ids == sorted(ids)
        assert len(ids) == 7
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]

    def test_results_reference_rules_by_index(self):
        run_obj = self._document()["runs"][0]
        ids = [rule["id"] for rule in run_obj["tool"]["driver"]["rules"]]
        for result in run_obj["results"]:
            assert ids[result["ruleIndex"]] == result["ruleId"]

    def test_locations_are_one_based(self):
        result = self._document()["runs"][0]["results"][0]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 3
        assert region["startColumn"] == 9  # engine col 8 is SARIF col 9

    def test_every_finding_is_an_unsuppressed_result(self):
        results = self._document()["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["RL002", "RL003"]
        assert not any("suppressions" in r for r in results)

    def test_cli_sarif_output_parses(self, tmp_path, capsys):
        root = make_tree(tmp_path, {
            "repro/analysis/bad.py": """\
                def f(x):
                    return x == 0.0
            """,
        })
        code = run_lint_command([str(root)], output_format="sarif")
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "RL002"

