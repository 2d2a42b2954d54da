"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "s_min" in out and "4/3" in out

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "bounds hold: True" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        assert "Delta_R" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "Figure 4a" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig2"])

    def test_requires_argument(self):
        with pytest.raises(SystemExit):
            main([])


class TestAnalyze:
    @pytest.fixture
    def taskset_file(self, tmp_path):
        from repro.experiments.table1 import table1_taskset
        from repro.io import save_taskset

        path = tmp_path / "set.json"
        save_taskset(table1_taskset(), path)
        return str(path)

    def test_analyze_report(self, taskset_file, capsys):
        assert main(["analyze", "--taskset", taskset_file, "--speedup", "2"]) == 0
        out = capsys.readouterr().out
        assert "1.33333" in out
        assert "resetting time" in out

    def test_analyze_with_budget(self, taskset_file, capsys):
        assert main(
            ["analyze", "--taskset", taskset_file, "--speedup", "2", "--budget", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "Within recovery budget 6" in out and "True" in out

    def test_analyze_requires_file(self):
        with pytest.raises(SystemExit):
            main(["analyze"])

    @pytest.mark.parametrize(
        "args", [["--speedup", "0"], ["--speedup", "nan"], ["--budget", "-1"]]
    )
    def test_analyze_rejects_invalid_targets(self, taskset_file, args):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--taskset", taskset_file, *args])
        assert exit_info.value.code == 2


TABLE1_HEADER = """\
Task set 'table1' (2 tasks):
task      chi      C(LO)    C(HI)    D(LO)    D(HI)    T(LO)    T(HI)
---------------------------------------------------------------------
tau1      HI           1        3        1        4        4        4
tau2      LO           2        2        4        4        4        4

LO mode schedulable at nominal speed: True
Theorem 2 minimum HI-mode speedup:    1.33333
"""


class TestAnalyzeGolden:
    """Full text of ``repro-mc analyze``: every line, spacing included."""

    def _run(self, tmp_path, capsys, taskset, *args):
        from repro.io import save_taskset

        path = tmp_path / "set.json"
        save_taskset(taskset, path)
        assert main(["analyze", "--taskset", str(path), *args]) == 0
        return capsys.readouterr().out

    def test_table1_within_budget(self, table1, tmp_path, capsys):
        out = self._run(tmp_path, capsys, table1, "--speedup", "2", "--budget", "6")
        assert out == TABLE1_HEADER + (
            "HI mode schedulable at s = 2:      True\n"
            "Corollary 5 resetting time at s = 2: 6\n"
            "Within recovery budget 6:        True\n"
            "Speedup margin (headroom):            0.666667\n"
            "Max tolerable WCET ratio gamma:       2.999\n"
        )

    def test_table1_below_s_min(self, table1, tmp_path, capsys):
        out = self._run(tmp_path, capsys, table1, "--speedup", "1.2", "--budget", "100")
        assert out == TABLE1_HEADER + (
            "HI mode schedulable at s = 1.2:      False\n"
            "Speedup margin (headroom):            -0.133333\n"
        )

    def test_lo_infeasible_misses_the_budget(self, lo_overload, tmp_path, capsys):
        # Delta_R = 5.5 is within 100, but the design fails LO mode.
        out = self._run(tmp_path, capsys, lo_overload, "--budget", "100")
        assert out == (
            "Task set 'lo_overload' (3 tasks):\n"
            "task      chi      C(LO)    C(HI)    D(LO)    D(HI)    T(LO)    T(HI)\n"
            "---------------------------------------------------------------------\n"
            "h         HI           1        2        4       10       10       10\n"
            "a         LO           5        5        8       16        8       16\n"
            "b         LO           4        4       10       20       10       20\n"
            "\n"
            "LO mode schedulable at nominal speed: False\n"
            "Theorem 2 minimum HI-mode speedup:    0.785714\n"
            "HI mode schedulable at s = 2:      True\n"
            "Corollary 5 resetting time at s = 2: 5.5\n"
            "Within recovery budget 100:        False\n"
            "Speedup margin (headroom):            1.21429\n"
        )


class TestBatchLoadErrors:
    """A task-set file that does not load ends ``batch`` as a usage
    error naming the file (exit 2), never with a traceback."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "t1: C(LO) must be non-negative, got -1.0"),
            ("{not json", "Expecting property name enclosed in double quotes"),
            ('{"format": "something-else"}', "not a repro-mc task-set document"),
            ("[]", "not a repro-mc task-set document"),
            (
                '{"format": "repro-mc-taskset", "schema_version": 99, "tasks": []}',
                "unsupported task-set schema version 99",
            ),
        ],
        ids=["model", "malformed", "foreign", "not_an_object", "future"],
    )
    def test_bad_file_is_a_usage_error(self, tmp_path, capsys, text, message):
        import json

        from repro.experiments.table1 import table1_taskset
        from repro.io import save_taskset, taskset_to_json

        save_taskset(table1_taskset(), tmp_path / "a_good.json")
        if text is None:
            document = json.loads(taskset_to_json(table1_taskset()))
            document["tasks"][0]["name"] = "t1"
            document["tasks"][0]["c_lo"] = -1.0
            text = json.dumps(document)
        bad = tmp_path / "b_bad.json"
        bad.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", "--tasksets", str(tmp_path), "--speedup", "2"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"error: --tasksets: cannot load {bad}: " in captured.err
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert "Batch analysis" not in captured.out


class TestAnalyzeLoadErrors:
    """A task-set file that does not load ends ``analyze`` as a usage
    error naming the file (exit 2), on the default and the report path."""

    @pytest.fixture
    def bad_file(self, tmp_path):
        import json

        from repro.experiments.table1 import table1_taskset
        from repro.io import taskset_to_json

        document = json.loads(taskset_to_json(table1_taskset()))
        document["tasks"][0]["name"] = "t1"
        document["tasks"][0]["c_lo"] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        return bad

    @pytest.mark.parametrize("extra", [[], ["--report"]], ids=["default", "report"])
    def test_model_error_is_a_usage_error(self, bad_file, capsys, extra):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--taskset", str(bad_file), "--speedup", "2", *extra])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"error: --taskset: cannot load {bad_file}: " in captured.err
        assert "t1: C(LO) must be non-negative, got -1.0" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("extra", [[], ["--report"]], ids=["default", "report"])
    def test_missing_file_is_a_usage_error(self, tmp_path, capsys, extra):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--taskset", str(missing), *extra])
        assert exit_info.value.code == 2
        assert f"error: --taskset: cannot load {missing}: " in capsys.readouterr().err
