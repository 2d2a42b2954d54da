"""Tests for JSON/CSV serialization."""

import math

import pytest

from repro.io import (
    load_taskset,
    read_series_csv,
    save_taskset,
    task_from_dict,
    task_to_dict,
    taskset_from_json,
    taskset_to_json,
    write_series_csv,
)
from repro.model.task import MCTask, ModelError
from repro.model.transform import terminate_lo_tasks


class TestTaskRoundTrip:
    def test_hi_task(self):
        task = MCTask.hi("h", c_lo=1.5, c_hi=3.25, d_lo=4, d_hi=8, period=8)
        assert task_from_dict(task_to_dict(task)) == task

    def test_terminated_lo_task(self):
        task = MCTask.lo("l", c=2, d_lo=6, t_lo=6, d_hi=math.inf, t_hi=math.inf)
        encoded = task_to_dict(task)
        assert encoded["d_hi"] is None and encoded["t_hi"] is None
        assert task_from_dict(encoded) == task

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            task_from_dict({"name": "x"})

    def test_invalid_parameters_rejected_by_model(self):
        data = task_to_dict(MCTask.lo("l", c=2, d_lo=6, t_lo=6))
        data["c_lo"] = -1.0
        with pytest.raises(ModelError):
            task_from_dict(data)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("c_lo", True, "l: C(LO) must be a real number, got True (bool)"),
            ("t_lo", "10", "l: T(LO) must be a real number, got '10' (str)"),
            ("c_hi", None, "l: C(HI) must be a real number, got None (NoneType)"),
            ("name", 7, "task name must be a non-empty string, got 7"),
        ],
        ids=["bool", "string", "null", "int_name"],
    )
    def test_json_values_are_not_coerced(self, field, value, message):
        # The loader hands JSON values to the model as they are, so a
        # value MCTask(...) rejects is rejected in a file too, with the
        # model's message.
        data = task_to_dict(MCTask.lo("l", c=2, d_lo=6, t_lo=6))
        data[field] = value
        with pytest.raises(ModelError) as raised:
            task_from_dict(data)
        assert str(raised.value).startswith(message)

    def test_json_integers_still_convert(self):
        data = task_to_dict(MCTask.lo("l", c=2, d_lo=6, t_lo=6))
        data.update(c_lo=2, c_hi=2, d_lo=6, t_lo=6, d_hi=None, t_hi=None)
        task = task_from_dict(data)
        assert task == MCTask.lo("l", c=2.0, d_lo=6.0, t_lo=6.0, d_hi=math.inf, t_hi=math.inf)
        assert all(type(getattr(task, f)) is float for f in ("c_lo", "c_hi", "d_lo", "t_lo"))


class TestTasksetRoundTrip:
    def test_json_round_trip(self, table1):
        assert taskset_from_json(taskset_to_json(table1)) == table1

    def test_preserves_name(self, table1):
        assert taskset_from_json(taskset_to_json(table1)).name == "table1"

    def test_terminated_set(self, table1):
        terminated = terminate_lo_tasks(table1)
        assert taskset_from_json(taskset_to_json(terminated)) == terminated

    def test_file_round_trip(self, table1, tmp_path):
        path = tmp_path / "set.json"
        save_taskset(table1, path)
        assert load_taskset(path) == table1

    @pytest.mark.parametrize("text", ["[]", "7", '"repro-mc-taskset"'])
    def test_rejects_non_object_document(self, text):
        with pytest.raises(ValueError, match="not a repro-mc task-set document"):
            taskset_from_json(text)

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError, match="not a repro-mc"):
            taskset_from_json('{"format": "something-else"}')

    def test_rejects_future_version(self, table1):
        text = taskset_to_json(table1).replace(
            '"schema_version": 2', '"schema_version": 99'
        )
        assert '"schema_version": 99' in text
        with pytest.raises(ValueError, match="unsupported"):
            taskset_from_json(text)

    def test_reads_legacy_version_field(self, table1):
        text = taskset_to_json(table1).replace(
            '"schema_version": 2', '"version": 1'
        )
        clone = taskset_from_json(text)
        assert [t.name for t in clone] == [t.name for t in table1]

    def test_rejects_unknown_legacy_version(self, table1):
        text = taskset_to_json(table1).replace(
            '"schema_version": 2', '"version": 7'
        )
        with pytest.raises(ValueError, match="unsupported"):
            taskset_from_json(text)

    def test_analysis_survives_round_trip(self, table1):
        from repro.analysis.speedup import min_speedup

        clone = taskset_from_json(taskset_to_json(table1))
        assert min_speedup(clone).s_min == pytest.approx(4.0 / 3.0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(path, "s", [1.0, 2.0], {"dr": [6.5, 6.0], "e": [1.0, 48.0]})
        x_label, xs, cols = read_series_csv(path)
        assert x_label == "s"
        assert xs == [1.0, 2.0]
        assert cols["dr"] == [6.5, 6.0]
        assert cols["e"] == [1.0, 48.0]

    def test_infinity_round_trip(self, tmp_path):
        path = tmp_path / "inf.csv"
        write_series_csv(path, "s", [1.0], {"dr": [math.inf]})
        _, _, cols = read_series_csv(path)
        assert math.isinf(cols["dr"][0])

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="rows"):
            write_series_csv(tmp_path / "x.csv", "s", [1.0, 2.0], {"a": [1.0]})

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_series_csv(path)
