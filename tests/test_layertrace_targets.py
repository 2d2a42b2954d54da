"""The traced benchmark run wraps ``repro`` functions by name.

``perfbench/layertrace.py`` lists them in ``TARGETS``; a renamed or
deleted function fails the traced runs at install time.  This checks
every name resolves the way ``Installation.install`` looks it up,
without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_layertrace_targets", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        (module_name, name)
        for _, _, module_name, names in module.TARGETS
        for name in names
    ]


@pytest.mark.parametrize("module_name,name", _targets())
def test_target_resolves(module_name, name):
    module = importlib.import_module(module_name)
    if "." in name:
        class_name, method = name.split(".", 1)
        raw = getattr(module, class_name).__dict__[method]
        assert callable(getattr(raw, "__func__", raw))
    else:
        assert callable(getattr(module, name))
