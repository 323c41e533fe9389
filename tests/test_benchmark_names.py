"""The benchmark reaches into periwave by name; every such name must exist."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spantrace import PACKAGE, TRACED  # noqa: E402

NAMES = [(mod, fn) for mod, fns in TRACED.items() for fn in fns] + [("cli", "load_config")]


@pytest.mark.parametrize("module,name", NAMES, ids=[f"{m}.{f}" for m, f in NAMES])
def test_traced_name_exists(module, name):
    mod = importlib.import_module(f"{PACKAGE}.{module}")
    assert callable(getattr(mod, name, None)), f"{PACKAGE}.{module}.{name} is gone"
