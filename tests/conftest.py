"""Fixtures shared by more than one test module."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def child_env():
    """The environment for a child interpreter that imports this checkout's package."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py``, imported without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("oracles", "spans"):  # its sibling modules, imported by bare name
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("oracles", "spans"):
        sys.modules.pop(name, None)
