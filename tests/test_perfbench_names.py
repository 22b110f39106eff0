"""The benchmark's traced span names resolve on the package.

The traced benchmark run sums the time and item counts of spans named
``<module>.<function>``.  A name that no longer resolves is never timed and
silently reads 0, so every name in ``perfbench/workloads.py``'s
``LAYER_TIMES``, ``LAYER_COUNTS`` and ``SINGLE_PASS`` must resolve, except
the ones listed in ``STALE``.  That list is strict: a listed name that
resolves again, or leaves the benchmark, fails the test too.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# names the benchmark still traces although the package has no such function;
# each leaves this list when the benchmark's layer map is brought up to date
STALE = {
    "bijection.inverse_parts",
    "bijection.step_labels",
    "counting.sample_delannoy",
    "geometry.east_ends",
    "lattice_core.make_kimberling",
}


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


def _resolves(name):
    module, _, attribute = name.partition(".")
    return hasattr(importlib.import_module(f"delannoy_kit.{module}"), attribute)


def test_every_traced_name_resolves_but_the_listed_stale_ones(workloads):
    names = set(workloads.SINGLE_PASS).union(
        *workloads.LAYER_TIMES.values(), *workloads.LAYER_COUNTS.values()
    )
    assert {name for name in names if not _resolves(name)} == STALE
