"""The benchmark's traced span names resolve on the package.

The traced benchmark run sums the time and item counts of spans named
``<module>.<function>``.  A name that no longer resolves is never timed and
silently reads 0, so every name in ``perfbench/workloads.py``'s
``LAYER_TIMES``, ``LAYER_COUNTS`` and ``SINGLE_PASS`` must resolve, except
the ones listed in ``STALE``.  That list is strict: a listed name that
resolves again, or leaves the benchmark, fails the test too.
"""

import importlib

# names the benchmark still traces although the package has no such function;
# each leaves this list when the benchmark's layer map is brought up to date
STALE = {
    "bijection.inverse_parts",
    "bijection.step_labels",
    "counting.sample_delannoy",
    "geometry.east_ends",
    "lattice_core.make_kimberling",
}


def _resolves(name):
    module, _, attribute = name.partition(".")
    return hasattr(importlib.import_module(f"delannoy_kit.{module}"), attribute)


def test_every_traced_name_resolves_but_the_listed_stale_ones(workloads):
    names = set(workloads.SINGLE_PASS).union(
        *workloads.LAYER_TIMES.values(), *workloads.LAYER_COUNTS.values()
    )
    assert {name for name in names if not _resolves(name)} == STALE
