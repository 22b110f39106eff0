"""The plain-data kernels that the verify sweep runs.

Each public map, predicate and slice enumerator checks its input, then
delegates to a kernel on word strings and interior columns (a path's
interior x's and y's, with its height or endpoint) and boxes what it
returns.  These tests pin every kernel to its public function at every
order n <= 6, errors included, and check that a sweep builds no path
object at all.
"""

import itertools

import pytest

from delannoy_kit import (
    BadEndpoint,
    DelannoyPath,
    KimberlingPath,
    NotCentral,
    enumerate_delannoy_by_e,
    enumerate_kimberling_by_vertices,
    is_subdiagonal_delannoy,
    is_subdiagonal_kimberling,
    phi,
    phi_inverse,
)
from delannoy_kit import bijection, counting, geometry, harness, lattice_core
from delannoy_kit.bijection import _image, _preimage
from delannoy_kit.counting import _vertex_columns, _words_by_e
from delannoy_kit.geometry import _below_chord, _word_below_diagonal

ORDERS = range(7)


def _outcome(fn, arg):
    """What ``fn(arg)`` returns, or the type, message and fields of the
    ``NotCentral`` or ``BadEndpoint`` it raises."""
    try:
        return fn(arg)
    except (NotCentral, BadEndpoint) as exc:
        return type(exc), exc.args, vars(exc)


@pytest.mark.parametrize("n", ORDERS)
def test_each_public_function_is_its_kernel_boxed(n):
    # boxed with the checking constructors, so every kernel value is also valid
    for k in range(-1, n + 2):
        words = list(_words_by_e(n, k))
        assert list(enumerate_delannoy_by_e(n, k)) == [DelannoyPath(w) for w in words]
        columns = list(_vertex_columns(n + 1, n, k))
        assert list(enumerate_kimberling_by_vertices(n + 1, n, k)) == [
            KimberlingPath([(0, 0), *zip(xs, ys), (n + 1, n)]) for xs, ys in columns
        ]
        for word in words:
            path = DelannoyPath(word)
            xs, ys, height = _image(word)
            assert phi(path) == KimberlingPath([(0, 0), *zip(xs, ys), (height + 1, height)])
            assert is_subdiagonal_delannoy(path) is _word_below_diagonal(word)
        for xs, ys in columns:
            kpath = KimberlingPath([(0, 0), *zip(xs, ys), (n + 1, n)])
            assert phi_inverse(kpath) == DelannoyPath(_preimage(xs, ys, n))
            assert is_subdiagonal_kimberling(kpath) is _below_chord(xs, ys, n + 1, n)


@pytest.mark.parametrize("n", ORDERS)
def test_kernels_raise_what_the_public_functions_raise(n):
    for letters in itertools.product("DEN", repeat=n):
        word = "".join(letters)
        if word.count("E") != word.count("N"):
            path = DelannoyPath(word)
            expected = _outcome(phi, path)
            assert expected[0] is NotCentral
            assert _outcome(_image, word) == expected
            assert _outcome(is_subdiagonal_delannoy, path) == expected
    # the column kernels take the height, not an endpoint: the public
    # functions check the endpoint before they unbox the columns
    for k in range(n + 2):
        for xs, ys in _vertex_columns(n + 2, n, k):
            kpath = KimberlingPath([(0, 0), *zip(xs, ys), (n + 2, n)])
            for public in (phi_inverse, is_subdiagonal_kimberling):
                expected = _outcome(public, kpath)
                assert expected == (BadEndpoint, expected[1], {"x": n + 2, "y": n})


def test_the_sweep_builds_no_path_object(monkeypatch):
    built = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            built.append(name)
            return fn(*args, **kwargs)

        return wrapper

    # each module that binds an unchecked constructor gets it counted
    for module in (lattice_core, counting, bijection, geometry, harness):
        for name in ("_unchecked_word", "_unchecked_vertices"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for cls in (DelannoyPath, KimberlingPath):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    reports = harness.run_checks(list(harness.CHECKS), 4, workers=1)
    assert all(report.passed for report in reports)
    assert built == []
    # the counters see each boxing the public functions do
    list(enumerate_delannoy_by_e(1, 1))
    list(enumerate_kimberling_by_vertices(2, 1, 1))
    phi(DelannoyPath("EN"))
    phi_inverse(KimberlingPath(((0, 0), (2, 1))))
    assert sorted(set(built)) == [
        "DelannoyPath", "KimberlingPath", "_unchecked_vertices", "_unchecked_word"
    ]
