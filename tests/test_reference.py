"""The Algorithm L enumerator and the height-scan inverse against the
implementations they replaced, kept in ``reference.py``."""

import json

import pytest
from hypothesis import given, strategies as st

import reference
from delannoy_kit import (
    LatticeError,
    enumerate_delannoy,
    enumerate_delannoy_by_e,
    enumerate_kimberling,
    inverse_parts,
    merge_tagged,
    phi,
    phi_inverse,
    sample_delannoy_stream,
)
from delannoy_kit.cli import run

TAG_TO_LETTER = {"A": "N", "B": "E", "C": "D"}


@pytest.mark.parametrize("n", range(8))
def test_k_slice_order_matches_recursive_reference(n):
    for k in range(-1, n + 2):
        words = [p.word for p in enumerate_delannoy_by_e(n, k)]
        assert words == [p.word for p in reference.enumerate_delannoy_by_e(n, k)]


@pytest.mark.parametrize("n", range(8))
def test_full_order_is_the_sorted_reference_slices(n):
    words = [p.word for p in enumerate_delannoy(n)]
    slices = [p.word for k in range(n + 1) for p in reference.enumerate_delannoy_by_e(n, k)]
    assert words == sorted(slices)


@pytest.mark.parametrize("n", range(7))
def test_inverse_matches_merge_reference_on_every_vertex_path(n):
    for kpath in enumerate_kimberling(n + 1, n):
        assert phi_inverse(kpath) == reference.phi_inverse(kpath)
        assert inverse_parts(kpath) == reference.inverse_parts(kpath)


def _outcome(merge, a, b, c):
    try:
        return merge(a, b, c)
    except LatticeError as exc:
        return type(exc), str(exc)


@given(
    heights=st.sets(st.integers(1, 14), max_size=10),
    mask=st.lists(st.booleans(), min_size=10, max_size=10),
    b_values=st.lists(st.integers(-2, 16), max_size=10),
)
def test_merge_matches_reference_on_disjoint_inputs(heights, mask, b_values):
    ordered = sorted(heights)
    a = [v for v, keep in zip(ordered, mask) if keep]
    c = [v for v, keep in zip(ordered, mask) if not keep]
    b = sorted(b_values)
    assert merge_tagged(a, b, c) == reference.merge_tagged(a, b, c)


@given(
    a=st.lists(st.integers(-1, 6), max_size=5),
    b=st.lists(st.integers(-1, 6), max_size=5),
    c=st.lists(st.integers(-1, 6), max_size=5),
)
def test_merge_matches_reference_on_any_inputs(a, b, c):
    # unsorted, repeated, nonpositive and overlapping inputs must raise the
    # same error, with the same message, as the reference
    assert _outcome(merge_tagged, a, b, c) == _outcome(reference.merge_tagged, a, b, c)


@pytest.mark.parametrize("n", [50, 200, 500])
def test_sampled_paths_beyond_the_exhaustive_range(capsys, n):
    for path in sample_delannoy_stream(n, 2, seed=n):
        image = phi(path)
        assert phi_inverse(image) == path
        assert run(["unmap", json.dumps([list(v) for v in image.vertices]), "--debug"]) == 0
        merged = json.loads(capsys.readouterr().out)["merged"]
        assert "".join(TAG_TO_LETTER[t[-1]] for t in merged) == path.word
        assert [int(t[:-1]) for t in merged] == sorted(int(t[:-1]) for t in merged)
