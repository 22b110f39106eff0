"""The Algorithm L enumerator, the height-scan inverse and the
ratio-updated sampler against the implementations they replaced, kept in
``reference.py``; the height scan as an A/B/C merge against the bisect
merge; and the sampled paths beyond the exhaustive range."""

import json
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

import reference
from delannoy_kit import (
    DelannoyPath,
    LatticeError,
    diagonal_flags,
    enumerate_delannoy,
    enumerate_delannoy_by_e,
    enumerate_kimberling,
    inverse_parts,
    is_subdiagonal_delannoy,
    is_subdiagonal_kimberling,
    phi,
    phi_inverse,
    sample_delannoy_stream,
)
from delannoy_kit.cli import run


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
    assert reference.merge_tagged(a, b, c) == reference.bisect_merge_tagged(a, b, c)


@given(
    a=st.lists(st.integers(-1, 6), max_size=5),
    b=st.lists(st.integers(-1, 6), max_size=5),
    c=st.lists(st.integers(-1, 6), max_size=5),
)
def test_merge_matches_reference_on_any_inputs(a, b, c):
    # unsorted, repeated, nonpositive and overlapping inputs must raise the
    # same error, with the same message, as the reference
    assert _outcome(reference.merge_tagged, a, b, c) == _outcome(
        reference.bisect_merge_tagged, a, b, c
    )


@pytest.mark.parametrize("n", [50, 200, 500])
def test_sampled_paths_beyond_the_exhaustive_range(capsys, n):
    for path in sample_delannoy_stream(n, 2, seed=n):
        image = phi(path)
        assert phi_inverse(image) == path
        assert run(["unmap", json.dumps([list(v) for v in image.vertices]), "--debug"]) == 0
        merged = json.loads(capsys.readouterr().out)["merged"]
        assert "".join(reference.TAG_TO_LETTER[t[-1]] for t in merged) == path.word
        assert [int(t[:-1]) for t in merged] == sorted(int(t[:-1]) for t in merged)


@given(n=st.integers(0, 80), count=st.integers(0, 5), seed=st.integers())
def test_sampler_stream_matches_multinomial_reference(n, count, seed):
    words = [p.word for p in sample_delannoy_stream(n, count, seed)]
    assert words == [p.word for p in reference.sample_delannoy_stream(n, count, seed)]


def _rotated_below_diagonal(path):
    """The cyclic shift of a nonempty word that starts just after its
    N-count minus E-count peaks; every prefix of it then has no more Ns
    than Es, so it is subdiagonal (the cycle lemma)."""
    heights = list(accumulate((ch == "N") - (ch == "E") for ch in path.word))
    start = heights.index(max(heights)) + 1
    return DelannoyPath(path.word[start:] + path.word[:start])


@pytest.mark.parametrize("n", [50, 200, 500, 1000])
def test_sampled_geometry_beyond_the_exhaustive_range(n):
    transported = set()
    for sampled in sample_delannoy_stream(n, 2, seed=n):
        for path in (sampled, _rotated_below_diagonal(sampled)):
            image = phi(path)
            below = is_subdiagonal_delannoy(path)
            assert is_subdiagonal_kimberling(image) == below
            transported.add(below)
            flags = diagonal_flags(path)
            assert flags.east_weakly_above == flags.vertex_strictly_above
            assert all(y * (n + 1) != x * n for x, y in image.interior)
    assert transported == {False, True}
