"""The Algorithm L enumerator, the height-scan inverse, the per-path
kernels of the sweep (head-and-tail enumeration, the chord loop, the
height scan from the vertex tuple), the ratio-updated sampler, the
templated ``classify`` and ``unmap --debug`` outputs, the path
constructors' own input checks and the compact vertex parse against the
implementations they replaced, kept in ``reference.py``; the package's
inverse against the bisect merge of A, B and C; and the sampled paths
beyond the exhaustive range."""

import contextlib
import io
import json
import math
import random
from itertools import accumulate, islice

import pytest
from hypothesis import example, given, strategies as st

import reference
from delannoy_kit import (
    DelannoyPath,
    KimberlingPath,
    enumerate_delannoy,
    enumerate_delannoy_by_e,
    enumerate_kimberling,
    is_subdiagonal_delannoy,
    is_subdiagonal_kimberling,
    phi,
    parse_step_word,
    phi_inverse,
    sample_delannoy_stream,
)
from delannoy_kit import below_endpoint_chord, cli
from delannoy_kit.cli import run
from delannoy_kit.geometry import diagonal_flags
from delannoy_kit.lattice_core import _unchecked_vertices


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


@pytest.mark.parametrize("n", range(9))
def test_k_slice_matches_whole_word_algorithm_l(n):
    # words of 0..24 letters: heads of 0..18 letters meet every tail group
    for k in range(-1, n + 2):
        words = [p.word for p in enumerate_delannoy_by_e(n, k)]
        assert words == list(reference.algorithm_l_words(n, k))


def test_first_thousand_words_at_order_1500_match_algorithm_l():
    head = islice(enumerate_delannoy_by_e(1500, 750), 1000)
    expected = islice(reference.algorithm_l_words(1500, 750), 1000)
    assert [p.word for p in head] == list(expected)


@pytest.mark.parametrize("i", range(6))
def test_chord_loop_matches_all_reference(i):
    for j in range(6):
        for kpath in enumerate_kimberling(i, j):
            assert below_endpoint_chord(kpath) == reference.all_below_endpoint_chord(kpath)


def _any_outcome(fn, *args):
    """The value ``fn(*args)`` returns, or the type and arguments of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), exc.args


@given(st.data())
def test_inverse_matches_interior_scan_on_unchecked_vertices(data):
    # interior vertices in any order, repeated or out of range, as a corrupted
    # phi can send them through the sweep; the endpoint is (n+1, n)
    n = data.draw(st.integers(0, 7), label="n")
    coordinate = st.integers(-1, n + 2)
    interior = data.draw(st.lists(st.tuples(coordinate, coordinate), max_size=n + 2))
    kpath = _unchecked_vertices(((0, 0), *interior, (n + 1, n)))
    assert _any_outcome(phi_inverse, kpath) == _any_outcome(reference.scan_phi_inverse, kpath)


@pytest.mark.parametrize("n", range(7))
def test_inverse_matches_merge_reference_on_every_vertex_path(n):
    for kpath in enumerate_kimberling(n + 1, n):
        assert phi_inverse(kpath) == reference.phi_inverse(kpath)


def _outcome(fn, *args):
    """The value ``fn(*args)`` returns, or the type, message and fields of
    the ``ValueError`` (``LatticeError`` included) it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), exc.args, vars(exc)


@pytest.mark.parametrize("n", [50, 200, 500])
def test_sampled_paths_beyond_the_exhaustive_range(capsys, n):
    for path in sample_delannoy_stream(n, 2, seed=n):
        image = phi(path)
        assert phi_inverse(image) == path
        assert run(["unmap", json.dumps([list(v) for v in image.vertices]), "--debug"]) == 0
        merged = json.loads(capsys.readouterr().out)["merged"]
        assert "".join(reference.TAG_TO_LETTER[t[-1]] for t in merged) == path.word
        assert [int(t[:-1]) for t in merged] == sorted(int(t[:-1]) for t in merged)


@given(st.data())
def test_classify_matches_json_dumps_reference(data):
    n = data.draw(st.integers(0, 40), label="n")
    k = data.draw(st.integers(0, n), label="k")
    letters = data.draw(st.permutations("E" * k + "N" * k + "D" * (n - k)))
    lower = data.draw(st.lists(st.booleans(), min_size=len(letters), max_size=len(letters)))
    word = "".join(ch.lower() if low else ch for ch, low in zip(letters, lower))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert run(["classify", "--word", word]) == 0
    assert (out.getvalue(), err.getvalue()) == (reference.classify_json(word) + "\n", "")


def _assert_unmap_debug_matches_json_dumps_reference(kpath):
    n, k = kpath.endpoint[1], len(kpath.interior)
    expected = (0, reference.unmap_debug_json(kpath) + "\n", f"n={n} k={k}\n")
    json_text = json.dumps([list(v) for v in kpath.vertices])
    compact_text = ";".join(f"({x},{y})" for x, y in kpath.vertices)
    for text in (json_text, compact_text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["unmap", text, "--debug"])
        assert (code, out.getvalue(), err.getvalue()) == expected, text


@pytest.mark.parametrize("n", range(7))
def test_unmap_debug_matches_json_dumps_reference(n):
    # n = 0 included: A, B, C and the merge are all empty
    for kpath in enumerate_kimberling(n + 1, n):
        _assert_unmap_debug_matches_json_dumps_reference(kpath)


@pytest.mark.parametrize("n", [4096, 16384])
def test_unmap_debug_matches_json_dumps_reference_at_large_orders(n):
    # a seeded shuffle of a word with round(n / sqrt 2) East steps, the shape
    # of the slowest CLI request: at n = 16384, 11,585 interior vertices
    k = round(n / math.sqrt(2))
    letters = list("D" * (n - k) + "E" * k + "N" * k)
    random.Random(n).shuffle(letters)
    _assert_unmap_debug_matches_json_dumps_reference(phi(DelannoyPath("".join(letters))))


_COORDINATE = st.one_of(
    st.integers(-1, 4), st.booleans(), st.floats(-1, 4, allow_nan=False), st.just("1")
)
_VERTEX_ENTRY = st.one_of(
    st.tuples(st.integers(-1, 4), st.integers(-1, 4)),
    st.lists(st.integers(-1, 4), min_size=2, max_size=2),
    st.tuples(_COORDINATE, _COORDINATE),
    st.lists(_COORDINATE, max_size=3),
    _COORDINATE,
)


@given(
    st.one_of(
        st.lists(_VERTEX_ENTRY, max_size=6),
        st.lists(_VERTEX_ENTRY, max_size=5).map(lambda tail: [[0, 0], *tail]),
    )
)
@example([[1, 0], [2, True]])
@example([[0, 0], [1, 1, 1], [0, 2]])
@example([[0, 0], [2, 1], [1, 1.5]])
@example([(1, 0), 5])
def test_kimberling_constructor_matches_make_kimberling_reference(vertices):
    built = _outcome(KimberlingPath, vertices)
    assert built == _outcome(reference.make_kimberling, vertices)
    if isinstance(built, KimberlingPath):
        assert all(type(vertex) is tuple for vertex in built.vertices)


@given(st.text(st.one_of(st.sampled_from("endEND"), st.characters()), max_size=12))
@example("ßE")
@example("eNﬀd")
@example("dİ")
def test_parse_step_word_matches_alphabet_scan_reference(text):
    assert _outcome(parse_step_word, text) == _outcome(reference.parse_step_word, text)


@given(
    st.one_of(
        st.lists(st.tuples(st.integers(-2, 12), st.integers(-2, 12)), max_size=6).map(
            lambda pairs: ";".join(f"({x},{y})" for x, y in [(0, 0), *sorted(pairs)])
        ),
        st.text(st.sampled_from("(),;-0129 []e.\t\xa0\u0663"), max_size=16),
    )
)
@example("(0,0);(1,1);(2,1)")
@example("(0,0],[1,1);(2,1)")  # JSON brackets from the text, one ";" short
@example("(0,0);(1,1),(2,1)")
@example("(0,0) ;( 1 , 1 );\t(2,1)")
@example("(0,0);(01,1);(2,1)")  # a leading zero, a non-ASCII digit, ...: not JSON integers
@example("(0,0);(\u0661,1);(2,1)")
@example("(0,0);(1e0,1);(2,1)")
@example("(0,0);([1],1);(2,1)")
@example("(0,0);(NaN,1);(2,1)")
@example("(1,0);(2,1)")  # compact, but no path
@example("(0,0);(" + "9" * 5000 + ",1);(2,x)")  # the digit limit before the bad chunk
@example("(" + "[" * 50_000 + ")")
def test_vertex_text_parse_matches_per_chunk_regex_reference(text):
    assert _outcome(cli.parse_vertex_text, text) == _outcome(reference.parse_vertex_text, text)


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
            east_weakly_above, vertex_strictly_above = diagonal_flags(path)
            assert east_weakly_above == vertex_strictly_above
            assert all(y * (n + 1) != x * n for x, y in image.interior)
    assert transported == {False, True}
