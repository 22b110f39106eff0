import pickle

import pytest
from hypothesis import given, strategies as st

from reference import OverlappingAC
from delannoy_kit import (
    BadEndpoint,
    BadOrigin,
    DecreasingY,
    DelannoyPath,
    InvalidCharacter,
    KimberlingPath,
    LatticeError,
    NonIncreasingX,
    NotCentral,
    central_index,
    enumerate_delannoy_by_e,
    enumerate_kimberling,
    enumerate_kimberling_by_vertices,
    parse_step_word,
    path_vertices,
    phi,
    phi_inverse,
)

WORKED_WORD = "NEEDNNNEDDEEN"
WORKED_VERTICES = (
    (0, 0), (0, 1), (1, 1), (2, 1), (3, 2), (3, 3), (3, 4),
    (3, 5), (4, 5), (5, 6), (6, 7), (7, 7), (8, 7), (8, 8),
)


def all_words(n):
    """Independent brute force: every central word of order n, via raw products."""
    import itertools

    found = []
    for length in range(n, 2 * n + 1):
        for tup in itertools.product("DEN", repeat=length):
            word = "".join(tup)
            e, n_, d = word.count("E"), word.count("N"), word.count("D")
            if e == n_ and e + d == n:
                found.append(word)
    return found


class TestParseStepWord:
    def test_worked_example_counts(self):
        path = parse_step_word(WORKED_WORD)
        assert tuple(map(path.word.count, "NED")) == (5, 5, 3)

    def test_empty(self):
        assert parse_step_word("").word == ""
        assert len(parse_step_word("")) == 0

    def test_lowercase_canonicalized(self):
        assert parse_step_word("neD").word == "NED"

    def test_invalid_character_position_is_one_based(self):
        with pytest.raises(InvalidCharacter) as exc:
            parse_step_word("NXE")
        assert exc.value.position == 2
        assert exc.value.char == "X"

    def test_invalid_character_reports_original_char(self):
        with pytest.raises(InvalidCharacter) as exc:
            parse_step_word("en?d")
        assert (exc.value.position, exc.value.char) == (3, "?")

    def test_constructor_requires_canonical_uppercase(self):
        with pytest.raises(InvalidCharacter):
            DelannoyPath("ne")

    def test_only_end_letters_upper_case_into_the_alphabet(self):
        # parse_step_word reports DelannoyPath's position in text.upper()
        # against text: that holds while no other code point upper-cases to
        # a string starting with E, N or D, and none upper-cases to ""
        strays = []
        for code in range(0x110000):
            char = chr(code)
            upper = char.upper()
            if not upper or (upper[0] in "END") != (char in "endEND"):
                strays.append(char)
        assert strays == []

    @given(st.text(alphabet="ENDend", max_size=30))
    def test_parse_format_roundtrip(self, text):
        path = parse_step_word(text)
        assert path.word == text.upper()
        assert parse_step_word(path.word) == path


class TestPathVertices:
    def test_worked_example_chain(self):
        assert path_vertices(parse_step_word(WORKED_WORD)) == WORKED_VERTICES

    def test_empty(self):
        assert path_vertices(DelannoyPath("")) == ((0, 0),)

    def test_single_diagonal(self):
        assert path_vertices(DelannoyPath("D")) == ((0, 0), (1, 1))

    @pytest.mark.parametrize("letter,disp", [("E", (1, 0)), ("N", (0, 1)), ("D", (1, 1))])
    def test_step_displacements(self, letter, disp):
        assert path_vertices(DelannoyPath(letter)) == ((0, 0), disp)

    @given(st.text(alphabet="END", max_size=40))
    def test_endpoint_matches_step_counts(self, word):
        path = DelannoyPath(word)
        verts = path_vertices(path)
        assert len(verts) == len(word) + 1
        e, n_, d = map(word.count, "END")
        assert verts[-1] == (e + d, n_ + d)


class TestCentralIndex:
    def test_worked_example(self):
        assert central_index(parse_step_word(WORKED_WORD)) == (8, 5)

    def test_empty(self):
        assert central_index(DelannoyPath("")) == (0, 0)

    def test_en(self):
        assert central_index(DelannoyPath("EN")) == (1, 1)

    def test_not_central_payload(self):
        with pytest.raises(NotCentral) as exc:
            central_index(DelannoyPath("EED"))
        assert (exc.value.e_count, exc.value.n_count) == (2, 0)


def reference_valid(vertices):
    """Validity predicate written independently of the library's checks."""
    if len(vertices) == 0 or tuple(vertices[0]) != (0, 0):
        return False
    for (ax, ay), (bx, by) in zip(vertices, vertices[1:]):
        if bx - ax < 1 or by - ay < 0:
            return False
    return True


class TestMakeKimberling:
    """``KimberlingPath(...)`` on the vertex sequences a caller might pass."""

    def test_simple_valid_path(self):
        path = KimberlingPath([(0, 0), (1, 1), (2, 1)])
        assert path.vertices == ((0, 0), (1, 1), (2, 1))

    def test_two_vertex_path(self):
        assert KimberlingPath([(0, 0), (2, 1)]).interior == ()

    def test_vertical_step_rejected(self):
        with pytest.raises(NonIncreasingX) as exc:
            KimberlingPath([(0, 0), (1, 1), (1, 2)])
        assert exc.value.index == 2

    def test_decreasing_y_rejected(self):
        with pytest.raises(DecreasingY) as exc:
            KimberlingPath([(0, 0), (1, 1), (2, 0)])
        assert exc.value.index == 2

    def test_bad_origin(self):
        with pytest.raises(BadOrigin):
            KimberlingPath([(1, 0), (2, 1)])
        with pytest.raises(BadOrigin):
            KimberlingPath([])

    def test_degenerate_origin_path_admitted(self):
        path = KimberlingPath([(0, 0)])
        assert path.endpoint == (0, 0)
        assert path.interior == ()

    def test_accepts_json_style_lists(self):
        path = KimberlingPath([[0, 0], [1, 1], [3, 1]])
        assert path.vertices == ((0, 0), (1, 1), (3, 1))

    def test_accepts_iterators_and_int_subclasses(self):
        class Coordinate(int):  # any int subclass but bool is a coordinate
            pass

        path = KimberlingPath(iter([[0, 0], iter([1, 1]), (Coordinate(3), 1)]))
        assert path.vertices == ((0, 0), (1, 1), (3, 1))

    def test_rejects_non_integer_coordinates(self):
        # each entry sits in an otherwise valid path
        for entry in [(1.5, 0.5), (True, 0), (1, False), (1, 0, 5), (1,), 5]:
            with pytest.raises(LatticeError, match=r"is not a pair of integers\Z"):
                KimberlingPath(((0, 0), entry, (3, 2)))

    def test_collinear_interior_vertices_are_significant(self):
        direct = KimberlingPath([(0, 0), (2, 2)])
        subdivided = KimberlingPath([(0, 0), (1, 1), (2, 2)])
        assert direct != subdivided
        assert len({direct, subdivided}) == 2

    @given(
        st.lists(
            st.tuples(st.integers(-1, 5), st.integers(-1, 5)),
            min_size=1,
            max_size=6,
        )
    )
    def test_accepts_exactly_the_valid_sequences(self, tail):
        candidate = [(0, 0)] + tail
        if reference_valid(candidate):
            assert KimberlingPath(candidate).vertices == tuple(candidate)
        else:
            with pytest.raises(LatticeError):
                KimberlingPath(candidate)


class TestInteriorVertices:
    def test_worked_example_interiors(self):
        path = KimberlingPath(
            [(0, 0), (1, 1), (3, 1), (4, 5), (5, 7), (8, 7), (9, 8)]
        )
        assert path.interior == ((1, 1), (3, 1), (4, 5), (5, 7), (8, 7))

    def test_two_vertex_path_has_none(self):
        assert KimberlingPath([(0, 0), (2, 1)]).interior == ()

    def test_single_interior_vertex(self):
        assert KimberlingPath([(0, 0), (1, 0), (2, 1)]).interior == ((1, 0),)


class TestFamilyInvariants:
    @pytest.mark.parametrize("n", range(5))
    def test_word_roundtrip_exhaustive(self, n):
        for word in all_words(n):
            assert parse_step_word(str(parse_step_word(word))).word == word

    @pytest.mark.parametrize("i,j", [(1, 0), (2, 1), (3, 2), (4, 2), (3, 4)])
    def test_interior_coordinate_structure(self, i, j):
        for kpath in enumerate_kimberling(i, j):
            xs = [x for x, _ in kpath.interior]
            ys = [y for _, y in kpath.interior]
            assert len(set(xs)) == len(xs)
            assert all(1 <= x <= i - 1 for x in xs)
            assert all(0 <= y <= j for y in ys)
            assert ys == sorted(ys)


class TestErrorPickling:
    """A worker process sends its exception back to the pool by pickling it;
    an error that does not survive the trip hangs the pool's result thread."""

    @pytest.mark.parametrize(
        "error",
        [
            LatticeError("vertex [1] is not a pair of integers"),
            InvalidCharacter(3, "x"),
            NotCentral(2, 1),
            BadOrigin(),
            BadOrigin((1, 0)),
            NonIncreasingX(2),
            DecreasingY(4),
            BadEndpoint(2, 2),
            OverlappingAC({2, 5}),
        ],
        ids=[
            "LatticeError", "InvalidCharacter", "NotCentral", "BadOrigin-empty",
            "BadOrigin-point", "NonIncreasingX", "DecreasingY", "BadEndpoint",
            "OverlappingAC",
        ],
    )
    def test_round_trip_keeps_type_message_and_fields(self, error):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert copy.args == error.args
        assert vars(copy) == vars(error)


def _assert_validates(path):
    """``path`` equals, hashes and pickles like its twin from the public constructor."""
    if isinstance(path, DelannoyPath):
        twin = DelannoyPath(path.word)
    else:
        twin = KimberlingPath(path.vertices)
    assert path == twin
    assert hash(path) == hash(twin)
    assert pickle.loads(pickle.dumps(path)) == twin


class TestUncheckedProducers:
    """The enumerators, phi and phi_inverse skip validation; their values must pass it."""

    @pytest.mark.parametrize("n", range(7))
    def test_every_value_of_the_sweep_families_validates(self, n):
        for k in range(n + 1):
            for path in enumerate_delannoy_by_e(n, k):
                _assert_validates(path)
                _assert_validates(phi(path))
            for kpath in enumerate_kimberling_by_vertices(n + 1, n, k):
                _assert_validates(phi_inverse(kpath))

    @pytest.mark.parametrize("i", range(7))
    def test_every_enumerated_vertex_path_validates(self, i):
        for j in range(-2, 7):
            for k in range(-1, i + 1):
                paths = enumerate_kimberling_by_vertices(i, j, k)
                if j < 0:  # no path reaches a negative height
                    with pytest.raises(ValueError):
                        list(paths)
                    continue
                for kpath in paths:
                    _assert_validates(kpath)

    @given(st.data())
    def test_phi_and_phi_inverse_validate_at_large_orders(self, data):
        n = data.draw(st.integers(0, 300), label="n")
        k = data.draw(st.integers(0, n), label="k")
        letters = data.draw(st.permutations("E" * k + "N" * k + "D" * (n - k)))
        image = phi(DelannoyPath("".join(letters)))
        _assert_validates(image)
        back = phi_inverse(image)
        _assert_validates(back)
        assert back.word == "".join(letters)
