import pytest

from delannoy_kit import (
    BadEndpoint,
    KimberlingPath,
    NotCentral,
    below_endpoint_chord,
    classify_d_counts,
    enumerate_delannoy,
    enumerate_kimberling,
    is_subdiagonal_delannoy,
    is_subdiagonal_kimberling,
    parse_step_word,
    phi,
    walk_east_steps,
)
from delannoy_kit.geometry import (
    CASE_EQUAL,
    CASE_LABELS,
    CASE_MORE_BEFORE_EAST,
    CASE_MORE_BEFORE_NORTH,
    diagonal_flags,
    preceding_d_counts,
)
from reference import sampled_subdiagonal_delannoy, sampled_subdiagonal_kimberling

WORKED_WORD = "NEEDNNNEDDEEN"


class TestSubdiagonalDelannoy:
    def test_en_stays_below(self):
        assert is_subdiagonal_delannoy(parse_step_word("EN"))

    def test_ne_crosses(self):
        assert not is_subdiagonal_delannoy(parse_step_word("NE"))

    def test_count_over_order_three(self):
        count = sum(1 for p in enumerate_delannoy(3) if is_subdiagonal_delannoy(p))
        assert count == 22

    def test_requires_central(self):
        with pytest.raises(NotCentral):
            is_subdiagonal_delannoy(parse_step_word("E"))


class TestSubdiagonalKimberling:
    def test_image_of_en(self):
        assert is_subdiagonal_kimberling(KimberlingPath([(0, 0), (1, 0), (2, 1)]))

    def test_image_of_ne(self):
        assert not is_subdiagonal_kimberling(KimberlingPath([(0, 0), (1, 1), (2, 1)]))

    @pytest.mark.parametrize("n", range(7))
    def test_direct_path_on_the_line(self, n):
        assert is_subdiagonal_kimberling(KimberlingPath([(0, 0), (n + 1, n)]))

    def test_bad_endpoint(self):
        with pytest.raises(BadEndpoint):
            is_subdiagonal_kimberling(KimberlingPath([(0, 0), (3, 3)]))
        with pytest.raises(BadEndpoint):
            is_subdiagonal_kimberling(KimberlingPath([(0, 0)]))

    @pytest.mark.parametrize("n", range(5))
    def test_generic_chord_agrees_on_this_family(self, n):
        for kpath in enumerate_kimberling(n + 1, n):
            assert below_endpoint_chord(kpath) == is_subdiagonal_kimberling(kpath)

    def test_generic_chord_on_other_endpoints(self):
        assert below_endpoint_chord(KimberlingPath([(0, 0), (1, 1), (3, 3)]))
        assert not below_endpoint_chord(KimberlingPath([(0, 0), (1, 2), (3, 3)]))
        assert below_endpoint_chord(KimberlingPath([(0, 0)]))


# (before_north, before_east) D counts of each East index, by hand
HAND_PAIRS = [
    ("EDN", [(1, 0)]),
    ("NDE", [(0, 1)]),
    ("DEN", [(1, 1)]),
    ("END", [(0, 0)]),
    ("D", []),
    (WORKED_WORD, [(0, 0), (1, 0), (1, 1), (1, 3), (3, 3)]),
]


class TestWalkEastSteps:
    def test_worked_example(self):
        ends, before_north, before_east = walk_east_steps(WORKED_WORD)
        assert ends == [(1, 1), (2, 1), (4, 5), (7, 7), (8, 7)]
        assert before_north == [0, 1, 1, 1, 3]
        assert before_east == [0, 0, 1, 3, 3]

    def test_en(self):
        assert walk_east_steps("EN") == ([(1, 0)], [0], [0])

    def test_no_east_steps(self):
        assert walk_east_steps("D") == ([], [], [])

    def test_empty(self):
        assert walk_east_steps("") == ([], [], [])

    @pytest.mark.parametrize("word,pairs", HAND_PAIRS)
    def test_hand_d_counts(self, word, pairs):
        _, before_north, before_east = walk_east_steps(word)
        assert list(zip(before_north, before_east)) == pairs


class TestDiagonalFlags:
    def test_ne(self):
        assert diagonal_flags(parse_step_word("NE")) == ((True,), (True,))

    def test_en(self):
        assert diagonal_flags(parse_step_word("EN")) == ((False,), (False,))

    def test_diagonal_only(self):
        assert diagonal_flags(parse_step_word("D")) == ((), ())

    @pytest.mark.parametrize("n", range(6))
    def test_per_step_equivalence_exhaustive(self, n):
        for path in enumerate_delannoy(n):
            east_weakly_above, vertex_strictly_above = diagonal_flags(path)
            assert east_weakly_above == vertex_strictly_above

    @pytest.mark.parametrize("n", range(6))
    def test_interior_vertex_never_on_the_line(self, n):
        for path in enumerate_delannoy(n):
            for x, y in phi(path).interior:
                assert y * (n + 1) != x * n

    @pytest.mark.parametrize("n", range(6))
    def test_predicate_transport_exhaustive(self, n):
        for path in enumerate_delannoy(n):
            assert is_subdiagonal_delannoy(path) == is_subdiagonal_kimberling(phi(path))


class TestPrecedingDCounts:
    @pytest.mark.parametrize("word,pairs", HAND_PAIRS)
    def test_hand_values(self, word, pairs):
        assert preceding_d_counts(parse_step_word(word)) == pairs

    def test_classification_labels(self):
        assert classify_d_counts(2, 2) == CASE_EQUAL
        assert classify_d_counts(0, 1) == CASE_MORE_BEFORE_EAST
        assert classify_d_counts(1, 0) == CASE_MORE_BEFORE_NORTH

    @pytest.mark.parametrize("n", range(2, 6))
    def test_all_three_cases_occur(self, n):
        seen = set()
        for path in enumerate_delannoy(n):
            for before_north, before_east in preceding_d_counts(path):
                seen.add(classify_d_counts(before_north, before_east))
        assert seen == set(CASE_LABELS)

    @pytest.mark.parametrize("n", range(6))
    def test_pair_count_matches_east_count(self, n):
        for path in enumerate_delannoy(n):
            assert len(preceding_d_counts(path)) == path.word.count("E")


class TestVertexCheckSufficiency:
    @pytest.mark.parametrize("n", range(6))
    def test_segment_sampling_agrees_on_words(self, n):
        for path in enumerate_delannoy(n):
            assert sampled_subdiagonal_delannoy(path) == is_subdiagonal_delannoy(path)

    @pytest.mark.parametrize("n", range(6))
    def test_segment_sampling_agrees_on_vertex_paths(self, n):
        for kpath in enumerate_kimberling(n + 1, n):
            assert sampled_subdiagonal_kimberling(kpath) == is_subdiagonal_kimberling(
                kpath
            )
