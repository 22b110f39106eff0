import hashlib
import itertools

import pytest

from delannoy_kit import (
    count_delannoy,
    count_delannoy_by_e,
    count_kimberling,
    count_kimberling_by_vertices,
    enumerate_delannoy,
    enumerate_delannoy_by_e,
    enumerate_kimberling,
    enumerate_kimberling_by_vertices,
    sample_delannoy_stream,
    schroder,
)
from delannoy_kit.counting import _slice_terms

# frozen from a raw-product brute force over words of length n..2n
CENTRAL_COUNTS = [1, 3, 13, 63, 321, 1683, 8989, 48639, 265729]
# frozen from the subdiagonal filter over the same brute force (n <= 5)
# and the recurrence beyond
SCHRODER_ROW = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586]
# sample_delannoy_stream(12, 5, seed=7) and next(sample_delannoy_stream(200, 1, 31))
SAMPLE_12_SEED_7 = [
    "DEDDNEENENEDENNENENN",
    "NEENNNDNNDEENEENENENEE",
    "NENDEDNNDNDNEENEEED",
    "EEENEDNENNNNNEEDDNED",
    "EENENDNENNEENNNENEDENE",
]
SAMPLE_200_SEED_31 = (
    "EDENEEENEENEEEEDNEEENNNEENDEDNENNEENNNNEDNDEENENDEDNENNNNENEEENDNNENENED"
    "DNNDDNDDNDDENDDDEDNNENNNEENDNDNNEEDENENDDNNEDEEEENNNENEEENDDNEEEEEDNNNNE"
    "ENNNDENDDENDEDNNDNENDNNENDENNNENNNEEEEENEEEEDDEDNENNDEDENNEENENENNEEEDEN"
    "DENDNENDNEEDEEDDDENEENENEEDENNDEDNNNNDDENNNENNEEENNENENENEENNNDDENDENENN"
    "NENNEEEDNEENEENEEEEEDNENNNENNNNENDEENNENDDDEEEN"
)
# SHA-256 of the newline-joined words of sample_delannoy_stream(1024, 3, seed=5),
# recorded while every count was still recomputed from binomials
SAMPLE_1024_SEED_5_SHA256 = "a1ffba37375e73122bacc8486ee926f25039c16baadcca3c7e1fb3b53f3e304d"
D2_LEX = [
    "DD", "DEN", "DNE", "EDN", "EENN", "END", "ENEN",
    "ENNE", "NDE", "NED", "NEEN", "NENE", "NNEE",
]


def brute_words(n):
    for length in range(n, 2 * n + 1):
        for tup in itertools.product("DEN", repeat=length):
            word = "".join(tup)
            e, n_, d = word.count("E"), word.count("N"), word.count("D")
            if e == n_ and e + d == n:
                yield word


def brute_subdiagonal(word):
    x = y = 0
    for ch in word:
        if ch != "N":
            x += 1
        if ch != "E":
            y += 1
        if y > x:
            return False
    return True


class TestDelannoyCounts:
    def test_spot_values(self):
        assert count_delannoy_by_e(2, 1) == 6
        assert count_delannoy_by_e(8, 5) == 72072
        assert all(count_delannoy_by_e(n, 0) == 1 for n in range(10))

    @pytest.mark.parametrize("n", range(5))
    def test_per_k_against_brute_force(self, n):
        histogram = {}
        for word in brute_words(n):
            k = word.count("E")
            histogram[k] = histogram.get(k, 0) + 1
        for k in range(n + 1):
            assert count_delannoy_by_e(n, k) == histogram.get(k, 0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            count_delannoy(-1)
        with pytest.raises(ValueError):
            count_delannoy_by_e(-1, 0)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_out_of_range_k_counts_zero(self, n):
        for k in (-n - 2, -n - 1, -1, n + 1, n + 2, -(10**6), 10**6):
            assert count_delannoy_by_e(n, k) == 0

    def test_totals(self):
        assert count_delannoy(0) == 1
        assert count_delannoy(1) == 3
        assert count_delannoy(8) == 265729
        assert [count_delannoy(n) for n in range(9)] == CENTRAL_COUNTS

    def test_terms_match_closed_form_up_to_300(self):
        for n in range(301):
            assert list(_slice_terms(n, n)) == [count_delannoy_by_e(n, k) for k in range(n + 1)]

    def test_totals_match_three_term_recurrence_up_to_2000(self):
        # n D(n) = 3(2n-1) D(n-1) - (n-1) D(n-2), independent of the per-k terms
        assert count_delannoy(0) == 1
        assert count_delannoy(1) == 3
        prev, cur = 1, 3
        for n in range(2, 2001):
            quotient, remainder = divmod(3 * (2 * n - 1) * cur - (n - 1) * prev, n)
            assert remainder == 0
            prev, cur = cur, quotient
            assert count_delannoy(n) == cur


class TestKimberlingCounts:
    def test_smallest_nontrivial_family(self):
        assert count_kimberling_by_vertices(2, 1, 1) == 2
        assert count_kimberling_by_vertices(2, 1, 0) == 1
        assert count_kimberling(2, 1) == 3

    def test_spot_values(self):
        assert count_kimberling_by_vertices(9, 8, 5) == 72072
        assert count_kimberling(1, 0) == 1
        assert count_kimberling(9, 8) == 265729

    def test_negative_endpoint_rejected(self):
        for i, j in [(-2, 0), (0, -1), (3, -1)]:
            with pytest.raises(ValueError):
                count_kimberling(i, j)
            with pytest.raises(ValueError):
                count_kimberling_by_vertices(i, j, 1)

    def test_degenerate_endpoint(self):
        assert count_kimberling(0, 0) == 1
        assert count_kimberling(0, 3) == 0
        assert count_kimberling_by_vertices(0, 0, 0) == 1

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 2), (1, 0), (2, 0), (4, 3)])
    def test_out_of_range_k_counts_zero(self, i, j):
        for k in (-j - 2, -j - 1, -1, max(i, 1), i + 1, -(10**6), 10**6):
            assert count_kimberling_by_vertices(i, j, k) == 0

    def test_terms_match_closed_form_up_to_300(self):
        for i in range(1, 302):
            for j in (0, 2 * i):
                expected = [count_kimberling_by_vertices(i, j, k) for k in range(i)]
                assert list(_slice_terms(i - 1, j)) == expected

    def test_totals_are_per_k_sums_on_grid(self):
        for i in range(41):
            for j in range(41):
                per_k = sum(count_kimberling_by_vertices(i, j, k) for k in range(max(i, 1)))
                assert count_kimberling(i, j) == per_k

    def test_refined_identity_up_to_64(self):
        for n in range(65):
            for k in range(n + 1):
                assert count_delannoy_by_e(n, k) == count_kimberling_by_vertices(
                    n + 1, n, k
                )


class TestSchroder:
    def test_base_cases(self):
        assert schroder(0) == 1
        assert schroder(1) == 2

    def test_row(self):
        assert [schroder(n) for n in range(9)] == SCHRODER_ROW
        assert schroder(3) == 22
        assert schroder(8) == 41586

    @pytest.mark.parametrize("n", range(5))
    def test_against_subdiagonal_brute_force(self, n):
        assert schroder(n) == sum(1 for w in brute_words(n) if brute_subdiagonal(w))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            schroder(-1)


class TestEnumerateDelannoy:
    def test_order_one_golden(self):
        assert [p.word for p in enumerate_delannoy(1)] == ["D", "EN", "NE"]

    def test_order_zero(self):
        assert [p.word for p in enumerate_delannoy(0)] == [""]

    def test_order_two_golden(self):
        words = [p.word for p in enumerate_delannoy(2)]
        assert len(words) == 13
        assert words[0] == "DD"
        assert words[-1] == "NNEE"
        assert words == D2_LEX

    @pytest.mark.parametrize("n", range(6))
    def test_lexicographic_and_duplicate_free(self, n):
        words = [p.word for p in enumerate_delannoy(n)]
        assert words == sorted(words)
        assert len(set(words)) == len(words)

    @pytest.mark.parametrize("n", range(9))
    def test_stream_length_matches_count(self, n):
        assert sum(1 for _ in enumerate_delannoy(n)) == count_delannoy(n)

    @pytest.mark.parametrize("n", range(5))
    def test_matches_brute_force_set(self, n):
        assert {p.word for p in enumerate_delannoy(n)} == set(brute_words(n))

    @pytest.mark.parametrize("n", range(5))
    def test_by_e_slices_are_filtered_stream(self, n):
        words = [p.word for p in enumerate_delannoy(n)]
        for k in range(n + 1):
            slice_words = [p.word for p in enumerate_delannoy_by_e(n, k)]
            assert slice_words == [w for w in words if w.count("E") == k]

    def test_by_e_out_of_range_is_empty(self):
        assert list(enumerate_delannoy_by_e(3, 4)) == []

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            enumerate_delannoy(-1)

    def test_no_recursion_limit_at_order_1500(self):
        head = [p.word for p in itertools.islice(enumerate_delannoy(1500), 3)]
        assert head == ["D" * 1500, "D" * 1499 + "EN", "D" * 1499 + "NE"]


class TestEnumerateKimberling:
    def test_smallest_nontrivial_family_golden(self):
        paths = [k.vertices for k in enumerate_kimberling(2, 1)]
        assert paths == [
            ((0, 0), (2, 1)),
            ((0, 0), (1, 0), (2, 1)),
            ((0, 0), (1, 1), (2, 1)),
        ]

    def test_single_path_families(self):
        assert [k.vertices for k in enumerate_kimberling(1, 0)] == [((0, 0), (1, 0))]
        assert [k.vertices for k in enumerate_kimberling(0, 0)] == [((0, 0),)]
        assert list(enumerate_kimberling(0, 2)) == []

    def test_stream_lengths_match_counts_on_grid(self):
        for i in range(10):
            for j in range(9):
                assert sum(1 for _ in enumerate_kimberling(i, j)) == count_kimberling(i, j)

    @pytest.mark.parametrize("i,j", [(2, 1), (3, 2), (4, 3), (3, 4)])
    def test_duplicate_free(self, i, j):
        paths = list(enumerate_kimberling(i, j))
        assert len(set(paths)) == len(paths)

    @pytest.mark.parametrize("i,j", [(3, 2), (4, 1)])
    def test_k_major_order_and_slices(self, i, j):
        paths = list(enumerate_kimberling(i, j))
        sizes = [len(p.interior) for p in paths]
        assert sizes == sorted(sizes)
        for k in range(i):
            slice_paths = list(enumerate_kimberling_by_vertices(i, j, k))
            assert slice_paths == [p for p in paths if len(p.interior) == k]
            assert len(slice_paths) == count_kimberling_by_vertices(i, j, k)


class TestSampling:
    def test_deterministic_single_draw(self):
        first, second = (next(sample_delannoy_stream(5, 1, 12345)) for _ in range(2))
        assert first.word == second.word

    def test_deterministic_stream(self):
        first = [p.word for p in sample_delannoy_stream(4, 20, seed=99)]
        second = [p.word for p in sample_delannoy_stream(4, 20, seed=99)]
        assert first == second

    def test_different_seeds_differ_somewhere(self):
        words = {next(sample_delannoy_stream(6, 1, seed)).word for seed in range(30)}
        assert len(words) > 1

    def test_order_zero(self):
        assert next(sample_delannoy_stream(0, 1, 7)).word == ""

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="sample_delannoy_stream requires n >= 0"):
            next(sample_delannoy_stream(-1, 1, 7))
        with pytest.raises(ValueError, match="sample_delannoy_stream requires n >= 0"):
            list(sample_delannoy_stream(-1, 0, seed=7))

    def test_seed_to_path_stream_pinned(self):
        # recorded before the count moved out of the per-draw loop
        assert [p.word for p in sample_delannoy_stream(12, 5, seed=7)] == SAMPLE_12_SEED_7
        assert next(sample_delannoy_stream(200, 1, 31)).word == SAMPLE_200_SEED_31

    def test_seed_to_path_stream_pinned_at_order_1024(self):
        words = "\n".join(p.word for p in sample_delannoy_stream(1024, 3, seed=5))
        assert hashlib.sha256(words.encode()).hexdigest() == SAMPLE_1024_SEED_5_SHA256

    def test_samples_are_central(self):
        for path in sample_delannoy_stream(7, 50, seed=3):
            e, n_, d = map(path.word.count, "END")
            assert e == n_
            assert e + d == 7

    def test_every_path_reachable_small(self):
        # 13 words at n=2; 1500 draws miss one with prob < 1e-40 under uniformity
        seen = {p.word for p in sample_delannoy_stream(2, 1500, seed=11)}
        assert seen == set(brute_words(2))
