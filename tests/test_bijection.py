import pytest
from hypothesis import given, strategies as st

from reference import OverlappingAC, merge_tagged, tagged_to_word

from delannoy_kit import (
    BadEndpoint,
    LatticeError,
    NotCentral,
    TaggedValue,
    central_index,
    enumerate_delannoy,
    enumerate_kimberling,
    inverse_parts,
    make_kimberling,
    parse_step_word,
    phi,
    phi_inverse,
    step_labels,
)

WORKED_WORD = "NEEDNNNEDDEEN"
WORKED_IMAGE = ((0, 0), (1, 1), (3, 1), (4, 5), (5, 7), (8, 7), (9, 8))
WORKED_MERGED = "1A 1B 1B 2C 3A 4A 5A 5B 6C 7C 7B 7B 8A"


def word_order_tagged(word):
    """Independent oracle: read each step's terminal height with its tag."""
    y = 0
    out = []
    for ch in word:
        if ch == "E":
            out.append(TaggedValue(y, "B"))
        elif ch == "N":
            y += 1
            out.append(TaggedValue(y, "A"))
        else:
            y += 1
            out.append(TaggedValue(y, "C"))
    return out


class TestStepLabels:
    def test_worked_example(self):
        labels = step_labels(parse_step_word(WORKED_WORD))
        assert labels.a_labels == (1, 3, 4, 5, 8)
        assert labels.b_labels == (1, 1, 5, 7, 7)
        assert labels.c_labels == (2, 6, 7)

    def test_empty(self):
        labels = step_labels(parse_step_word(""))
        assert labels == step_labels(parse_step_word(""))
        assert (labels.a_labels, labels.b_labels, labels.c_labels) == ((), (), ())

    def test_single_diagonal(self):
        labels = step_labels(parse_step_word("D"))
        assert (labels.a_labels, labels.b_labels, labels.c_labels) == ((), (), (1,))

    def test_requires_central(self):
        with pytest.raises(NotCentral):
            step_labels(parse_step_word("EED"))

    @pytest.mark.parametrize("n", range(6))
    def test_label_structure(self, n):
        # a strictly increasing and b weakly increasing is exactly what
        # makes the image a valid vertex path
        for path in enumerate_delannoy(n):
            labels = step_labels(path)
            a, b, c = labels.a_labels, labels.b_labels, labels.c_labels
            assert list(a) == sorted(set(a))
            assert list(b) == sorted(b)
            assert list(c) == sorted(set(c))
            assert set(a) | set(c) == set(range(1, n + 1))
            assert not set(a) & set(c)


class TestPhi:
    def test_worked_example(self):
        assert phi(parse_step_word(WORKED_WORD)).vertices == WORKED_IMAGE

    def test_empty_word(self):
        assert phi(parse_step_word("")).vertices == ((0, 0), (1, 0))

    def test_single_diagonal(self):
        assert phi(parse_step_word("D")).vertices == ((0, 0), (2, 1))

    def test_en(self):
        assert phi(parse_step_word("EN")).vertices == ((0, 0), (1, 0), (2, 1))

    def test_order_one_image_is_whole_family(self):
        images = {phi(p).vertices for p in enumerate_delannoy(1)}
        assert images == {
            ((0, 0), (2, 1)),
            ((0, 0), (1, 0), (2, 1)),
            ((0, 0), (1, 1), (2, 1)),
        }

    def test_requires_central(self):
        with pytest.raises(NotCentral):
            phi(parse_step_word("NNE"))


class TestMergeTagged:
    def test_worked_example(self):
        merged = merge_tagged([1, 3, 4, 5, 8], [1, 1, 5, 7, 7], [2, 6, 7])
        assert " ".join(map(str, merged)) == WORKED_MERGED

    def test_insert_into_empty(self):
        assert merge_tagged([], [], [1]) == [TaggedValue(1, "C")]

    def test_a_before_equal_b(self):
        merged = merge_tagged([1], [0, 1], [])
        assert merged == [TaggedValue(0, "B"), TaggedValue(1, "A"), TaggedValue(1, "B")]

    def test_c_before_equal_b(self):
        merged = merge_tagged([], [3, 3], [3])
        assert [t.tag for t in merged] == ["C", "B", "B"]

    def test_overlapping_a_c_rejected(self):
        with pytest.raises(OverlappingAC) as exc:
            merge_tagged([1, 2], [0], [2, 3])
        assert exc.value.overlap == {2}

    def test_rejects_unsorted_inputs(self):
        with pytest.raises(LatticeError):
            merge_tagged([2, 1], [], [])
        with pytest.raises(LatticeError):
            merge_tagged([], [1, 0], [])
        with pytest.raises(LatticeError):
            merge_tagged([1, 1], [], [])

    def test_rejects_nonpositive_a_or_c(self):
        with pytest.raises(LatticeError):
            merge_tagged([0], [], [])
        with pytest.raises(LatticeError):
            merge_tagged([], [], [0])

    def test_tagged_to_word_substitution(self):
        merged = merge_tagged([1, 3, 4, 5, 8], [1, 1, 5, 7, 7], [2, 6, 7])
        assert tagged_to_word(merged) == WORKED_WORD

    @pytest.mark.parametrize("n", range(5))
    def test_merge_inverts_labeling_exhaustively(self, n):
        # merging a central path's grouped labels must reproduce the
        # word-order tagged reading of that same path
        for path in enumerate_delannoy(n):
            labels = step_labels(path)
            merged = merge_tagged(labels.a_labels, labels.b_labels, labels.c_labels)
            assert merged == word_order_tagged(path.word)

    @given(
        heights=st.sets(st.integers(1, 12), max_size=8),
        mask=st.lists(st.booleans(), min_size=8, max_size=8),
        b_values=st.lists(st.integers(0, 12), max_size=8),
    )
    def test_merge_shape_properties(self, heights, mask, b_values):
        ordered = sorted(heights)
        a = [v for v, keep in zip(ordered, mask) if keep]
        c = [v for v, keep in zip(ordered, mask) if not keep]
        b = sorted(b_values)
        merged = merge_tagged(a, b, c)
        values = [t.value for t in merged]
        assert values == sorted(values)
        assert len(merged) == len(a) + len(b) + len(c)
        assert [t.value for t in merged if t.tag == "A"] == a
        assert [t.value for t in merged if t.tag == "B"] == b
        assert [t.value for t in merged if t.tag == "C"] == c
        # among entries of one value, every A and C precedes every B
        for value in set(values):
            tags = [t.tag for t in merged if t.value == value]
            first_b = tags.index("B") if "B" in tags else len(tags)
            assert all(tag == "B" for tag in tags[first_b:])


class TestPhiInverse:
    def test_worked_example(self):
        kpath = make_kimberling(list(WORKED_IMAGE))
        assert phi_inverse(kpath).word == WORKED_WORD

    def test_smallest(self):
        assert phi_inverse(make_kimberling([(0, 0), (1, 0)])).word == ""

    def test_single_interior(self):
        assert phi_inverse(make_kimberling([(0, 0), (1, 1), (2, 1)])).word == "NE"

    def test_bad_endpoint(self):
        with pytest.raises(BadEndpoint) as exc:
            phi_inverse(make_kimberling([(0, 0), (2, 2)]))
        assert (exc.value.x, exc.value.y) == (2, 2)

    def test_degenerate_origin_rejected(self):
        with pytest.raises(BadEndpoint):
            phi_inverse(make_kimberling([(0, 0)]))

    def test_inverse_parts_worked_example(self):
        a, b, c, merged = inverse_parts(make_kimberling(list(WORKED_IMAGE)))
        assert a == [1, 3, 4, 5, 8]
        assert b == [1, 1, 5, 7, 7]
        assert c == [2, 6, 7]
        assert " ".join(map(str, merged)) == WORKED_MERGED


class TestRoundTrips:
    @pytest.mark.parametrize("n", range(6))
    def test_inverse_after_forward_exhaustive(self, n):
        for path in enumerate_delannoy(n):
            assert phi_inverse(phi(path)).word == path.word

    @pytest.mark.parametrize("n", range(6))
    def test_forward_after_inverse_exhaustive(self, n):
        for kpath in enumerate_kimberling(n + 1, n):
            assert phi(phi_inverse(kpath)) == kpath

    @pytest.mark.parametrize("n", range(5))
    def test_image_characterization(self, n):
        images = {phi(p) for p in enumerate_delannoy(n)}
        family = set(enumerate_kimberling(n + 1, n))
        assert images == family

    @pytest.mark.parametrize("n", range(6))
    def test_statistic_transport(self, n):
        for path in enumerate_delannoy(n):
            assert len(phi(path).interior) == path.e_count

    @given(st.data())
    def test_roundtrip_random_larger_orders(self, data):
        n = data.draw(st.integers(0, 12))
        k = data.draw(st.integers(0, n))
        word = data.draw(st.permutations(list("E" * k + "N" * k + "D" * (n - k))))
        path = parse_step_word("".join(word))
        assert central_index(path) == (n, k)
        image = phi(path)
        assert image.endpoint == (n + 1, n)
        assert phi_inverse(image).word == path.word
