import pytest
from hypothesis import given, strategies as st

from delannoy_kit import (
    BadEndpoint,
    KimberlingPath,
    NotCentral,
    central_index,
    enumerate_delannoy,
    enumerate_kimberling,
    parse_step_word,
    phi,
    phi_inverse,
)
from delannoy_kit.bijection import _image, _parts
from delannoy_kit.cli import _LETTERS_TO_TAGS

WORKED_WORD = "NEEDNNNEDDEEN"
WORKED_IMAGE = ((0, 0), (1, 1), (3, 1), (4, 5), (5, 7), (8, 7), (9, 8))


def word_order_tagged(word):
    """Independent oracle: read each step's terminal height with its tag."""
    y = 0
    out = []
    for ch in word:
        if ch == "E":
            out.append((y, "B"))
        elif ch == "N":
            y += 1
            out.append((y, "A"))
        else:
            y += 1
            out.append((y, "C"))
    return out


class TestStepLabels:
    # the labels are read off the image: its interior x's are the North
    # labels, its interior y's the East labels (A and B of ``_parts``)

    def test_worked_example(self):
        assert _parts(phi(parse_step_word(WORKED_WORD))) == (
            [1, 3, 4, 5, 8],
            [1, 1, 5, 7, 7],
            [2, 6, 7],
        )

    def test_empty(self):
        assert _parts(phi(parse_step_word(""))) == ([], [], [])

    def test_single_diagonal(self):
        assert _parts(phi(parse_step_word("D"))) == ([], [], [1])

    def test_requires_central(self):
        with pytest.raises(NotCentral) as exc:
            _image("EED")
        assert (exc.value.e_count, exc.value.n_count) == (2, 0)

    @pytest.mark.parametrize("n", range(6))
    def test_label_structure(self, n):
        # a strictly increasing and b weakly increasing is exactly what
        # makes the image a valid vertex path
        for path in enumerate_delannoy(n):
            interior = phi(path).interior
            a = [x for x, _ in interior]
            b = [y for _, y in interior]
            c = [height for height, tag in word_order_tagged(path.word) if tag == "C"]
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
    @pytest.mark.parametrize("n", range(5))
    def test_merge_inverts_labeling_exhaustively(self, n):
        # the inverse's merge of a central path's image, built as unmap --debug
        # builds it, must reproduce the word-order tagged reading of that same
        # path, and A, B and C, read off the path and as the merge's value
        # groups, must be the path's north labels, east labels and D heights
        for path in enumerate_delannoy(n):
            image = phi(path)
            a, b, c = _parts(image)
            tags = phi_inverse(image).word.translate(_LETTERS_TO_TAGS)
            merged = list(zip(sorted(a + b + c), tags, strict=True))
            assert merged == word_order_tagged(path.word)
            groups = tuple([v for v, t in merged if t == tag] for tag in "ABC")
            assert (a, b, c) == groups
            # the i-th interior vertex pairs the i-th North and East labels
            assert list(zip(a, b)) == list(image.interior)


class TestPhiInverse:
    def test_worked_example(self):
        kpath = KimberlingPath(list(WORKED_IMAGE))
        assert phi_inverse(kpath).word == WORKED_WORD

    def test_smallest(self):
        assert phi_inverse(KimberlingPath([(0, 0), (1, 0)])).word == ""

    def test_single_interior(self):
        assert phi_inverse(KimberlingPath([(0, 0), (1, 1), (2, 1)])).word == "NE"

    def test_bad_endpoint(self):
        with pytest.raises(BadEndpoint) as exc:
            phi_inverse(KimberlingPath([(0, 0), (2, 2)]))
        assert (exc.value.x, exc.value.y) == (2, 2)

    def test_degenerate_origin_rejected(self):
        with pytest.raises(BadEndpoint):
            phi_inverse(KimberlingPath([(0, 0)]))


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
            assert len(phi(path).interior) == path.word.count("E")

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
