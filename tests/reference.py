"""Test-only references.

Earlier implementations: the package's k-slice enumerator (Algorithm L),
its inverse (a height scan) and its ratio-updated sampler replaced these;
tests compare the two outputs exactly.  The segment-sampling subdiagonal
checks, which corroborate that testing vertices alone loses nothing
between them.  And the validated A/B/C merge API, which the package no
longer calls: ``merge_tagged`` runs the package's height scan on arbitrary
inputs, ``bisect_merge_tagged`` is the interleave-and-insert merge it
replaced.
"""

import math
import random
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import accumulate

from delannoy_kit import (
    BadEndpoint,
    DelannoyPath,
    LatticeError,
    TaggedValue,
    central_index,
    count_delannoy_by_e,
    path_vertices,
)
from delannoy_kit.bijection import LETTER_TO_TAG, _height_slots

TAG_TO_LETTER = {"A": "N", "B": "E", "C": "D"}


class OverlappingAC(LatticeError):
    """The A and C value sets intersect; they must partition disjoint heights."""

    def __init__(self, overlap):
        super().__init__(f"A and C share values {sorted(overlap)}")
        self.overlap = overlap


def enumerate_delannoy_by_e(n, k):
    """The k-slice by recursive descent: D, then E, then N at every position."""
    if not 0 <= k <= n:
        return
    word = []

    def rec(d, e, n_):
        if d == 0 and e == 0 and n_ == 0:
            yield DelannoyPath("".join(word))
            return
        if d:
            word.append("D")
            yield from rec(d - 1, e, n_)
            word.pop()
        if e:
            word.append("E")
            yield from rec(d, e - 1, n_)
            word.pop()
        if n_:
            word.append("N")
            yield from rec(d, e, n_ - 1)
            word.pop()

    yield from rec(n - k, k, k)


def _validated_parts(a_set, b_multiset, c_set):
    a = list(a_set)
    b = list(b_multiset)
    c = list(c_set)
    _require_increasing(a, "a_set", strict=True)
    _require_increasing(b, "b_multiset", strict=False)
    _require_increasing(c, "c_set", strict=True)
    if (a and a[0] < 1) or (c and c[0] < 1):
        raise LatticeError("A and C values must be >= 1")
    overlap = set(a) & set(c)
    if overlap:
        raise OverlappingAC(overlap)
    return a, b, c


def merge_tagged(a_set, b_multiset, c_set):
    """Merge A, B and C into weakly increasing order, A and C ahead of equal B.

    ``a_set`` and ``c_set`` must be strictly increasing with values >= 1
    and disjoint from each other; ``b_multiset`` must be weakly increasing.
    Ranking the A and C values 1..m, and giving each B value the rank of
    the largest A or C value not above it, reduces the merge to the height
    scan of the inverse.
    """
    a, b, c = _validated_parts(a_set, b_multiset, c_set)
    heights = sorted(a + c)
    rank = partial(bisect_right, heights)
    letters = "".join(_height_slots(len(heights), map(rank, a), map(rank, b)))
    return [
        TaggedValue(v, LETTER_TO_TAG[ch]) for v, ch in zip(sorted(a + b + c), letters)
    ]


def tagged_to_word(tagged):
    """Spell a tagged sequence as a step word via A -> N, B -> E, C -> D."""
    return "".join(TAG_TO_LETTER[t.tag] for t in tagged)


def bisect_merge_tagged(a_set, b_multiset, c_set):
    """Interleave A and B (A first on ties), then insert each C leftmost."""
    values, tags = _merge_core(*_validated_parts(a_set, b_multiset, c_set))
    return [TaggedValue(v, t) for v, t in zip(values, tags)]


def _merge_core(a, b, c):
    values = []
    tags = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        if a[ia] <= b[ib]:
            values.append(a[ia])
            tags.append("A")
            ia += 1
        else:
            values.append(b[ib])
            tags.append("B")
            ib += 1
    values.extend(a[ia:])
    tags.extend("A" * (len(a) - ia))
    values.extend(b[ib:])
    tags.extend("B" * (len(b) - ib))

    for cv in c:
        pos = bisect_left(values, cv)
        values.insert(pos, cv)
        tags.insert(pos, "C")
    return values, tags


def inverse_parts(kpath):
    """A, B, C and the merged tagged sequence of a path to (n+1, n)."""
    ex, ey = kpath.endpoint
    if ex != ey + 1 or ey < 0:
        raise BadEndpoint(ex, ey)
    interior = kpath.interior
    a = [x for x, _ in interior]
    b = [y for _, y in interior]
    present = set(a)
    c = [v for v in range(1, ey + 1) if v not in present]
    return a, b, c, bisect_merge_tagged(a, b, c)


def phi_inverse(kpath):
    """The word spelled by the merged tagged sequence."""
    *_, merged = inverse_parts(kpath)
    return DelannoyPath(tagged_to_word(merged))


def _require_increasing(seq, name, strict):
    for i in range(1, len(seq)):
        if seq[i] < seq[i - 1] or (strict and seq[i] == seq[i - 1]):
            kind = "strictly" if strict else "weakly"
            raise LatticeError(f"{name} must be {kind} increasing")


def sampled_subdiagonal_delannoy(path):
    """Subdiagonality of a central path checked at sampled segment points.

    Each step segment is sampled at parameters m/(n+1), m = 0..n+1, and
    compared against y = x in integers.
    """
    n, _ = central_index(path)
    den = n + 1
    verts = path_vertices(path)
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        dx, dy = x1 - x0, y1 - y0
        for m in range(den + 1):
            if (y0 * den + m * dy) > (x0 * den + m * dx):
                return False
    return True


def sampled_subdiagonal_kimberling(kpath):
    """Image-side analogue of ``sampled_subdiagonal_delannoy``.

    Samples each segment at parameters m/(n+1) and compares against
    y = n/(n+1) * x by cross-multiplication.
    """
    ex, ey = kpath.endpoint
    if ex != ey + 1 or ey < 0:
        raise BadEndpoint(ex, ey)
    n = ey
    den = n + 1
    verts = kpath.vertices
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        dx, dy = x1 - x0, y1 - y0
        for m in range(den + 1):
            if (y0 * den + m * dy) * den > (x0 * den + m * dx) * n:
                return False
    return True


def _multinomial(d, e, n_):
    """Arrangements of a multiset with d + e + n' letters of three kinds."""
    return math.comb(d + e + n_, d) * math.comb(e + n_, e)


def _sample_with_rng(n, rng, bounds):
    draw = rng.randrange(bounds[-1])
    k = bisect_right(bounds, draw)
    d, e, n_ = n - k, k, k
    letters = []
    while d or e or n_:
        remaining = _multinomial(d, e, n_)
        r = rng.randrange(remaining)
        ways_d = _multinomial(d - 1, e, n_) if d else 0
        if r < ways_d:
            letters.append("D")
            d -= 1
            continue
        r -= ways_d
        ways_e = _multinomial(d, e - 1, n_) if e else 0
        if r < ways_e:
            letters.append("E")
            e -= 1
        else:
            letters.append("N")
            n_ -= 1
    return DelannoyPath("".join(letters))


def sample_delannoy_stream(n, count, seed):
    """The sampler that recomputed every count from binomials."""
    rng = random.Random(seed)
    bounds = list(accumulate(count_delannoy_by_e(n, k) for k in range(n + 1)))
    for _ in range(count):
        yield _sample_with_rng(n, rng, bounds)
