"""Exact counting, exhaustive enumeration, and uniform sampling.

Everything here is integer-exact: counts use arbitrary-precision integers
throughout (central Delannoy numbers outgrow 64 bits near n = 25), and the
sampler draws from exact counts rather than floating-point weights.

The per-k closed forms (``count_delannoy_by_e``,
``count_kimberling_by_vertices``) are ``math.comb`` products and serve as
the independent oracle of the ``counts`` check.  The totals and the
sampler's k-bounds instead step the per-k terms by their ratio, so a total
costs O(n) big-integer steps.  The sampler builds a word letter by letter
from exact counts (sequential sampling, Nijenhuis & Wilf, *Combinatorial
Algorithms*, 1978), updating the number of arrangements of the letters
left by one multiply and one exact divide per candidate letter: a draw of
order n costs O(n) big-integer steps, plus one pass of the term recurrence
per stream.  Every ``randrange`` call gets the same bound as when each
count was recomputed from binomials, so the seed-to-path stream is
unchanged.

Enumeration orders are fixed so golden outputs stay stable:

* ``enumerate_delannoy(n)`` yields words in lexicographic order under
  D < E < N.  Each k-slice is the multiset {D^(n-k), E^k, N^k} split into
  a head and a tail of the last ``TAIL_LETTERS`` letters (all of them in a
  shorter word).  Knuth's Algorithm L (TAOCP 4A, 7.2.1.2) steps the head
  from one arrangement to the next lexicographically larger one in place;
  each head is followed by every arrangement of its tail's letters, in
  lexicographic order, read from a table built once per process and
  bounded by 3^0 + ... + 3^6 = 1,093 strings.  A word is its head then its
  tail, so the order is Algorithm L's over the whole word, no enumerator
  recurses, and working memory is O(n) beside the fixed table.
* ``enumerate_kimberling(i, j)`` is k-major: interior-vertex count
  ascending, then lexicographic by x-set, then by y-multiset.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_right
from functools import cache
from itertools import accumulate, combinations, combinations_with_replacement, product
from operator import attrgetter
from typing import Iterator

from .lattice_core import DelannoyPath, KimberlingPath, _unchecked_vertices, _unchecked_word


# the last TAIL_LETTERS letters of each word come from ``_tail_table``
TAIL_LETTERS = 6


def _require_order(n: int, caller: str) -> None:
    if n < 0:
        raise ValueError(f"{caller} requires n >= 0, got {n}")


def _require_endpoint(i: int, j: int, caller: str) -> None:
    if i < 0 or j < 0:
        raise ValueError(f"{caller} requires i, j >= 0, got ({i}, {j})")


def count_delannoy_by_e(n: int, k: int) -> int:
    """Number of central paths to (n, n) with exactly k East steps.

    A path with k East steps is a linear arrangement of k Es, k Ns, and
    n-k Ds, so the count is the multinomial C(n+k; k, k, n-k), i.e.
    C(n, k) * C(n+k, k).  Any k outside 0..n counts 0.
    """
    _require_order(n, "count_delannoy_by_e")
    if not 0 <= k <= n:
        return 0
    return math.comb(n, k) * math.comb(n + k, k)


def _slice_terms(m: int, j: int) -> Iterator[int]:
    """C(m, k) * C(j+k, k) for k = 0..m, each from the one before.

    T(k+1) = T(k) * (m-k) * (j+k+1) / (k+1)^2; T(k+1) is an integer, so
    dividing only after multiplying keeps the division exact.
    """
    term = 1
    for k in range(m + 1):
        yield term
        term = term * ((m - k) * (j + k + 1)) // ((k + 1) * (k + 1))


def count_delannoy(n: int) -> int:
    """The central Delannoy number: total paths from (0,0) to (n,n)."""
    _require_order(n, "count_delannoy")
    return sum(_slice_terms(n, n))


def count_kimberling_by_vertices(i: int, j: int, k: int) -> int:
    """Number of finite-nonnegative-slope paths to (i, j) with k interior vertices.

    Interior x-coordinates form a k-subset of {1, ..., i-1} and interior
    y-coordinates independently form a k-multiset over {0, ..., j}, giving
    C(i-1, k) * C(j+k, k).  The degenerate endpoint (0, 0) admits exactly
    the single-vertex path.  Any k outside 0..i-1 counts 0.
    """
    _require_endpoint(i, j, "count_kimberling_by_vertices")
    if i == 0:
        return 1 if (j == 0 and k == 0) else 0
    if not 0 <= k <= i - 1:
        return 0
    return math.comb(i - 1, k) * math.comb(j + k, k)


def count_kimberling(i: int, j: int) -> int:
    """Total finite-nonnegative-slope paths from (0,0) to (i, j)."""
    _require_endpoint(i, j, "count_kimberling")
    if i == 0:
        return 1 if j == 0 else 0
    return sum(_slice_terms(i - 1, j))


def schroder(n: int) -> int:
    """The n-th large Schroder number, by the three-term recurrence.

    r(0) = 1, r(1) = 2, (m+1) r(m) = 3(2m-1) r(m-1) - (m-2) r(m-2).
    Kept free of any path enumeration so it can serve as an independent
    oracle for subdiagonal counts.
    """
    _require_order(n, "schroder")
    if n == 0:
        return 1
    prev, cur = 1, 2
    for m in range(2, n + 1):
        numerator = 3 * (2 * m - 1) * cur - (m - 2) * prev
        quotient, remainder = divmod(numerator, m + 1)
        assert remainder == 0, "Schroder recurrence must divide exactly"
        prev, cur = cur, quotient
    return cur


def enumerate_delannoy(n: int) -> Iterator[DelannoyPath]:
    """Yield every central path to (n, n) once, in word order under D < E < N.

    No central word of order n is a prefix of another, so the family in
    lexicographic order is the merge of its k-slices, each already in
    lexicographic order.
    """
    _require_order(n, "enumerate_delannoy")
    slices = [enumerate_delannoy_by_e(n, k) for k in range(n + 1)]
    return heapq.merge(*slices, key=attrgetter("word"))


def enumerate_delannoy_by_e(n: int, k: int) -> Iterator[DelannoyPath]:
    """Yield the central paths to (n, n) with exactly k East steps, lexicographically.

    This is the k-slice of ``enumerate_delannoy(n)`` in the same relative
    order; the harness uses it to partition sweeps into independent units.
    """
    _require_order(n, "enumerate_delannoy_by_e")
    if not 0 <= k <= n:
        return
    # Algorithm L: the ASCII order of the letters is the order D < E < N.
    word = ["D"] * (n - k) + ["E"] * k + ["N"] * k
    last = len(word) - 1
    cut = max(len(word) - TAIL_LETTERS, 0)
    tails = _tail_table(len(word) - cut)
    while True:
        # the tail word[cut:] is ascending here, which keys its arrangements;
        # Algorithm L only permutes the letters D, E and N
        tail = word[cut:]
        yield from map(_unchecked_word, map("".join(word[:cut]).__add__, tails["".join(tail)]))
        # the head's last word has its tail descending; step the head from there
        tail.reverse()
        word[cut:] = tail
        j = cut - 1
        while j >= 0 and word[j] >= word[j + 1]:
            j -= 1
        if j < 0:
            return
        i = last
        while word[j] >= word[i]:
            i -= 1
        word[j], word[i] = word[i], word[j]
        word[j + 1 :] = word[:j:-1]


@cache
def _tail_table(size: int) -> dict[str, tuple[str, ...]]:
    """Every word of ``size`` letters over D, E and N, grouped by its letters
    in ascending order, each group in lexicographic order."""
    table: dict[str, list[str]] = {}
    for letters in product("DEN", repeat=size):
        table.setdefault("".join(sorted(letters)), []).append("".join(letters))
    return {key: tuple(group) for key, group in table.items()}


def enumerate_kimberling_by_vertices(i: int, j: int, k: int) -> Iterator[KimberlingPath]:
    """Yield the paths to (i, j) with exactly k interior vertices.

    Order: lexicographic by the ascending x-set, then by the weakly
    increasing y-tuple.  The x-set and y-multiset choices are independent,
    which is exactly what makes the count C(i-1, k) * C(j+k, k).
    """
    _require_endpoint(i, j, "enumerate_kimberling_by_vertices")
    if i == 0:
        if j == 0 and k == 0:
            yield KimberlingPath(((0, 0),))
        return
    if not 0 <= k <= i - 1:
        return
    end = (i, j)
    for xs in combinations(range(1, i), k):
        for ys in combinations_with_replacement(range(j + 1), k):
            # x rises strictly within 1..i-1 and y weakly within 0..j
            yield _unchecked_vertices(((0, 0), *zip(xs, ys), end))


def enumerate_kimberling(i: int, j: int) -> Iterator[KimberlingPath]:
    """Yield every path to (i, j) once: k ascending, then x-set, then y-multiset."""
    _require_endpoint(i, j, "enumerate_kimberling")
    for k in range(max(i, 1)):
        yield from enumerate_kimberling_by_vertices(i, j, k)


def _sample_with_rng(n: int, rng: random.Random, bounds: list[int]) -> DelannoyPath:
    # Draw k exactly: bounds[k] is the number of paths with at most k East
    # steps, so an integer below bounds[-1] = count_delannoy(n) falls in the
    # k-th block with probability count_delannoy_by_e(n, k) / count_delannoy(n).
    draw = rng.randrange(bounds[-1])
    k = bisect_right(bounds, draw)

    # Emit a uniform arrangement of {D^(n-k), E^k, N^k} one letter at a
    # time; each candidate letter is chosen with probability proportional
    # to the number of arrangements of the remaining letters.  With M the
    # arrangements of the `size` letters left, d of them D and e of them E,
    # removing one D leaves M * d / size of them, exactly; likewise for E,
    # and N takes the rest.
    remaining = bounds[k] - bounds[k - 1] if k else bounds[0]
    d, e = n - k, k
    letters: list[str] = []
    for size in range(n + k, 0, -1):
        r = rng.randrange(remaining)
        ways_d = remaining * d // size
        if r < ways_d:
            letters.append("D")
            d -= 1
            remaining = ways_d
            continue
        r -= ways_d
        ways_e = remaining * e // size
        if r < ways_e:
            letters.append("E")
            e -= 1
            remaining = ways_e
        else:
            letters.append("N")
            remaining -= ways_d + ways_e
    return DelannoyPath("".join(letters))


def sample_delannoy_stream(n: int, count: int, seed: int) -> Iterator[DelannoyPath]:
    """A stream of ``count`` independent, exactly-uniform draws from the
    central paths to (n, n).

    Deterministic: the same seed always yields the same paths, and the
    stream for a larger ``count`` extends the one for a smaller.
    """
    _require_order(n, "sample_delannoy_stream")
    rng = random.Random(seed)
    bounds = list(accumulate(_slice_terms(n, n)))
    for _ in range(count):
        yield _sample_with_rng(n, rng, bounds)
