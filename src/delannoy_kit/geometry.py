"""Subdiagonal predicates and per-step diagonal comparisons, integer-exact.

A path is subdiagonal when it lies weakly below the straight line joining
its endpoints: y = x for a central path to (n, n), y = n/(n+1) * x for its
image ending at (n+1, n).  All comparisons cross-multiply so this module
contains no rational or floating-point arithmetic; in particular the fact
that an interior vertex never lands exactly on the image diagonal is a
divisibility statement and is tested exactly.

Checking vertices alone suffices: every step segment whose endpoints lie
weakly below a line through the origin stays weakly below it.

The per-step lemma reads one walk of the word, ``walk_east_steps``: the
terminal vertex of each East step, and the D steps before each N and each
E step.  ``diagonal_comparisons`` sets the i-th East end against y = x and
the i-th interior vertex of the image against its chord; ``diagonal_flags``
and the ``classify`` command both call it.
"""

from __future__ import annotations

from typing import Sequence

from .lattice_core import (
    DelannoyPath,
    KimberlingPath,
    LatticePoint,
    _image_order,
    central_index,
)
from .bijection import phi

CASE_EQUAL = "equal"
CASE_MORE_BEFORE_EAST = "more_before_east"
CASE_MORE_BEFORE_NORTH = "more_before_north"
CASE_LABELS = (CASE_EQUAL, CASE_MORE_BEFORE_EAST, CASE_MORE_BEFORE_NORTH)


def is_subdiagonal_delannoy(path: DelannoyPath) -> bool:
    """True iff every vertex (X, Y) of a central path satisfies Y <= X."""
    central_index(path)
    return _word_below_diagonal(path.word)


def _word_below_diagonal(word: str) -> bool:
    """The walk of ``is_subdiagonal_delannoy`` over a word string."""
    x = y = 0
    for ch in word:
        if ch == "E":
            x += 1
        elif ch == "N":
            y += 1
        else:
            x += 1
            y += 1
        if y > x:
            return False
    return True


def is_subdiagonal_kimberling(kpath: KimberlingPath) -> bool:
    """True iff every vertex satisfies y * (n+1) <= x * n, for a path to (n+1, n).

    Raises ``BadEndpoint`` for any other endpoint; on this family the test
    is ``below_endpoint_chord``.
    """
    return _image_below_chord(kpath.vertices)


def _image_below_chord(vertices: tuple[LatticePoint, ...]) -> bool:
    """``is_subdiagonal_kimberling`` of a vertex tuple, endpoint rule included."""
    _image_order(vertices)
    return _below_chord(vertices)


def below_endpoint_chord(kpath: KimberlingPath) -> bool:
    """Vertex test against the chord to the path's own endpoint.

    For an endpoint (i, j) this checks y * i <= x * j at every vertex; it
    accepts any endpoint, where ``is_subdiagonal_kimberling`` requires one
    of the form (n+1, n).
    """
    return _below_chord(kpath.vertices)


def _below_chord(vertices: tuple[LatticePoint, ...]) -> bool:
    """The loop of ``below_endpoint_chord`` over a vertex tuple."""
    i_end, j_end = vertices[-1]
    for x, y in vertices:  # a plain loop: all() over a generator took 3.5x as long
        if y * i_end > x * j_end:
            return False
    return True


def walk_east_steps(word: str) -> tuple[list[LatticePoint], list[int], list[int]]:
    """One pass over a step word: the terminal vertex of each East step, and
    how many D steps precede each N step and each E step.

    Takes a word over E/N/D and checks nothing: any character other than E
    or N counts as a D step.  For a central word the three lists have one
    entry per East index."""
    x = y = d = 0
    ends: list[LatticePoint] = []
    before_north: list[int] = []
    before_east: list[int] = []
    for ch in word:
        if ch == "E":
            x += 1
            ends.append((x, y))
            before_east.append(d)
        elif ch == "N":
            y += 1
            before_north.append(d)
        else:
            x += 1
            y += 1
            d += 1
    return ends, before_north, before_east


def diagonal_comparisons(
    n: int, ends: Sequence[LatticePoint], interior: Sequence[LatticePoint]
) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """Both diagonal comparisons, one entry per East index.

    ``east_weakly_above[i]``: the i-th East step's terminal vertex (X, Y),
    from ``walk_east_steps``, satisfies Y >= X.  ``vertex_strictly_above[i]``:
    the i-th interior vertex (x, y) of the image satisfies y * (n+1) > x * n.
    """
    east_weakly_above = tuple(py >= px for px, py in ends)
    vertex_strictly_above = tuple(y * (n + 1) > x * n for x, y in interior)
    return east_weakly_above, vertex_strictly_above


def diagonal_flags(path: DelannoyPath) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """``diagonal_comparisons`` of a central path: the East-end flags and the
    interior-vertex flags of its image."""
    image = phi(path)
    ends, _, _ = walk_east_steps(path.word)
    return diagonal_comparisons(image.endpoint[1], ends, image.interior)


def preceding_d_counts(path: DelannoyPath) -> list[tuple[int, int]]:
    """For each index i: how many D steps precede the i-th N and the i-th E.

    The three possible orderings of the two counts partition the East
    indices; the pair is equal exactly when no D falls between the i-th N
    and the i-th E.
    """
    central_index(path)
    _, before_north, before_east = walk_east_steps(path.word)
    return list(zip(before_north, before_east))


def classify_d_counts(before_north: int, before_east: int) -> str:
    """One of the three case labels for a (before_north, before_east) pair."""
    if before_north == before_east:
        return CASE_EQUAL
    if before_north < before_east:
        return CASE_MORE_BEFORE_EAST
    return CASE_MORE_BEFORE_NORTH
