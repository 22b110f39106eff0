"""Subdiagonal predicates and per-step diagonal comparisons, integer-exact.

A path is subdiagonal when it lies weakly below the straight line joining
its endpoints: y = x for a central path to (n, n), y = n/(n+1) * x for its
image ending at (n+1, n).  All comparisons cross-multiply so this module
contains no rational or floating-point arithmetic; in particular the fact
that an interior vertex never lands exactly on the image diagonal is a
divisibility statement and is tested exactly.

Checking vertices alone suffices: every step segment whose endpoints lie
weakly below a line through the origin stays weakly below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .lattice_core import (
    DelannoyPath,
    KimberlingPath,
    LatticePoint,
    _image_order,
    central_index,
)
from .bijection import step_labels

CASE_EQUAL = "equal"
CASE_MORE_BEFORE_EAST = "more_before_east"
CASE_MORE_BEFORE_NORTH = "more_before_north"
CASE_LABELS = (CASE_EQUAL, CASE_MORE_BEFORE_EAST, CASE_MORE_BEFORE_NORTH)


class EastEnd(NamedTuple):
    """Terminal vertex of the i-th East step (index is 1-based)."""

    index: int
    point: LatticePoint


@dataclass(frozen=True)
class DiagonalFlags:
    """Per-East-index diagonal comparisons for a central path and its image.

    ``east_weakly_above[i]``: the i-th East step's terminal vertex (X, Y)
    satisfies Y >= X.  ``vertex_strictly_above[i]``: the i-th interior
    vertex (x, y) of the image satisfies y * (n+1) > x * n.  Both tuples
    have one entry per East step.
    """

    east_weakly_above: tuple[bool, ...]
    vertex_strictly_above: tuple[bool, ...]


def is_subdiagonal_delannoy(path: DelannoyPath) -> bool:
    """True iff every vertex (X, Y) of a central path satisfies Y <= X."""
    central_index(path)
    x = y = 0
    for ch in path.word:
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
    _image_order(kpath)
    return below_endpoint_chord(kpath)


def below_endpoint_chord(kpath: KimberlingPath) -> bool:
    """Vertex test against the chord to the path's own endpoint.

    For an endpoint (i, j) this checks y * i <= x * j at every vertex; it
    accepts any endpoint, where ``is_subdiagonal_kimberling`` requires one
    of the form (n+1, n).
    """
    i_end, j_end = kpath.endpoint
    return all(y * i_end <= x * j_end for x, y in kpath.vertices)


def walk_east_steps(word: str) -> tuple[list[LatticePoint], list[int], list[int]]:
    """One pass over a step word: the terminal vertex of each East step, and
    how many D steps precede each N step and each E step."""
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


def east_ends(path: DelannoyPath) -> list[EastEnd]:
    """Terminal vertices of the East steps of a central path, in step order."""
    central_index(path)
    ends, _, _ = walk_east_steps(path.word)
    return [EastEnd(index, point) for index, point in enumerate(ends, start=1)]


def diagonal_flags(path: DelannoyPath) -> DiagonalFlags:
    """Evaluate both diagonal comparisons for every East index of a central path."""
    labels = step_labels(path)
    n = len(labels.a_labels) + len(labels.c_labels)
    ends, _, _ = walk_east_steps(path.word)
    east_flags = tuple(py >= px for px, py in ends)
    vertex_flags = tuple(
        y * (n + 1) > x * n for x, y in zip(labels.a_labels, labels.b_labels)
    )
    return DiagonalFlags(east_flags, vertex_flags)


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
