"""The bijection between central E/N/D words and vertex paths to (n+1, n).

Forward direction: label every East and North step of a central path with
the y-coordinate of the step's terminal vertex.  The labels of the N steps
(in step order) are strictly increasing; the labels of the E steps are
weakly increasing.  Pairing the i-th N label with the i-th E label gives
the i-th interior vertex of the image path, which runs from (0, 0) to
(n+1, n).  ``step_labels`` is that one walk of the word: it returns the
(north, east, diagonal) label lists, and ``phi`` pairs the first two.

Inverse direction: from a path ending at (n+1, n), read off

* ``A`` -- the set of interior x-coordinates,
* ``B`` -- the multiset of interior y-coordinates,
* ``C`` -- the complement {1, ..., n} \\ A.

Each height level 1..n is reached exactly once, by an N step (heights in
A) or by a D step (heights in C), which is why A and C partition {1..n}.
The word is therefore a scan over the heights: one E per B value equal to
0, then for each h = 1..n an N if h is in A, else a D, followed by one E
per B value equal to h.  The same scan, tagging A -> N, B -> E, C -> D,
is the merge of A, B and C into weakly increasing order with A and C ahead
of equal B values.
"""

from __future__ import annotations

from .lattice_core import (
    DelannoyPath,
    KimberlingPath,
    NotCentral,
    _image_order,
    _unchecked_vertices,
    _unchecked_word,
)

_LETTERS_TO_TAGS = str.maketrans("NED", "ABC")


def step_labels(path: DelannoyPath) -> tuple[list[int], list[int], list[int]]:
    """Label each step with its terminal y-coordinate: the (north, east,
    diagonal) label lists, each in step order.

    North labels rise strictly, east labels weakly, diagonal labels
    strictly; north and diagonal labels together cover the heights 1..n
    once each.  Only the north and east labels feed the forward map; the
    inverse reads the diagonal ones back as the complement set C.  Raises
    ``NotCentral`` unless #E == #N.
    """
    y = 0
    north: list[int] = []
    east: list[int] = []
    diagonal: list[int] = []
    for ch in path.word:
        if ch == "E":
            east.append(y)
        elif ch == "N":
            y += 1
            north.append(y)
        else:
            y += 1
            diagonal.append(y)
    if len(north) != len(east):
        raise NotCentral(len(east), len(north))
    return north, east, diagonal


def phi(path: DelannoyPath) -> KimberlingPath:
    """Map a central path to its vertex path in K_{n+1, n}.

    The i-th interior vertex is (i-th N label, i-th E label); the image
    has exactly k interior vertices, one per East step.  Raises
    ``NotCentral`` for non-central paths.
    """
    return _pair_labels(*step_labels(path))


def _pair_labels(north: list[int], east: list[int], diagonal: list[int]) -> KimberlingPath:
    """The image path of a central word from its ``step_labels``."""
    n = len(north) + len(diagonal)
    # N heights rise strictly from >= 1 to <= n, E heights weakly within 0..n
    return _unchecked_vertices(((0, 0), *zip(north, east), (n + 1, n)))


def _height_slots(kpath: KimberlingPath) -> list[str]:
    """The height scan of a path to (n+1, n): slot h spells the steps that end at height h.

    Slot 0 is one E per interior vertex at height 0; slot h (1..n) is N when
    an interior vertex has x = h, else D, followed by one E per interior
    vertex at height h.  Joined, the slots spell the word; read back as tags
    (N -> A, E -> B, D -> C) they give the merge order.  Raises
    ``BadEndpoint`` when the terminal vertex has no (n+1, n) shape.
    """
    slots = ["D"] * (_image_order(kpath) + 1)
    slots[0] = ""
    interior = kpath.vertices[1:-1]
    # every N is placed before any E is appended, so an E at height h = x survives
    for x, _ in interior:
        slots[x] = "N"
    for _, y in interior:
        slots[y] += "E"
    return slots


def inverse_parts(
    kpath: KimberlingPath,
) -> tuple[list[int], list[int], list[int], list[tuple[int, str]]]:
    """The A, B, C sequences and merged tagged sequence for a path to (n+1, n).

    A is the sorted list of interior x-coordinates, B the weakly increasing
    interior y-coordinates, C the ascending complement {1..n} \\ A.  The
    merge is a list of (value, tag) pairs, tag "A", "B" or "C".  Raises
    ``BadEndpoint`` when the terminal vertex has no (n+1, n) shape.
    """
    slots = _height_slots(kpath)
    interior = kpath.vertices[1:-1]
    a = [x for x, _ in interior]
    b = [y for _, y in interior]
    c = [h for h, slot in enumerate(slots) if slot[:1] == "D"]
    # the slots spell the merge's tags in the order of its values, A, B and C sorted
    tags = "".join(slots).translate(_LETTERS_TO_TAGS)
    return a, b, c, list(zip(sorted(a + b + c), tags))


def phi_inverse(kpath: KimberlingPath) -> DelannoyPath:
    """Invert the map for a path ending at (n+1, n).

    Raises ``BadEndpoint`` when the terminal vertex has no such shape.
    The result is central with index (n, #interior vertices).
    """
    # the height slots hold only the letters D, N and E
    return _unchecked_word("".join(_height_slots(kpath)))
