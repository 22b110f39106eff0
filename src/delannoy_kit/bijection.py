"""The bijection between central E/N/D words and vertex paths to (n+1, n).

Forward direction: label every East and North step of a central path with
the y-coordinate of the step's terminal vertex.  The labels of the N steps
(in step order) are strictly increasing; the labels of the E steps are
weakly increasing.  Pairing the i-th N label with the i-th E label gives
the i-th interior vertex of the image path, which runs from (0, 0) to
(n+1, n).

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

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple

from .lattice_core import DelannoyPath, KimberlingPath, NotCentral, _image_order

LETTER_TO_TAG = {"N": "A", "E": "B", "D": "C"}


@dataclass(frozen=True)
class StepLabels:
    """Terminal-y labels of a central path's steps, grouped by letter.

    ``a_labels`` (N steps) are strictly increasing, ``b_labels`` (E steps)
    weakly increasing, ``c_labels`` (D steps) strictly increasing; A and C
    are disjoint and together cover every height level 1..n.
    """

    a_labels: tuple[int, ...]
    b_labels: tuple[int, ...]
    c_labels: tuple[int, ...]


class TaggedValue(NamedTuple):
    """An integer carrying its source tag A, B, or C."""

    value: int
    tag: str

    def __str__(self) -> str:
        return f"{self.value}{self.tag}"


def _terminal_heights(word: str) -> tuple[list[int], list[int], list[int]]:
    """Terminal heights of the N, E and D steps; ``NotCentral`` unless #E == #N."""
    y = 0
    a: list[int] = []
    b: list[int] = []
    c: list[int] = []
    for ch in word:
        if ch == "E":
            b.append(y)
        elif ch == "N":
            y += 1
            a.append(y)
        else:
            y += 1
            c.append(y)
    if len(a) != len(b):
        raise NotCentral(len(b), len(a))
    return a, b, c


def step_labels(path: DelannoyPath) -> StepLabels:
    """Label each step with its terminal y-coordinate, grouped by step letter.

    Only E and N labels feed the forward map; D labels are computed too
    because the inverse reads them back as the complement set C.  Raises
    ``NotCentral`` for non-central paths.
    """
    a, b, c = _terminal_heights(path.word)
    return StepLabels(tuple(a), tuple(b), tuple(c))


def phi(path: DelannoyPath) -> KimberlingPath:
    """Map a central path to its vertex path in K_{n+1, n}.

    The i-th interior vertex is (i-th N label, i-th E label); the image
    has exactly k interior vertices, one per East step.  Raises
    ``NotCentral`` for non-central paths.
    """
    a, b, c = _terminal_heights(path.word)
    n = len(a) + len(c)
    vertices = ((0, 0),) + tuple(zip(a, b)) + ((n + 1, n),)
    return KimberlingPath(vertices)


def _height_slots(n: int, a: Iterable[int], b: Iterable[int]) -> list[str]:
    """The height scan: slot h spells the steps that end at height h.

    Slot 0 is one E per zero in ``b``; slot h (1..n) is N when h is in ``a``,
    else D, followed by one E per h in ``b``.  Joined, the slots spell the
    word; read back as tags (N -> A, E -> B, D -> C) they give the merge order.
    """
    slots = ["D"] * (n + 1)
    slots[0] = ""
    for x in a:
        slots[x] = "N"
    for y in b:
        slots[y] += "E"
    return slots


def inverse_parts(
    kpath: KimberlingPath,
) -> tuple[list[int], list[int], list[int], list[TaggedValue]]:
    """The A, B, C sequences and merged tagged sequence for a path to (n+1, n).

    A is the sorted list of interior x-coordinates, B the weakly increasing
    interior y-coordinates, C the ascending complement {1..n} \\ A.  Raises
    ``BadEndpoint`` when the terminal vertex has no (n+1, n) shape.
    """
    a = [x for x, _ in kpath.interior]
    b = [y for _, y in kpath.interior]
    slots = _height_slots(_image_order(kpath), a, b)
    c = [h for h, slot in enumerate(slots) if slot[:1] == "D"]
    merged = [TaggedValue(h, LETTER_TO_TAG[ch]) for h, slot in enumerate(slots) for ch in slot]
    return a, b, c, merged


def phi_inverse(kpath: KimberlingPath) -> DelannoyPath:
    """Invert the map for a path ending at (n+1, n).

    Raises ``BadEndpoint`` when the terminal vertex has no such shape.
    The result is central with index (n, #interior vertices).
    """
    interior = kpath.interior
    xs, ys = map(itemgetter(0), interior), map(itemgetter(1), interior)
    return DelannoyPath("".join(_height_slots(_image_order(kpath), xs, ys)))

