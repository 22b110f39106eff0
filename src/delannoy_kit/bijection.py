"""The bijection between central E/N/D words and vertex paths to (n+1, n).

Forward direction: label every East and North step of a central path with
the y-coordinate of the step's terminal vertex; a D step only raises the
height.  The labels of the N steps (in step order) are strictly increasing;
the labels of the E steps are weakly increasing.  Pairing the i-th N label
with the i-th E label gives the i-th interior vertex of the image path,
which runs from (0, 0) to (n+1, n).  ``_image`` is that one walk of the
word: it labels the steps and pairs the labels.

Inverse direction: from a path ending at (n+1, n), read off

* ``A`` -- the set of interior x-coordinates,
* ``B`` -- the multiset of interior y-coordinates,
* ``C`` -- the complement {1, ..., n} \\ A.

Each height level 1..n is reached exactly once, by an N step (heights in
A) or by a D step (heights in C), which is why A and C partition {1..n}.
The word is therefore a scan over the heights: one E per B value equal to
0, then for each h = 1..n an N if h is in A, else a D, followed by one E
per B value equal to h.  ``_preimage`` is that scan and the one place it
runs.  ``_parts`` reads A, B and C, which on a word's image are its north
labels, its east labels and the heights of its D steps.  ``phi`` and
``phi_inverse`` box what their kernels, ``_image`` and ``_preimage``, return.
"""

from __future__ import annotations

from .lattice_core import (
    DelannoyPath,
    KimberlingPath,
    LatticePoint,
    NotCentral,
    _image_order,
    _unchecked_vertices,
    _unchecked_word,
)


def phi(path: DelannoyPath) -> KimberlingPath:
    """Map a central path to its vertex path in K_{n+1, n}.

    The i-th interior vertex is (i-th N label, i-th E label); the image
    has exactly k interior vertices, one per East step.  Raises
    ``NotCentral`` for non-central paths.
    """
    # N heights rise strictly from >= 1 to <= n, E heights weakly within 0..n
    return _unchecked_vertices(_image(path.word))


def _image(word: str) -> tuple[LatticePoint, ...]:
    """The vertex tuple of ``phi`` of a word over E/N/D, from one walk that
    labels each N and E step with its terminal height, which ends at n.
    Raises ``NotCentral`` unless #E == #N, and checks nothing else."""
    y = 0
    north: list[int] = []
    east: list[int] = []
    for ch in word:
        if ch == "E":
            east.append(y)
        else:
            y += 1
            if ch == "N":
                north.append(y)
    if len(north) != len(east):
        raise NotCentral(len(east), len(north))
    return ((0, 0), *zip(north, east), (y + 1, y))


def _parts(kpath: KimberlingPath) -> tuple[list[int], list[int], list[int]]:
    """A, B and C of a path to (n+1, n): the interior's x's and y's, and the
    heights 1..n not in A."""
    interior = kpath.vertices[1:-1]
    a = [x for x, _ in interior]
    b = [y for _, y in interior]
    present = set(a)
    c = [h for h in range(1, kpath.endpoint[1] + 1) if h not in present]
    return a, b, c


def phi_inverse(kpath: KimberlingPath) -> DelannoyPath:
    """Invert the map for a path ending at (n+1, n) by scanning its heights.

    Slot h spells the steps that end at height h: slot 0 is one E per
    interior vertex at height 0; slot h (1..n) is N when an interior vertex
    has x = h, else D, followed by one E per interior vertex at height h.
    Joined, the slots spell the word, which is central with index
    (n, #interior vertices).  Raises ``BadEndpoint`` when the terminal
    vertex has no such shape.
    """
    # the slots hold only the letters D, N and E
    return _unchecked_word(_preimage(kpath.vertices))


def _preimage(vertices: tuple[LatticePoint, ...]) -> str:
    """The word of ``phi_inverse`` of a vertex tuple of a valid path."""
    slots = ["D"] * (_image_order(vertices) + 1)
    slots[0] = ""
    interior = vertices[1:-1]
    # every N is placed before any E is appended, so an E at height h = x survives
    for x, _ in interior:
        slots[x] = "N"
    for _, y in interior:
        slots[y] += "E"
    return "".join(slots)
