"""Core path families on the integer lattice.

Two kinds of objects live here:

* ``DelannoyPath`` -- a word over the step alphabet E=(1,0), N=(0,1),
  D=(1,1), identified with the lattice walk it spells from the origin.
  A path is *central* when it uses the same number of E and N steps; it
  then ends at (n, n) with n = #E + #D.

* ``KimberlingPath`` -- a lattice path from the origin whose steps all
  have finite nonnegative slope (dx >= 1, dy >= 0).  Such a path is
  identified with its full vertex sequence: collinear interior vertices
  are significant, so two paths are equal exactly when their vertex
  sequences are.

Both types are immutable values; every operation in this module is pure.
"""

from __future__ import annotations

import copyreg
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

LatticePoint = tuple[int, int]

_WORD_RE = re.compile(r"[END]*\Z")
_ALPHABET = frozenset("END")


class LatticeError(ValueError):
    """Base class for path construction and validation failures."""

    def __reduce__(self):
        # rebuild from the message and fields; a subclass's __init__ takes the fields
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InvalidCharacter(LatticeError):
    """A step word contains a character outside the E/N/D alphabet.

    ``position`` is 1-based.
    """

    def __init__(self, position: int, char: str) -> None:
        super().__init__(f"invalid step character {char!r} at position {position}")
        self.position = position
        self.char = char


class NotCentral(LatticeError):
    """A path has unequal E and N counts where a central path is required."""

    def __init__(self, e_count: int, n_count: int) -> None:
        super().__init__(f"path is not central: {e_count} E steps vs {n_count} N steps")
        self.e_count = e_count
        self.n_count = n_count


class BadOrigin(LatticeError):
    """A vertex sequence does not start at (0, 0)."""

    def __init__(self, first: LatticePoint | None = None) -> None:
        if first is None:
            super().__init__("vertex sequence is empty; it must start at (0, 0)")
        else:
            super().__init__(f"vertex sequence starts at {first}, not (0, 0)")
        self.first = first


class NonIncreasingX(LatticeError):
    """x-coordinates fail to strictly increase.  ``index`` is the offending vertex."""

    def __init__(self, index: int) -> None:
        super().__init__(f"x-coordinate does not strictly increase at vertex {index}")
        self.index = index


class DecreasingY(LatticeError):
    """y-coordinates decrease.  ``index`` is the offending vertex."""

    def __init__(self, index: int) -> None:
        super().__init__(f"y-coordinate decreases at vertex {index}")
        self.index = index


class BadEndpoint(LatticeError):
    """A path does not terminate at a point of the required (n+1, n) shape."""

    def __init__(self, x: int, y: int) -> None:
        super().__init__(f"path terminates at ({x}, {y}), not at (n+1, n) for any n >= 0")
        self.x = x
        self.y = y


_DISPLACEMENT: dict[str, LatticePoint] = {"E": (1, 0), "N": (0, 1), "D": (1, 1)}


class CentralIndex(NamedTuple):
    """Index of a central path: endpoint (n, n), k East steps."""

    n: int
    k: int


@dataclass(frozen=True)
class DelannoyPath:
    """A (possibly empty) word over E/N/D, stored in canonical uppercase."""

    word: str

    def __post_init__(self) -> None:
        if not _WORD_RE.fullmatch(self.word):
            for position, char in enumerate(self.word, start=1):
                if char not in _ALPHABET:
                    raise InvalidCharacter(position, char)

    @property
    def e_count(self) -> int:
        return self.word.count("E")

    @property
    def n_count(self) -> int:
        return self.word.count("N")

    @property
    def d_count(self) -> int:
        return self.word.count("D")

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return self.word


@dataclass(frozen=True)
class KimberlingPath:
    """A finite-nonnegative-slope path, stored as its full vertex sequence.

    The degenerate single-vertex sequence ((0, 0),) is the unique path
    ending at the origin itself.
    """

    vertices: tuple[LatticePoint, ...]

    def __post_init__(self) -> None:
        verts = self.vertices
        if not verts or verts[0] != (0, 0):
            raise BadOrigin(verts[0] if verts else None)
        px, py = verts[0]
        for index in range(1, len(verts)):
            x, y = verts[index]
            if x <= px:
                raise NonIncreasingX(index)
            if y < py:
                raise DecreasingY(index)
            px, py = x, y

    @property
    def endpoint(self) -> LatticePoint:
        return self.vertices[-1]

    @property
    def interior(self) -> tuple[LatticePoint, ...]:
        return self.vertices[1:-1]

    def __len__(self) -> int:
        return len(self.vertices)


def parse_step_word(text: str) -> DelannoyPath:
    """Parse a step word; lowercase is accepted and canonicalized to uppercase.

    Raises ``InvalidCharacter`` (with 1-based position and the original
    character) for anything outside the alphabet.
    """
    canonical = text.upper()
    if not _WORD_RE.fullmatch(canonical):
        for position, char in enumerate(text, start=1):
            if char.upper() not in _ALPHABET:
                raise InvalidCharacter(position, char)
    return DelannoyPath(canonical)


def path_vertices(path: DelannoyPath) -> tuple[LatticePoint, ...]:
    """The vertex chain of a step word: prefix sums of displacements from (0,0)."""
    x = y = 0
    verts = [(0, 0)]
    for ch in path.word:
        dx, dy = _DISPLACEMENT[ch]
        x += dx
        y += dy
        verts.append((x, y))
    return tuple(verts)


def central_index(path: DelannoyPath) -> CentralIndex:
    """Return (n, k) for a central path; raise ``NotCentral`` otherwise."""
    e = path.e_count
    n_ = path.n_count
    if e != n_:
        raise NotCentral(e, n_)
    return CentralIndex(n=e + path.d_count, k=e)


def make_kimberling(vertices: Iterable[Iterable[int]]) -> KimberlingPath:
    """Validate and build a ``KimberlingPath`` from any iterable of point pairs.

    Accepts lists, tuples, or any 2-element integer iterables (e.g. the
    result of parsing a JSON vertex array) and normalizes them.
    """
    normalized: list[LatticePoint] = []
    for entry in vertices:
        point = tuple(entry)
        # bool is an int subclass, but JSON's true/false are not coordinates
        if len(point) != 2 or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in point
        ):
            raise LatticeError(f"vertex {entry!r} is not a pair of integers")
        normalized.append(point)  # type: ignore[arg-type]
    return KimberlingPath(tuple(normalized))


def _image_order(kpath: KimberlingPath) -> int:
    """n for a path ending at (n+1, n); ``BadEndpoint`` for any other endpoint."""
    ex, ey = kpath.endpoint
    if ex != ey + 1 or ey < 0:
        raise BadEndpoint(ex, ey)
    return ey
