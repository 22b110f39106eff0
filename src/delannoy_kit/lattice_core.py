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

Each type's constructor owns every rule of its family and validates
everything it is given, so every value built from outside the package is
checked.  ``KimberlingPath`` accepts any iterable of integer pairs (lists
and iterators included) and stores a tuple of tuples; ``parse_step_word``
only upper-cases its text before ``DelannoyPath`` checks it.  The
enumerators, ``phi`` and ``phi_inverse`` build values that are valid by
construction through ``_unchecked_word`` and ``_unchecked_vertices``,
without re-running that check; each call site states the invariant it
relies on.  Checked and unchecked values compare, hash and pickle alike.
"""

from __future__ import annotations

import copyreg
import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class DelannoyPath:
    """A (possibly empty) word over E/N/D, stored in canonical uppercase."""

    word: str

    def __post_init__(self) -> None:
        if not _WORD_RE.fullmatch(self.word):
            for position, char in enumerate(self.word, start=1):
                if char not in _ALPHABET:
                    raise InvalidCharacter(position, char)

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return self.word


@dataclass(frozen=True)
class KimberlingPath:
    """A finite-nonnegative-slope path, stored as its full vertex sequence.

    ``vertices`` may be any iterable of 2-element integer iterables, such
    as a parsed JSON vertex array; it is stored as a tuple of pairs.  Every
    entry's shape and type is checked before the origin and the steps.
    The degenerate single-vertex sequence ((0, 0),) is the unique path
    ending at the origin itself.
    """

    vertices: tuple[LatticePoint, ...]

    def __post_init__(self) -> None:
        verts: list[LatticePoint] = []
        for entry in self.vertices:
            try:
                x, y = entry
            except (TypeError, ValueError):
                raise LatticeError(f"vertex {entry!r} is not a pair of integers") from None
            # bool is an int subclass, but JSON's true/false are not coordinates
            if (type(x) is not int or type(y) is not int) and not (
                isinstance(x, int) and isinstance(y, int) and bool not in (type(x), type(y))
            ):
                raise LatticeError(f"vertex {entry!r} is not a pair of integers")
            verts.append((x, y))
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
        object.__setattr__(self, "vertices", tuple(verts))

    @property
    def endpoint(self) -> LatticePoint:
        return self.vertices[-1]

    @property
    def interior(self) -> tuple[LatticePoint, ...]:
        return self.vertices[1:-1]

    def __len__(self) -> int:
        return len(self.vertices)


def _unchecked_word(word: str) -> DelannoyPath:
    """A ``DelannoyPath`` of ``word``, which the caller guarantees is over E/N/D."""
    path = object.__new__(DelannoyPath)
    path.__dict__["word"] = word  # the entry object.__setattr__ would write, without the call
    return path


def _unchecked_vertices(vertices: tuple[LatticePoint, ...]) -> KimberlingPath:
    """A ``KimberlingPath`` of ``vertices``, which the caller guarantees is valid."""
    path = object.__new__(KimberlingPath)
    path.__dict__["vertices"] = vertices
    return path


def parse_step_word(text: str) -> DelannoyPath:
    """Parse a step word; lowercase is accepted and canonicalized to uppercase.

    Raises ``InvalidCharacter`` (with 1-based position and the original
    character) for anything outside the alphabet.  Only ``e n d E N D``
    upper-case to a string that starts with E, N or D, so the first bad
    character of ``text.upper()`` sits where the first bad one of ``text`` does.
    """
    try:
        return DelannoyPath(text.upper())
    except InvalidCharacter as exc:
        raise InvalidCharacter(exc.position, text[exc.position - 1]) from None


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


def central_index(path: DelannoyPath) -> tuple[int, int]:
    """Return (n, k) for a central path; raise ``NotCentral`` otherwise."""
    word = path.word
    e = word.count("E")
    north = word.count("N")
    if e != north:
        raise NotCentral(e, north)
    # n = #E + #D, every letter that is not N
    return len(word) - north, e


def _image_order(kpath: KimberlingPath) -> int:
    """n for a path ending at (n+1, n); ``BadEndpoint`` for any other endpoint."""
    ex, ey = kpath.endpoint
    if ex != ey + 1 or ey < 0:
        raise BadEndpoint(ex, ey)
    return ey
