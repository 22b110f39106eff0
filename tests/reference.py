"""Test-only references.

Earlier implementations: the package's k-slice enumerator (Algorithm L),
its inverse (a height scan), its ratio-updated sampler, the templated
``classify``, ``map --debug`` and ``unmap --debug`` outputs and the ``%``
list writers of ``map``, ``unmap`` and ``enumerate`` replaced these; tests
compare the two outputs exactly.
The kernels they in turn replaced, as they were before the sweep's
per-path rewrite: Algorithm L over every letter of the word
(``algorithm_l_words``), the chord test as one ``all()``
(``all_below_endpoint_chord``), and the inverse that scanned heights from
the interior's x and y maps (``scan_phi_inverse``).
The segment-sampling subdiagonal checks, which corroborate that testing
vertices alone loses nothing between them.  And the inverse as the paper
states it, which the package no longer runs: ``bisect_merge_tagged``
interleaves A and B, then inserts each C value, after checking the three
inputs (``OverlappingAC`` when A and C share a value), and
``inverse_parts`` and ``phi_inverse`` read a path through that merge;
``unmap_debug_json`` formats that merge as ``unmap --debug`` did when it
encoded a payload dict with ``json.dumps``.
And the parsers that checked outside input beside the path constructors:
``make_kimberling`` held the vertex pair rule, and ``parse_step_word``
scanned the alphabet itself.  And ``parse_vertex_text`` as it was before
compact input took a JSON fast path: one regex match and two ``int``
calls per ``(x,y)`` chunk.
"""

import json
import math
import random
import re
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter

from delannoy_kit import (
    BadEndpoint,
    DelannoyPath,
    InvalidCharacter,
    KimberlingPath,
    LatticeError,
    central_index,
    classify_d_counts,
    count_delannoy_by_e,
    is_subdiagonal_delannoy,
    is_subdiagonal_kimberling,
    path_vertices,
    phi,
    walk_east_steps,
)
from delannoy_kit.geometry import diagonal_flags
from delannoy_kit.lattice_core import _image_order

TAG_TO_LETTER = {"A": "N", "B": "E", "C": "D"}
# a merge entry's tag for each letter of the word
LETTERS_TO_TAGS = str.maketrans("NED", "ABC")


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


def algorithm_l_words(n, k):
    """The k-slice's words by Algorithm L over the whole word, one step per word."""
    if not 0 <= k <= n:
        return
    word = ["D"] * (n - k) + ["E"] * k + ["N"] * k
    last = len(word) - 1
    while True:
        yield "".join(word)
        j = last - 1
        while j >= 0 and word[j] >= word[j + 1]:
            j -= 1
        if j < 0:
            return
        i = last
        while word[j] >= word[i]:
            i -= 1
        word[j], word[i] = word[i], word[j]
        word[j + 1 :] = word[:j:-1]


def all_below_endpoint_chord(kpath):
    """y * i <= x * j at every vertex, for the path's own endpoint (i, j)."""
    i_end, j_end = kpath.endpoint
    return all(y * i_end <= x * j_end for x, y in kpath.vertices)


def height_slots(n, a, b):
    """The height scan: slot h spells the steps that end at height h.

    Slot 0 is one E per zero in ``b``; slot h (1..n) is N when h is in ``a``,
    else D, followed by one E per h in ``b``.
    """
    slots = ["D"] * (n + 1)
    slots[0] = ""
    for x in a:
        slots[x] = "N"
    for y in b:
        slots[y] += "E"
    return slots


def scan_phi_inverse(kpath):
    """The word of the height scan over the interior's x and y maps."""
    interior = kpath.interior
    xs, ys = map(itemgetter(0), interior), map(itemgetter(1), interior)
    return DelannoyPath("".join(height_slots(_image_order(kpath.vertices), xs, ys)))


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


def tagged_to_word(tagged):
    """Spell a tagged sequence as a step word via A -> N, B -> E, C -> D."""
    return "".join(TAG_TO_LETTER[tag] for _, tag in tagged)


def bisect_merge_tagged(a_set, b_multiset, c_set):
    """Interleave A and B (A first on ties), then insert each C leftmost."""
    values, tags = _merge_core(*_validated_parts(a_set, b_multiset, c_set))
    return list(zip(values, tags))


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


def classify_json(text):
    """``classify``'s stdout, less the newline, built as a payload and encoded
    by ``json.dumps(payload, indent=2)``."""
    path = parse_step_word(text)
    n, k = central_index(path)
    image = phi(path)
    east_weakly_above, vertex_strictly_above = diagonal_flags(path)
    ends, before_norths, before_easts = walk_east_steps(path.word)
    interior = image.interior
    steps = []
    for i in range(k):
        before_north, before_east = before_norths[i], before_easts[i]
        steps.append(
            {
                "index": i + 1,
                "east_end": list(ends[i]),
                "east_weakly_above": east_weakly_above[i],
                "interior_vertex": list(interior[i]),
                "vertex_strictly_above": vertex_strictly_above[i],
                "d_before_north": before_north,
                "d_before_east": before_east,
                "case": classify_d_counts(before_north, before_east),
            }
        )
    payload = {
        "word": path.word,
        "n": n,
        "k": k,
        "subdiagonal_delannoy": is_subdiagonal_delannoy(path),
        "subdiagonal_kimberling": is_subdiagonal_kimberling(image),
        "image_vertices": [list(v) for v in image.vertices],
        "east_steps": steps,
    }
    return json.dumps(payload, indent=2)


def unmap_debug_json(kpath):
    """``unmap --debug``'s stdout, less the newline, as the CLI built it
    before its template: a payload of this module's inverse, with each merge
    entry as one string, encoded by ``json.dumps`` with compact separators."""
    word = phi_inverse(kpath)
    n, k = central_index(word)
    a, b, c, merged = inverse_parts(kpath)
    payload = {
        "word": word.word,
        "n": n,
        "k": k,
        "A": a,
        "B": b,
        "C": c,
        "merged": [f"{v}{t}" for v, t in merged],
    }
    return json.dumps(payload, separators=(",", ":"))


def vertex_text(vertices, compact):
    """A vertex list as ``map`` and ``enumerate kimberling`` printed it before
    their ``%`` writer: through the JSON encoder, or ``compact``, one f-string
    per vertex."""
    if compact:
        return ";".join(f"({x},{y})" for x, y in vertices)
    return json.dumps(vertices, separators=(",", ":"))


def integers_text(values):
    """A list of integers as ``map --debug`` and ``unmap --debug`` joined it
    before their ``%`` writer: one ``str`` per value."""
    return ",".join(map(str, values))


def merged_text(word, a, b, c):
    """``unmap --debug``'s merge entries as they were joined before the ``%``
    writer: one f-string per value and the tag of the word's letter there."""
    tags = word.translate(LETTERS_TO_TAGS)
    return ",".join([f'"{value}{tag}"' for value, tag in zip(sorted(a + b + c), tags)])


def map_debug_json(text):
    """``map --debug``'s stdout, less the newline, as a payload of this
    module's inverse parts encoded by ``json.dumps`` with compact separators."""
    path = parse_step_word(text)
    n, k = central_index(path)
    image = phi(path)
    a, b, c, _ = inverse_parts(image)
    payload = {
        "vertices": image.vertices,
        "n": n,
        "k": k,
        "labels": {"north": a, "east": b, "diagonal": c},
    }
    return json.dumps(payload, separators=(",", ":"))


_WORD_RE = re.compile(r"[END]*\Z")
_ALPHABET = frozenset("END")


def parse_step_word(text):
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


def make_kimberling(vertices):
    """Validate and build a ``KimberlingPath`` from any iterable of point pairs.

    Accepts lists, tuples, or any 2-element integer iterables (e.g. the
    result of parsing a JSON vertex array) and normalizes them.  Any other
    entry, a scalar included, raises ``LatticeError``.
    """
    normalized = []
    for entry in vertices:
        try:
            x, y = entry
        except (TypeError, ValueError):
            raise LatticeError(f"vertex {entry!r} is not a pair of integers") from None
        # bool is an int subclass, but JSON's true/false are not coordinates
        if not ((type(x) is int and type(y) is int) or (_is_coordinate(x) and _is_coordinate(y))):
            raise LatticeError(f"vertex {entry!r} is not a pair of integers")
        normalized.append((x, y))
    return KimberlingPath(tuple(normalized))


def _is_coordinate(c):
    return isinstance(c, int) and not isinstance(c, bool)


_COMPACT_PAIR_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def parse_vertex_text(text):
    """Parse either a JSON vertex array or the compact "(x,y);(x,y);..." form."""
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise LatticeError(f"bad vertex JSON: {exc}") from None
        except RecursionError:
            raise LatticeError("bad vertex JSON: nested too deeply") from None
        return KimberlingPath(data)
    pairs = []
    for chunk in stripped.split(";"):
        match = _COMPACT_PAIR_RE.fullmatch(chunk.strip())
        if not match:
            raise LatticeError(f"bad vertex {chunk.strip()!r}; expected (x,y)")
        pairs.append((int(match.group(1)), int(match.group(2))))
    return KimberlingPath(pairs)
