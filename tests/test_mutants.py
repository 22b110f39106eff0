"""The wrong kernels ``verify`` must catch: one table of mutants, one test.

Each entry replaces ``harness`` globals, the plain-data kernels a sweep
calls, and names the check that must fail at its ``n_max``.  An entry with
a ``report`` pins that check's whole report, minus ``elapsed_ms``, byte for
byte; any other asserts only that the check fails, for ``run_checks`` must
record a failure, never raise.  Each entry runs with its check alone and
fused with every check, on 1 worker and, where ``workers`` lists 2, on a
pool of 2.  A mutant no check catches yet is a strict xfail whose reason
names the ROADMAP item that closes it.  A new mutant is one more entry;
mutants inside ``_unit``, ``_SliceRank`` or ``FailureLog`` are pinned by
the unit-level tests in ``test_harness.py``.
"""

import ast
import json
import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

from delannoy_kit import cli, harness
from delannoy_kit.bijection import _image, _preimage
from delannoy_kit.counting import (
    _vertex_columns,
    _words_by_e,
    count_delannoy_by_e,
    count_kimberling_by_vertices,
    schroder,
)
from delannoy_kit.geometry import _below_chord, _word_below_diagonal, walk_east_steps
from delannoy_kit.harness import run_checks

# a pool worker sees a monkeypatched harness global only if it was forked
NEEDS_FORK = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="workers started without fork miss the patched kernels")


@dataclass(frozen=True)
class Mutant:
    id: str
    patches: dict[str, Callable]  # harness global -> its replacement
    check: str  # the check that must fail
    n_max: int
    report: dict[str, Any] | None = None  # that check's whole report, minus elapsed_ms
    workers: tuple[int, ...] = (1,)
    passes: tuple[str, ...] = ()  # checks the fused sweep must still pass
    survives: str | None = None  # why no check catches it yet: a strict xfail


def _without_elapsed(report):
    payload = report.to_json_dict()
    del payload["elapsed_ms"]
    return json.dumps(payload)


def _expected(check, n_max, total_cases, failure_count, failures, details=None):
    """A failing report of ``check``, minus ``elapsed_ms``."""
    return {"check_name": check, "n_range": [0, n_max], "total_cases": total_cases,
            "failure_count": failure_count, "failures": failures, "passed": False,
            "details": details or {}}


def _record(kind, word, **fields):
    """A failure record about ``word``, stamped with the unit that holds it."""
    k = word.count("E")
    return {"kind": kind, "n": len(word) - k, "k": k, "input_word": word, **fields}


def _inverse(word, actual):
    return _record("inverse_roundtrip", word, expected=word, actual=actual)


def _forward(n, k, vertices, actual):
    return {"kind": "forward_roundtrip", "n": n, "k": k,
            "input_vertices": vertices, "expected": vertices, "actual": actual}


def _image_set(n, k, missing, unexpected):
    return {"kind": "image_set", "n": n, "k": k,
            "missing_from_image": missing, "unexpected_in_image": unexpected}


def _transports(words):
    return [_record("subdiagonal_transport", word, delannoy_subdiagonal=True,
                    kimberling_subdiagonal=False) for word in words.split()]


def _subdiagonal_count(n, family, expected, actual):
    return {"kind": "subdiagonal_count", "n": n, "family": family,
            "expected": expected, "actual": actual}


def _image_mismatch(word, east_index, expected, actual):
    return _record("image_vertex_mismatch", word,
                   east_index=east_index, expected=expected, actual=actual)


_FIELDS = {"case_tallies": ("equal", "more_before_east", "more_before_north"),
           "schroder": ("oracle", "delannoy", "kimberling")}


def _details(key, *rows):
    """A report's ``details``: ``key`` maps each order n to the n-th row's fields."""
    return {key: {str(n): dict(zip(_FIELDS[key], row)) for n, row in enumerate(rows)}}


# the case tallies of the uncorrupted per-step report at n_max = 3
PER_STEP_ROWS = ((0, 0, 0), (2, 0, 0), (16, 1, 1), (110, 11, 11))


def _last_in_slice(word):
    """Whether the word is N^k E^k D^(n-k) with k >= 1, the last of its slice."""
    k = word.count("E")
    return k >= 1 and word == "N" * k + "E" * k + "D" * (len(word) - 2 * k)


def _edited_image(edit, picks=lambda word: True):
    """``_image``, with ``edit`` applied to the columns of each word ``picks``."""
    def edited(word):
        image = _image(word)
        return edit(*image) if picks(word) else image

    return edited


def _image_of(rewrite):
    """``_image`` of each word as ``rewrite`` changes it."""
    return lambda word: _image(rewrite(word))


def _drop_last(xs, ys, n):
    return xs[:-1], ys[:-1], n


def _plus_one(column):
    return [value + 1 for value in column]


def _vertex_columns_via(edit):
    """``_vertex_columns``, with ``edit`` applied to the list of each slice's columns."""
    return lambda i, j, k: edit(list(_vertex_columns(i, j, k)))


def _bump_at(kernel, *cell):
    """``kernel`` plus one at the arguments ``cell``."""
    return lambda *args: kernel(*args) + (args == cell)


def _mirrored_walk(word):  # words ending in N see each East end as (y, x)
    ends, before_north, before_east = walk_east_steps(word)
    if word.endswith("N"):
        ends = [(y, x) for x, y in ends]
    return ends, before_north, before_east


def _zeroed_d_counts(word):  # no East index sees a D before its N or its E
    ends, _, _ = walk_east_steps(word)
    return ends, [0] * len(ends), [0] * len(ends)


def _swapping(a, b):
    """The word rewrite that swaps ``a`` and ``b``."""
    return lambda word: {a: b, b: a}.get(word, word)


_traded_image = _swapping("DDEN", "DEDN")
_traded_flag = _swapping("DDEN", "DENNE")  # k = 1 and k = 2, so each order's totals hold


def _traded_chord(xs, ys, i, j):  # the chord flag of the image of the traded preimage
    return _below_chord(*_image(_traded_flag(_preimage(xs, ys, j)))[:2], i, j)


# Each slice's last word, N^k E^k D^(n-k), loses the last entry of both columns
# or of one: the same six image_vertex_count records, one per slice with k >= 1.
SHORT_IMAGE_REPORT = _expected(
    "per-step", 3, 154, 6,
    [
        _record("image_vertex_count", "N" * k + "E" * k + "D" * (n - k), expected=k, actual=k - 1)
        for n in range(1, 4) for k in range(1, n + 1)
    ],
    _details("case_tallies", (0, 0, 0), (1, 0, 0), (14, 1, 1), (107, 11, 11)),
)

MUTANTS = [
    # Whole reports recorded before the four checks shared one driver: they
    # pin key order, record order across units and summaries, the cap and
    # the exact count.
    Mutant(
        "bumped-phi",  # the first interior y drops by one, if it can
        {"_image": _edited_image(lambda xs, ys, n: (xs, [max(0, ys[0] - 1), *ys[1:]], n),
                                 lambda word: "E" in word)},
        "roundtrip", 3,
        _expected("roundtrip", 3, 160, 96, [
            _inverse("NE", "EN"),
            _forward(1, 1, [[0, 0], [1, 1], [2, 1]], [[0, 0], [1, 0], [2, 1]]),
            _image_set(1, 1, [[[1], [1]]], []),
            _inverse("DEN", "EDN"), _inverse("DNE", "DEN"),
            _inverse("NDE", "NED"), _inverse("NED", "END"),
            _forward(2, 1, [[0, 0], [1, 1], [3, 2]], [[0, 0], [1, 0], [3, 2]]),
            _forward(2, 1, [[0, 0], [1, 2], [3, 2]], [[0, 0], [1, 1], [3, 2]]),
            _forward(2, 1, [[0, 0], [2, 1], [3, 2]], [[0, 0], [2, 0], [3, 2]]),
        ]),
        workers=(1, 2),
    ),
    Mutant(
        "forced-word-predicate", {"_word_below_diagonal": lambda word: True}, "subdiagonal", 2,
        _expected("subdiagonal", 2, 23, 10, [
            *_transports("NE DNE NDE NED ENNE NEEN NENE NNEE"),
            _subdiagonal_count(1, "delannoy", 2, 3), _subdiagonal_count(2, "delannoy", 6, 13),
        ], _details("schroder", (1, 1, 1), (2, 3, 2), (6, 13, 6))),
        workers=(1, 2),
    ),
    Mutant(
        # the units of n <= 3 fill the cap with 49 transport failures, then the
        # summaries of n = 1, 2 and 3 add 3 more to the folded log
        "forced-word-predicate-fills-the-cap",
        {"_word_below_diagonal": lambda word: True}, "subdiagonal", 3,
        _expected(
            "subdiagonal", 3, 88, 52, _transports("NE DNE NDE NED ENNE NEEN NENE NNEE DDNE DNDE"),
            _details("schroder", (1, 1, 1), (2, 3, 2), (6, 13, 6), (22, 63, 22)),
        ),
    ),
    Mutant(
        # no word disagrees with its image, so only the summary records fail
        "both-predicates-forced",
        {"_word_below_diagonal": lambda word: True, "_below_chord": lambda xs, ys, i, j: True},
        "subdiagonal", 3,
        _expected(
            "subdiagonal", 3, 88, 6,
            [
                _subdiagonal_count(n, family, oracle, actual)
                for n, oracle, actual in ((1, 2, 3), (2, 6, 13), (3, 22, 63))
                for family in ("delannoy", "kimberling")
            ],
            _details("schroder", (1, 1, 1), (2, 3, 3), (6, 13, 13), (22, 63, 63)),
        ),
        workers=(1, 2),
    ),
    # The next two were recorded before the image check ranked the images:
    # whole roundtrip reports at n_max = 5.  Each corrupts the last word of
    # each (n, k) slice with k >= 1, so every slice's image_set record
    # follows its two roundtrip records.
    Mutant(
        # the last word of each slice, N^k E^k D^(n-k), gets the first one's image
        "colliding-phi",
        {"_image": _image_of(lambda word: "".join(sorted(word)) if _last_in_slice(word) else word)},
        "roundtrip", 5,
        _expected("roundtrip", 5, 4168, 45, [
            _inverse("NE", "EN"),
            _forward(1, 1, [[0, 0], [1, 1], [2, 1]], [[0, 0], [1, 0], [2, 1]]),
            _image_set(1, 1, [[[1], [1]]], []),
            _inverse("NED", "DEN"),
            _forward(2, 1, [[0, 0], [1, 1], [3, 2]], [[0, 0], [2, 1], [3, 2]]),
            _image_set(2, 1, [[[1], [1]]], []),
            _inverse("NNEE", "EENN"),
            _forward(2, 2, [[0, 0], [1, 2], [2, 2], [3, 2]], [[0, 0], [1, 0], [2, 0], [3, 2]]),
            _image_set(2, 2, [[[1, 2], [2, 2]]], []),
            _inverse("NEDD", "DDEN"),
        ]),
        workers=(1, 2),
    ),
    Mutant(
        "out-of-slice-phi", {"_image": _edited_image(_drop_last, _last_in_slice)}, "roundtrip", 5,
        _expected("roundtrip", 5, 4168, 45, [
            _inverse("NE", "D"),
            _forward(1, 1, [[0, 0], [1, 1], [2, 1]], [[0, 0], [2, 1]]),
            _image_set(1, 1, [[[1], [1]]], [[[], []]]),
            _inverse("NED", "DD"),
            _forward(2, 1, [[0, 0], [1, 1], [3, 2]], [[0, 0], [3, 2]]),
            _image_set(2, 1, [[[1], [1]]], [[[], []]]),
            _inverse("NNEE", "NDE"),
            _forward(2, 2, [[0, 0], [1, 2], [2, 2], [3, 2]], [[0, 0], [1, 2], [3, 2]]),
            _image_set(2, 2, [[[1, 2], [2, 2]]], [[[1], [2]]]),
            _inverse("NEDD", "DDD"),
        ]),
        workers=(1, 2),
    ),
    # Per-step reads each East end's height from the walk and each interior
    # vertex from the image, so corrupting either breaks the definition too.
    Mutant(
        "mirrored-east-ends", {"walk_east_steps": _mirrored_walk}, "per-step", 3,
        _expected(
            "per-step", 3, 154, 110,
            [
                record
                for word, i, expected, actual in (
                    ("EN", 1, [1, 1], [1, 0]), ("DEN", 1, [2, 2], [2, 1]),
                    ("EDN", 1, [2, 1], [2, 0]), ("EENN", 1, [1, 1], [1, 0]),
                    ("EENN", 2, [2, 2], [2, 0]),
                )
                for record in (
                    _image_mismatch(word, i, expected, actual),
                    _record("step_vertex_mismatch", word, east_index=i,
                            east_weakly_above=True, vertex_strictly_above=False),
                )
            ],
            _details("case_tallies", *PER_STEP_ROWS),
        ),
        workers=(1, 2),
    ),
    Mutant(
        # words starting with E get the first interior vertex (0, 0): not their
        # definition's (1 + D's before the first N, 0), and on the chord
        "first-vertex-on-chord",
        {"_image": _edited_image(lambda xs, ys, n: ([0, *xs[1:]], [0, *ys[1:]], n),
                                 lambda word: word.startswith("E"))},
        "per-step", 3,
        _expected(
            "per-step", 3, 154, 62,
            [
                record
                for word, x in (("EN", 1), ("EDN", 2), ("END", 1), ("EENN", 1), ("ENEN", 1))
                for record in (
                    _image_mismatch(word, 1, [x, 0], [0, 0]),
                    _record("vertex_on_diagonal", word, east_index=1, interior_vertex=[0, 0]),
                )
            ],
            _details("case_tallies", *PER_STEP_ROWS),
        ),
        workers=(1, 2),
    ),
    Mutant(
        "every-case-equal",
        {"classify_d_counts": lambda before_north, before_east: "equal"}, "per-step", 3,
        _expected(
            "per-step", 3, 154, 2,
            [
                {"kind": "case_class_missing", "n": n,
                 "missing": ["more_before_east", "more_before_north"]}
                for n in (2, 3)
            ],
            _details("case_tallies", (0, 0, 0), (2, 0, 0), (18, 0, 0), (132, 0, 0)),
        ),
        workers=(1, 2),
    ),
    Mutant(
        # phi and phi_inverse trade the images of DDEN and DEDN: still a
        # bijection that roundtrip passes, but not the paper's map
        "traded-images",
        {"_image": _image_of(_traded_image),
         "_preimage": lambda *columns: _traded_image(_preimage(*columns))},
        "per-step", 4,
        _expected("per-step", 4, 1055, 2, [
            _image_mismatch("DDEN", 1, [3, 2], [3, 1]), _image_mismatch("DEDN", 1, [3, 1], [3, 2]),
        ], _details("case_tallies", *PER_STEP_ROWS, (716, 92, 92))),
        passes=("roundtrip",),
    ),
    Mutant("short-image", {"_image": _edited_image(_drop_last, _last_in_slice)},
           "per-step", 3, SHORT_IMAGE_REPORT),
    Mutant("short-xs",
           {"_image": _edited_image(lambda xs, ys, n: (xs[:-1], ys, n), _last_in_slice)},
           "per-step", 3, SHORT_IMAGE_REPORT),
    Mutant("short-ys",
           {"_image": _edited_image(lambda xs, ys, n: (xs, ys[:-1], n), _last_in_slice)},
           "per-step", 3, SHORT_IMAGE_REPORT),
    Mutant(
        "bumped-delannoy-formula",
        {"count_delannoy_by_e": _bump_at(count_delannoy_by_e, 1, 1)}, "counts", 2,
        _expected("counts", 2, 6, 1, [{
            "kind": "path_count", "n": 1, "k": 1, "expected": 3, "kimberling_formula": 2,
            "delannoy_enumerated": 2, "kimberling_enumerated": 2,
        }]),
    ),
    # Must fail, with no pinned report.
    Mutant("bumped-kimberling-formula",
           {"count_kimberling_by_vertices": _bump_at(count_kimberling_by_vertices, 4, 3, 2)},
           "counts", 5),
    Mutant("off-by-one-schroder", {"schroder": lambda n: schroder(n) + 1}, "subdiagonal", 5),
    Mutant("zeroed-preceding-d-counts", {"walk_east_steps": _zeroed_d_counts}, "per-step", 5),
    Mutant("reversed-vertex-columns", {"_vertex_columns": _vertex_columns_via(reversed)},
           "roundtrip", 5),
    Mutant("short-vertex-columns", {"_vertex_columns": _vertex_columns_via(lambda c: c[:-1])},
           "roundtrip", 5),
    Mutant("doubled-vertex-columns", {"_vertex_columns": _vertex_columns_via(lambda c: c * 2)},
           "roundtrip", 5),
    Mutant("chord-forced-false", {"_below_chord": lambda xs, ys, i, j: False}, "subdiagonal", 5),
    # A column past the height has no slot among _preimage's n + 1.
    Mutant("image-x-past-height",
           {"_image": _edited_image(lambda xs, ys, n: (_plus_one(xs), ys, n))}, "roundtrip", 5),
    Mutant("image-y-past-height",
           {"_image": _edited_image(lambda xs, ys, n: (xs, _plus_one(ys), n))}, "roundtrip", 5),
    Mutant(
        "vertex-y-past-height",
        {"_vertex_columns": _vertex_columns_via(lambda c: [(xs, _plus_one(ys)) for xs, ys in c])},
        "roundtrip", 5,
    ),
    # Known survivors.
    Mutant(
        "reversed-word-slice",  # the words of slice (4, 2) in reverse order
        {"_words_by_e": lambda n, k: (reversed(list(_words_by_e(n, k))) if (n, k) == (4, 2)
                                      else _words_by_e(n, k))},
        "counts", 5,
        survives="the word pass checks which words come, not their order: ROADMAP item 4",
    ),
    Mutant(
        # both subdiagonal kernels trade the flags of DDEN and DENNE, and of their images
        "traded-subdiagonal-flags",
        {"_word_below_diagonal": lambda word: _word_below_diagonal(_traded_flag(word)),
         "_below_chord": _traded_chord},
        "subdiagonal", 5,
        survives="subdiagonal compares per-n totals, not per-(n, k) ones: ROADMAP item 5",
    ),
]

# the mutants that made the sweep raise IndexError from _preimage
PAST_HEIGHT = ["image-x-past-height", "image-y-past-height", "vertex-y-past-height"]


def _runs(mutant):
    marks = []
    if mutant.survives:
        marks.append(pytest.mark.xfail(reason=mutant.survives, raises=AssertionError, strict=True))
    for mode in ("alone", "fused"):
        for workers in mutant.workers:
            fork = [NEEDS_FORK] if workers > 1 else []
            yield pytest.param(mutant, mode == "fused", workers, marks=marks + fork,
                               id=f"{mutant.id}-{mode}-{workers}")


def _patch(monkeypatch, mutant):
    for name, replacement in mutant.patches.items():
        monkeypatch.setattr(harness, name, replacement)


@pytest.mark.parametrize("mutant, fused, workers", [run for m in MUTANTS for run in _runs(m)])
def test_verify_catches(monkeypatch, mutant, fused, workers):
    _patch(monkeypatch, mutant)
    names = list(harness.CHECKS) if fused else [mutant.check]
    reports = {r.check_name: r for r in run_checks(names, mutant.n_max, workers)}
    report = reports[mutant.check]
    if mutant.report is None:
        assert not report.passed
    else:
        assert _without_elapsed(report) == json.dumps(mutant.report)
    for name in mutant.passes if fused else ():
        assert reports[name].passed


@pytest.mark.parametrize("mutant", [m for m in MUTANTS if m.id in PAST_HEIGHT], ids=PAST_HEIGHT)
def test_a_column_past_the_height_is_a_failed_roundtrip(capsys, monkeypatch, mutant):
    # _preimage has no slot for it, so the roundtrip record's actual is null
    _patch(monkeypatch, mutant)
    monkeypatch.delenv(harness.ENV_THREADS, raising=False)
    assert cli.run(["verify", "--n-max", "3", "--json"]) == 1
    roundtrip = json.loads(capsys.readouterr().out)["reports"][0]
    assert roundtrip["check_name"] == "roundtrip"
    assert None in [record.get("actual", 0) for record in roundtrip["failures"]]


GEOMETRY_CALLS_PHI = pytest.mark.xfail(
    reason="geometry.diagonal_flags calls phi until ROADMAP item 1 moves it and "
    "preceding_d_counts to tests/reference.py, which waits on perfbench's traced pass, "
    "the last caller of both",
    raises=AssertionError,
    strict=True,
)


@pytest.mark.parametrize("module", ["counting", pytest.param("geometry", marks=GEOMETRY_CALLS_PHI)])
def test_oracle_imports_nothing_from_bijection(module):
    # the oracles and predicates share no code with the map they check
    source = Path(harness.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert "bijection" not in imported
