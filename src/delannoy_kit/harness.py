"""Exhaustive verification sweeps over both path families.

Every check enumerates complete families up to a size bound and compares
against independent oracles (closed-form counts, the Schroder recurrence,
per-step case analysis).  A result that fails a check becomes a failure
record, and the sweep runs on to report totals, a capped list of
counterexamples, and an exact failure count; columns with an entry past
their height, which ``_preimage`` has no slot for, and columns whose
preimage is not central, which ``_image`` rejects, fail their roundtrip
with ``actual`` None.  Any other ``LatticeError`` raised by a map or a
predicate ends the sweep and reaches the caller.

Sweeps are partitioned into (n, k) units -- the paths with k East steps on
the word side, the paths with k interior vertices on the vertex side.
One ``run_checks`` call is one sweep: a single pass per unit enumerates
each family's slice once and serves every check asked for, and every
report of that call carries the sweep's wall time as ``elapsed_ms``.
Units are independent, and their partial results merge by exact addition,
so they may run across worker processes: a check with a summary sums its
unit tallies per order n, and its summary compares one order's sums at a
time.  The DELANNOY_KIT_THREADS environment variable asks for a worker
count (0 = one per CPU, unset = 1); a sweep starts at most one worker per
unit and per CPU, so a larger request is capped rather than passed to the
pool.  Reports are deterministic either way, up to the elapsed field.

A unit builds no path object.  It runs the kernels behind the public API
on word strings and on interior columns, a path's interior x's (A) and
y's (B) with its height n: ``_words_by_e`` and ``_vertex_columns`` yield
them, ``_image`` maps a word to its image's columns and ``_preimage`` maps
columns back to a word, and ``_word_below_diagonal`` and ``_below_chord``
test them.  No vertex tuple is built unless a failure record names one.

The roundtrip check's rank-indexed image test is described with ``CHECKS``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from math import comb
from typing import Any, Callable, Iterable, Sequence

from .bijection import _image, _preimage
from .counting import (
    _vertex_columns,
    _words_by_e,
    count_delannoy_by_e,
    count_kimberling_by_vertices,
    schroder,
)
from .geometry import (
    CASE_LABELS,
    _below_chord,
    _word_below_diagonal,
    classify_d_counts,
    walk_east_steps,
)
from .lattice_core import NotCentral

FAILURE_CAP = 10
DEFAULT_N_MAX = 8

ENV_THREADS = "DELANNOY_KIT_THREADS"


@dataclass
class VerificationReport:
    """Outcome of one check in one sweep.

    ``failures`` holds at most ``FAILURE_CAP`` counterexample records;
    ``failure_count`` stays exact regardless.  ``details`` carries
    check-specific payloads such as case tallies.  ``elapsed_ms`` is the
    wall time of the whole sweep, the same on every report of one
    ``run_checks`` call.
    """

    check_name: str
    n_range: tuple[int, int]
    total_cases: int
    failure_count: int
    failures: list[dict[str, Any]]
    elapsed_ms: float
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "check_name": self.check_name,
            "n_range": list(self.n_range),
            "total_cases": self.total_cases,
            "failure_count": self.failure_count,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
            "passed": self.passed,
            "details": self.details,
        }


class FailureLog:
    """An exact failure count and the first ``FAILURE_CAP`` failure records.

    Each record is its kind, then the ``stamp`` fields the log was made with
    (a sweep unit's n and k), then the fields ``add`` was given."""

    def __init__(self, **stamp: Any) -> None:
        self.count = 0
        self.records: list[dict[str, Any]] = []
        self.stamp = stamp

    def add(self, kind: str, **fields: Any) -> None:
        self.count += 1
        if len(self.records) < FAILURE_CAP:
            self.records.append({"kind": kind, **self.stamp, **fields})

    def extend(self, other: FailureLog) -> None:
        """Append a later log: counts add, records stay in order under the cap."""
        self.count += other.count
        self.records.extend(other.records[: FAILURE_CAP - len(self.records)])


# A unit returns one (cases, failures, counts) per check, counts being None
# or the unit's tallies; a summary compares one order's summed counts with its
# oracle, recording any failures, and returns its cases and details row.
UnitResult = tuple[int, FailureLog, dict[str, int] | None]
Summary = Callable[[int, dict[str, int], FailureLog], tuple[int, dict[str, Any]]]


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else DELANNOY_KIT_THREADS, else 1."""
    if workers is None:
        raw = os.environ.get(ENV_THREADS)
        if raw is None:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_THREADS} must be an integer, got {raw!r}") from None
    if workers < 0:
        raise ValueError(f"worker count must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


InteriorKey = tuple[tuple[int, ...], tuple[int, ...]]


def _vertex_list(xs: Sequence[int], ys: Sequence[int], n: int) -> list[list[int]]:
    """The vertices of the path to (n+1, n) with interior columns xs and ys."""
    return [[0, 0], *map(list, zip(xs, ys)), [n + 1, n]]


def _smallest_keys(
    keys: list[InteriorKey], xs: Sequence[int], ys: Sequence[int]
) -> list[InteriorKey]:
    """The three smallest distinct keys among ``keys`` and (xs, ys), sorted."""
    key = (tuple(xs), tuple(ys))
    return keys if key in keys else sorted([*keys, key])[:3]


class _SliceRank:
    """Lexicographic ranks in the slice of paths to (n+1, n) with k interior vertices.

    In ``enumerate_kimberling_by_vertices`` order, rank = x-set rank among the
    k-subsets of 1..n times C(n+k, k), plus the rank of y_1 <= ... <= y_k as
    the k-subset {y_t + t} of 0..n+k-1.  A k-subset c_0 < ... < c_{k-1} of
    range(m) has rank C(m, k) - 1 - sum C(m-1-c_t, k-t) (TAOCP 4A 7.2.1.3).
    The x-set and the y-multiset are ranked apart: one list per position t
    holds each column's terms by coordinate, so a part is one sum of
    lookups, and the vertex pass ranks each x-set once for its run of
    C(n+k, k) paths.

    Each part has its own monotone test, so a rank implies membership and
    names one path of the slice, which lets the vertex pass skip each
    roundtrip a word has proved (see ``CHECKS``).  Without the tests, the
    x's (1, 2) and the non-monotone y's (1, 0) would get rank 3 in the
    (3, 2) slice.
    """

    def __init__(self, n: int, k: int) -> None:
        self.n, self.k = n, k
        y_count = comb(n + k, k)
        self.size = comb(n, k) * y_count
        self._x_base = self.size - y_count
        self._y_base = y_count - 1
        self._x_tables = [[-comb(n - x, k - t) * y_count for x in range(n + 1)] for t in range(k)]
        self._y_tables = [[-comb(n + k - 1 - y - t, k - t) for y in range(n + 1)] for t in range(k)]

    def x_part(self, xs: Sequence[int], height: int) -> int | None:
        """The x-set's share of the rank of a path of this height, or None
        unless the height is n and ``xs`` rises strictly, k x's within 1..n."""
        if height != self.n or len(xs) != self.k:
            return None
        last = 0  # a plain loop: all() over map(operator.le) ranked 1.3x slower
        for x in xs:
            if x <= last:
                return None
            last = x
        if last > self.n:
            return None
        return self._x_base + sum(map(list.__getitem__, self._x_tables, xs))

    def rank(self, x_part: int | None, ys: Sequence[int]) -> int | None:
        """``x_part`` plus the y-multiset's share, or None if ``x_part`` is
        None or ``ys`` is not k y's rising weakly within 0..n.

        A member's rank lies in range(size), and no two members share one."""
        if x_part is None or len(ys) != self.k:
            return None
        last = 0
        for y in ys:
            if y < last:
                return None
            last = y
        if last > self.n:
            return None
        return x_part + self._y_base + sum(map(list.__getitem__, self._y_tables, ys))


def _unit(names: tuple[str, ...], unit: tuple[int, int]) -> list[UnitResult]:
    """One pass over the (n, k) slice of each family for every check in
    ``names``; returns one (cases, failures, counts) per name, in order.

    Each word is mapped with ``_image`` once, if roundtrip, subdiagonal or
    per-step is asked, and compared with the word before it if counts is;
    the vertex slice's columns are walked only if roundtrip, subdiagonal or
    counts is.  A vertex path that is the image of a word mapping back to
    itself is not mapped at all (see ``CHECKS``)."""
    n, k = unit
    roundtrip, counts = "roundtrip" in names, "counts" in names
    subdiagonal, per_step = "subdiagonal" in names, "per-step" in names
    logs = {name: FailureLog(n=n, k=k) for name in CHECKS}
    words = vertex_paths = subdiagonal_words = subdiagonal_vertex_paths = 0
    image_flag = False  # stays False unless subdiagonal is asked
    tally = {label: 0 for label in CASE_LABELS}
    # per-step's East steps by (d_north, d_east), classified once per pair at
    # the end; a word of the slice has n - k D steps
    pair_counts = [[0] * (n - k + 1) for _ in range(n - k + 1)]
    width = n + 1  # of the image, which ends at (n + 1, n)
    if roundtrip:
        ranks = _SliceRank(n, k)
        # 0 for an unhit rank, 1 if the last word to hit it does not map back
        # to itself, else 2 + the subdiagonal flag of its image
        hits = bytearray(ranks.size)
        missing: list[InteriorKey] = []
        unexpected: list[InteriorKey] = []
        in_order = True

    previous = disorder = None  # the last word, and the index of the first out of order
    for word in _words_by_e(n, k):
        if counts:
            if previous is not None and word <= previous and disorder is None:
                disorder = words
            previous = word
        words += 1
        if roundtrip or subdiagonal or per_step:
            xs, ys, height = _image(word)
        if subdiagonal:
            word_flag = _word_below_diagonal(word)
            image_flag = _below_chord(xs, ys, height + 1, height)
            subdiagonal_words += word_flag
            if word_flag != image_flag:
                logs["subdiagonal"].add(
                    "subdiagonal_transport",
                    input_word=word,
                    delannoy_subdiagonal=word_flag,
                    kimberling_subdiagonal=image_flag,
                )
        if roundtrip:
            try:
                back = _preimage(xs, ys, height)
            except IndexError:  # a column past the height spells no word
                back = None
            if back != word:
                logs["roundtrip"].add(
                    "inverse_roundtrip", input_word=word, expected=word, actual=back
                )
            rank = ranks.rank(ranks.x_part(xs, height), ys)
            if rank is not None:
                hits[rank] = 2 + image_flag if back == word else 1
            else:
                unexpected = _smallest_keys(unexpected, xs, ys)
        if per_step:
            ends, before_north, before_east = walk_east_steps(word)
            if len(xs) != len(ends) or len(ys) != len(ends):
                # the columns pair into as many vertices as the shorter one holds
                logs["per-step"].add(
                    "image_vertex_count",
                    input_word=word,
                    expected=len(ends),
                    actual=min(len(xs), len(ys)),
                )
            for i, (px, py), x, y, d_north, d_east in zip(
                count(1), ends, xs, ys, before_north, before_east
            ):
                if x != i + d_north or y != py:  # phi's definition, as CHECKS states it
                    logs["per-step"].add(
                        "image_vertex_mismatch",
                        input_word=word,
                        east_index=i,
                        expected=[i + d_north, py],
                        actual=[x, y],
                    )
                # the East end against y = x, the vertex against the chord: the tests
                # of diagonal_comparisons, whose call made a lone n <= 8 per-step sweep
                # take a median 2.52 s of CPU against 2.37 s (Python 3.11, 2 vCPUs)
                side = y * width - x * n
                if (py >= px) != (side > 0):
                    logs["per-step"].add(
                        "step_vertex_mismatch",
                        input_word=word,
                        east_index=i,
                        east_weakly_above=py >= px,
                        vertex_strictly_above=side > 0,
                    )
                if not side:
                    logs["per-step"].add(
                        "vertex_on_diagonal",
                        input_word=word,
                        east_index=i,
                        interior_vertex=[x, y],
                    )
                pair_counts[d_north][d_east] += 1

    for d_north, row in enumerate(pair_counts):
        for d_east, steps in enumerate(row):
            if steps:
                tally[classify_d_counts(d_north, d_east)] += steps

    if roundtrip or counts or subdiagonal:
        last_xs = None
        for xs, ys in _vertex_columns(n + 1, n, k):
            if roundtrip:
                if xs != last_xs:  # by value: each x-set is ranked once for its run
                    last_xs = xs
                    x_part = ranks.x_part(xs, n)
                rank = ranks.rank(x_part, ys)
                if rank == vertex_paths and hits[rank] > 1:
                    # a word that maps back to itself has this path as its image
                    if subdiagonal:
                        subdiagonal_vertex_paths += hits[rank] - 2
                    vertex_paths += 1
                    continue
                in_order = in_order and rank == vertex_paths
                if rank is not None and not hits[rank]:
                    missing = _smallest_keys(missing, xs, ys)
                back_xs = back_ys = back_n = None
                try:
                    back = _preimage(xs, ys, n)
                except IndexError:  # a column past the height spells no word
                    pass
                else:
                    try:
                        back_xs, back_ys, back_n = _image(back)
                    except NotCentral:  # a repeated x spells fewer N's than E's
                        pass
                if back_n != n or tuple(back_xs) != tuple(xs) or tuple(back_ys) != tuple(ys):
                    logs["roundtrip"].add(
                        "forward_roundtrip",
                        input_vertices=_vertex_list(xs, ys, n),
                        expected=_vertex_list(xs, ys, n),
                        actual=None if back_n is None else _vertex_list(back_xs, back_ys, back_n),
                    )
            if subdiagonal:
                subdiagonal_vertex_paths += _below_chord(xs, ys, width, n)
            vertex_paths += 1

    if roundtrip:
        if not in_order or vertex_paths != ranks.size:
            logs["roundtrip"].add("vertex_order", slice_size=ranks.size, enumerated=vertex_paths)
        if unexpected or words != ranks.size or 0 in hits:
            logs["roundtrip"].add(
                "image_set", missing_from_image=missing, unexpected_in_image=unexpected
            )
    if counts:
        if disorder is not None:
            logs["counts"].add("word_order", enumerated=words, index=disorder)
        formula = count_delannoy_by_e(n, k)
        vertex_formula = count_kimberling_by_vertices(n + 1, n, k)
        if not formula == vertex_formula == words == vertex_paths:
            logs["counts"].add(
                "path_count",
                expected=formula,
                kimberling_formula=vertex_formula,
                delannoy_enumerated=words,
                kimberling_enumerated=vertex_paths,
            )
    results = {
        "roundtrip": (words + vertex_paths, None),
        "counts": (1, None),
        "subdiagonal": (
            words, {"delannoy": subdiagonal_words, "kimberling": subdiagonal_vertex_paths}
        ),
        "per-step": (k * words, tally),
    }
    return [(results[name][0], logs[name], results[name][1]) for name in names]


def _schroder_totals(
    n: int, totals: dict[str, int], failures: FailureLog
) -> tuple[int, dict[str, Any]]:
    """Two cases: each family's subdiagonal total at order n against the oracle."""
    oracle = schroder(n)
    for family, actual in totals.items():
        if actual != oracle:
            failures.add("subdiagonal_count", n=n, family=family, expected=oracle, actual=actual)
    return 2, {"oracle": oracle, **totals}


def _case_coverage(
    n: int, tally: dict[str, int], failures: FailureLog
) -> tuple[int, dict[str, Any]]:
    """One case at n >= 2: every ordering of the preceding-D counts occurs."""
    missing = [label for label in CASE_LABELS if tally[label] == 0]
    if missing and n >= 2:
        failures.add("case_class_missing", n=n, missing=missing)
    return int(n >= 2), tally


# Each check's summary, in the order ``verify`` runs them: None, or the key of
# its report details and the function that compares one order's summed unit
# counts, as ``run_checks`` describes.  Cases counted:
# - roundtrip: one per word (inverse after forward) and one per vertex path
#   (forward after inverse), so twice the family size summed over n.  Each
#   image's lexicographic rank in its (n, k) slice (``_SliceRank``) is marked
#   in a bytearray; an image outside the slice has no rank.  The vertex
#   enumerator must yield ranks 0, 1, 2, ... in order, or the unit records
#   one ``vertex_order`` failure.  A unit whose images are not the slice, each
#   path once, then records one ``image_set`` failure: ``missing_from_image``
#   names the three smallest enumerated vertex paths whose rank no image hit,
#   ``unexpected_in_image`` the three smallest distinct images outside the
#   slice, both as sorted ``(xs, ys)`` interior coordinates.  Ranks only map
#   images into the slice; missing paths are named from the enumerated slice,
#   so one the enumerator skips is reported by ``vertex_order`` alone.
#   The vertex pass skips each roundtrip a word has proved.  Each word marks
#   its image's rank 2 + the image's subdiagonal flag if the image maps back
#   to the word, else 1.  Only a slice member has a rank and no two members
#   share one, so a vertex path v marked 2 or 3 is the image of a word that
#   maps back: ``phi_inverse(v)`` is that word, and ``phi`` of it is v again.
#   If v's rank is also its enumeration index, which the order test needs,
#   the pass counts v without mapping it; in a sweep that also asks for
#   subdiagonal, v's Kimberling flag is its mark minus 2.  Every other vertex
#   path takes the full roundtrip and its own subdiagonal test, and a sweep
#   without roundtrip tests every vertex path's subdiagonal flag.  A skipped
#   path would pass the full roundtrip, so skipping changes no record or count.
# - counts: one per (n, k) cell with 0 <= k <= n <= n_max; each cell compares
#   the two closed forms with both enumerated counts, four exact integers.
#   Its words must also rise strictly in the documented order, lexicographic
#   under D < E < N, which is the order of the letters' code points, so each
#   word is compared as a string with the one before it.  The first word that
#   does not rise records one ``word_order`` failure with the number of words
#   enumerated and that word's index.  With roundtrip's image test, this pins
#   each word slice to the documented set in the documented order.
# - subdiagonal: one per word (subdiagonality transports through phi), plus
#   two per n comparing each family's subdiagonal total to the Schroder
#   number from the recurrence.
# - per-step: one per East index i, where the i-th interior vertex of the
#   image must be phi's by definition, (i + the D steps before the i-th N,
#   the height of the i-th East end), the two diagonal comparisons must agree
#   and the vertex must not land on the image diagonal, plus one coverage
#   case per n >= 2 confirming that all three orderings of the preceding-D
#   counts occur.  Order 0 has neither, so n_max = 0 raises ValueError.
CHECKS: dict[str, tuple[str, Summary] | None] = {
    "roundtrip": None,
    "counts": None,
    "subdiagonal": ("schroder", _schroder_totals),
    "per-step": ("case_tallies", _case_coverage),
}


def run_checks(
    names: Iterable[str], n_max: int = DEFAULT_N_MAX, workers: int | None = None
) -> list[VerificationReport]:
    """Run the named checks in one sweep and return their reports in the
    order asked; no names, no sweep.

    ``_unit`` runs once on every (n, k) unit with 0 <= k <= n <= n_max, in
    that order.  Each report folds its check's unit failures in unit order,
    then calls its summary once per order n on that order's summed counts.
    Every report carries the whole sweep's wall time as ``elapsed_ms``.
    Raises ``ValueError`` for an unknown name, and for the first name whose
    case total is 0, such as any name with a negative ``n_max``, since that
    report would check nothing."""
    names = tuple(names)
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
    if not names:
        return []
    start = time.perf_counter()
    unit_fn = partial(_unit, names)
    units = [(n, k) for n in range(n_max + 1) for k in range(n + 1)]
    processes = min(resolve_workers(workers), len(units), os.cpu_count() or 1)
    if processes <= 1:
        results = [unit_fn(u) for u in units]
    else:
        with multiprocessing.Pool(processes=processes) as pool:
            results = pool.map(unit_fn, units, chunksize=1)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    reports = []
    for column, name in enumerate(names):
        cases = 0
        failures = FailureLog()
        sums: dict[int, dict[str, int]] = {}
        for (n, _), result in zip(units, results):
            unit_cases, unit_failures, counts = result[column]
            cases += unit_cases
            failures.extend(unit_failures)
            if counts is not None:
                row = sums.setdefault(n, dict.fromkeys(counts, 0))
                for key, value in counts.items():
                    row[key] += value
        details: dict[str, Any] = {}
        if CHECKS[name] is not None:
            key, summary = CHECKS[name]
            rows = details[key] = {}
            for n, order_sums in sums.items():
                summary_cases, rows[str(n)] = summary(n, order_sums, failures)
                cases += summary_cases
        if cases == 0:
            raise ValueError(
                f"the {name} check has no cases at n_max={n_max}; that sweep would check nothing"
            )
        reports.append(
            VerificationReport(
                check_name=name,
                n_range=(0, n_max),
                total_cases=cases,
                failure_count=failures.count,
                failures=failures.records,
                elapsed_ms=elapsed_ms,
                details=details,
            )
        )
    return reports
