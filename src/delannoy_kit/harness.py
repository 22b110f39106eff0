"""Exhaustive verification sweeps over both path families.

Every check enumerates complete families up to a size bound and compares
against independent oracles (closed-form counts, the Schroder recurrence,
per-step case analysis).  Failures are data, never exceptions: a sweep
always runs to completion and reports totals, a capped list of
counterexamples, and an exact failure count.

Sweeps are partitioned into (n, k) units -- the paths with k East steps on
the word side, the paths with k interior vertices on the vertex side.
Units are independent, and their partial results merge by exact addition,
so they may run across worker processes.  The DELANNOY_KIT_THREADS
environment variable asks for a worker count (0 = one per CPU, unset = 1);
a sweep starts at most one worker per unit and per CPU, so a larger
request is capped rather than passed to the pool.  Reports are
deterministic either way, up to the elapsed field.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .bijection import phi, phi_inverse, step_labels
from .counting import (
    count_delannoy_by_e,
    count_kimberling_by_vertices,
    enumerate_delannoy_by_e,
    enumerate_kimberling_by_vertices,
    schroder,
)
from .geometry import (
    CASE_LABELS,
    classify_d_counts,
    is_subdiagonal_delannoy,
    is_subdiagonal_kimberling,
    walk_east_steps,
)

FAILURE_CAP = 10
DEFAULT_N_MAX = 8

ENV_THREADS = "DELANNOY_KIT_THREADS"


@dataclass
class VerificationReport:
    """Outcome of one sweep.

    ``failures`` holds at most ``FAILURE_CAP`` counterexample records;
    ``failure_count`` stays exact regardless.  ``details`` carries
    check-specific payloads such as case tallies.
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
    """An exact failure count and the first ``FAILURE_CAP`` failure records."""

    def __init__(self) -> None:
        self.count = 0
        self.records: list[dict[str, Any]] = []

    def add(self, kind: str, **fields: Any) -> None:
        self.count += 1
        if len(self.records) < FAILURE_CAP:
            self.records.append({"kind": kind, **fields})

    def extend(self, other: FailureLog) -> None:
        """Append a later log: counts add, records stay in order under the cap."""
        self.count += other.count
        self.records.extend(other.records[: FAILURE_CAP - len(self.records)])


# A unit returns (cases, failures, extra); a summary folds the units' extras
# into its own cases and report details, recording any failures it finds.
UnitResult = tuple[int, FailureLog, Any]
Summary = Callable[[int, list[Any], FailureLog], tuple[int, dict[str, Any]]]


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


def _sweep(
    check_name: str,
    unit_fn: Callable[[tuple[int, int]], UnitResult],
    n_max: int,
    workers: int | None,
    summarize: Summary | None = None,
) -> VerificationReport:
    """Run ``unit_fn`` on every (n, k) unit with 0 <= k <= n <= n_max, in
    that order, and merge the results into one report."""
    start = time.perf_counter()
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}; that sweep would check nothing")
    units = [(n, k) for n in range(n_max + 1) for k in range(n + 1)]
    processes = min(resolve_workers(workers), len(units), os.cpu_count() or 1)
    if processes <= 1:
        results = [unit_fn(u) for u in units]
    else:
        with multiprocessing.Pool(processes=processes) as pool:
            results = pool.map(unit_fn, units, chunksize=1)
    cases = 0
    failures = FailureLog()
    for unit_cases, unit_failures, _ in results:
        cases += unit_cases
        failures.extend(unit_failures)
    details: dict[str, Any] = {}
    if summarize is not None:
        summary_cases, details = summarize(n_max, [r[2] for r in results], failures)
        cases += summary_cases
    return VerificationReport(
        check_name=check_name,
        n_range=(0, n_max),
        total_cases=cases,
        failure_count=failures.count,
        failures=failures.records,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
        details=details,
    )


def _vertex_list(kpath) -> list[list[int]]:
    return [list(v) for v in kpath.vertices]


def _xy_key(kpath) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(x-coordinates, y-coordinates) of the interior vertices."""
    return tuple(zip(*kpath.interior)) or ((), ())


# ---------------------------------------------------------------------------
# round trip


def _roundtrip_unit(unit: tuple[int, int]) -> UnitResult:
    n, k = unit
    cases = 0
    failures = FailureLog()
    image_keys: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    for path in enumerate_delannoy_by_e(n, k):
        cases += 1
        image = phi(path)
        image_keys.append(_xy_key(image))
        back = phi_inverse(image)
        if back.word != path.word:
            failures.add(
                "inverse_roundtrip",
                n=n,
                k=k,
                input_word=path.word,
                expected=path.word,
                actual=back.word,
            )

    image_keys.sort()
    vertex_keys: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for kpath in enumerate_kimberling_by_vertices(n + 1, n, k):
        cases += 1
        vertex_keys.append(_xy_key(kpath))
        back_path = phi(phi_inverse(kpath))
        if back_path != kpath:
            failures.add(
                "forward_roundtrip",
                n=n,
                k=k,
                input_vertices=_vertex_list(kpath),
                expected=_vertex_list(kpath),
                actual=_vertex_list(back_path),
            )

    # enumerate_kimberling_by_vertices yields keys in sorted order, so list
    # equality against the sorted image keys is set equality with multiplicity.
    if image_keys != vertex_keys:
        image_set = set(image_keys)
        vertex_set = set(vertex_keys)
        failures.add(
            "image_set",
            n=n,
            k=k,
            missing_from_image=sorted(vertex_set - image_set)[:3],
            unexpected_in_image=sorted(image_set - vertex_set)[:3],
        )
    return cases, failures, None


def verify_roundtrip(n_max: int, workers: int | None = None) -> VerificationReport:
    """Both round trips plus image-set equality, exhaustively for n <= n_max.

    Cases counted: one per word-side path (inverse-after-forward) and one
    per vertex-side path (forward-after-inverse), so the total is twice the
    family size summed over n.
    """
    return _sweep("roundtrip", _roundtrip_unit, n_max, workers)


# ---------------------------------------------------------------------------
# refined counts


def _counts_unit(unit: tuple[int, int]) -> UnitResult:
    n, k = unit
    formula = count_delannoy_by_e(n, k)
    vertex_formula = count_kimberling_by_vertices(n + 1, n, k)
    word_enumerated = sum(1 for _ in enumerate_delannoy_by_e(n, k))
    vertex_enumerated = sum(1 for _ in enumerate_kimberling_by_vertices(n + 1, n, k))
    failures = FailureLog()
    if not formula == vertex_formula == word_enumerated == vertex_enumerated:
        failures.add(
            "path_count",
            n=n,
            k=k,
            expected=formula,
            kimberling_formula=vertex_formula,
            delannoy_enumerated=word_enumerated,
            kimberling_enumerated=vertex_enumerated,
        )
    return 1, failures, None


def verify_counts(n_max: int, workers: int | None = None) -> VerificationReport:
    """Enumerated per-k counts of both families against the closed form.

    One case per (n, k) cell with 0 <= k <= n <= n_max; each cell compares
    four exact integers.
    """
    return _sweep("counts", _counts_unit, n_max, workers)


# ---------------------------------------------------------------------------
# subdiagonal transport and Schroder totals


def _subdiagonal_unit(unit: tuple[int, int]) -> UnitResult:
    n, k = unit
    cases = 0
    failures = FailureLog()
    subdiagonal_words = 0
    for path in enumerate_delannoy_by_e(n, k):
        cases += 1
        word_flag = is_subdiagonal_delannoy(path)
        vertex_flag = is_subdiagonal_kimberling(phi(path))
        subdiagonal_words += word_flag
        if word_flag != vertex_flag:
            failures.add(
                "subdiagonal_transport",
                n=n,
                k=k,
                input_word=path.word,
                delannoy_subdiagonal=word_flag,
                kimberling_subdiagonal=vertex_flag,
            )
    subdiagonal_vertex_paths = sum(
        is_subdiagonal_kimberling(kpath)
        for kpath in enumerate_kimberling_by_vertices(n + 1, n, k)
    )
    return cases, failures, (n, subdiagonal_words, subdiagonal_vertex_paths)


def _schroder_totals(
    n_max: int, extras: list[tuple[int, int, int]], failures: FailureLog
) -> tuple[int, dict[str, Any]]:
    """Two cases per n: each family's subdiagonal total against the oracle."""
    totals = {n: [0, 0] for n in range(n_max + 1)}
    for n, words, vertex_paths in extras:
        totals[n][0] += words
        totals[n][1] += vertex_paths
    schroder_row = {}
    for n, (words, vertex_paths) in totals.items():
        oracle = schroder(n)
        schroder_row[str(n)] = {"oracle": oracle, "delannoy": words, "kimberling": vertex_paths}
        for family, actual in (("delannoy", words), ("kimberling", vertex_paths)):
            if actual != oracle:
                failures.add(
                    "subdiagonal_count", n=n, family=family, expected=oracle, actual=actual
                )
    return 2 * len(totals), {"schroder": schroder_row}


def verify_subdiagonal(n_max: int, workers: int | None = None) -> VerificationReport:
    """Per-path subdiagonality transport plus both family totals against the oracle.

    Cases: one per word-side path (transport), plus two per n comparing the
    subdiagonal cardinality of each family to the recurrence-computed
    Schroder number.
    """
    return _sweep("subdiagonal", _subdiagonal_unit, n_max, workers, _schroder_totals)


# ---------------------------------------------------------------------------
# per-step equivalence, never-equals, and case coverage


def _per_step_unit(unit: tuple[int, int]) -> UnitResult:
    n, k = unit
    cases = 0
    failures = FailureLog()
    tally = {label: 0 for label in CASE_LABELS}
    for path in enumerate_delannoy_by_e(n, k):
        labels = step_labels(path)
        ends, before_north, before_east = walk_east_steps(path.word)
        cases += k
        steps = zip(
            ends, labels.a_labels, labels.b_labels, before_north, before_east, strict=True
        )
        for east_index, ((px, py), x, y, d_north, d_east) in enumerate(steps, start=1):
            # the i-th East end against y = x, the i-th interior vertex of
            # the image against y = n/(n+1) x, cross-multiplied
            east_flag = py >= px
            vertex_flag = y * (n + 1) > x * n
            if east_flag != vertex_flag:
                failures.add(
                    "step_vertex_mismatch",
                    n=n,
                    k=k,
                    input_word=path.word,
                    east_index=east_index,
                    east_weakly_above=east_flag,
                    vertex_strictly_above=vertex_flag,
                )
            if y * (n + 1) == x * n:
                failures.add(
                    "vertex_on_diagonal",
                    n=n,
                    k=k,
                    input_word=path.word,
                    east_index=east_index,
                    interior_vertex=[x, y],
                )
            tally[classify_d_counts(d_north, d_east)] += 1
    return cases, failures, (n, tally)


def _case_coverage(
    n_max: int, extras: list[tuple[int, dict[str, int]]], failures: FailureLog
) -> tuple[int, dict[str, Any]]:
    """One case per n >= 2: every ordering of the preceding-D counts occurs."""
    tallies = {n: {label: 0 for label in CASE_LABELS} for n in range(n_max + 1)}
    for n, tally in extras:
        for label, value in tally.items():
            tallies[n][label] += value
    for n in range(2, n_max + 1):
        missing = [label for label in CASE_LABELS if tallies[n][label] == 0]
        if missing:
            failures.add("case_class_missing", n=n, missing=missing)
    return max(n_max - 1, 0), {"case_tallies": {str(n): tallies[n] for n in tallies}}


def verify_per_step(n_max: int, workers: int | None = None) -> VerificationReport:
    """East-step/interior-vertex diagonal equivalence at every East index.

    For each index the sweep checks that the two diagonal comparisons agree
    and that the interior vertex never lands exactly on the image diagonal.
    One case per East index, plus one coverage case per n >= 2 confirming
    that all three orderings of the preceding-D counts occur.
    """
    return _sweep("per-step", _per_step_unit, n_max, workers, _case_coverage)


CHECKS: dict[str, Callable[..., VerificationReport]] = {
    "roundtrip": verify_roundtrip,
    "counts": verify_counts,
    "subdiagonal": verify_subdiagonal,
    "per-step": verify_per_step,
}


def run_checks(
    names: Iterable[str], n_max: int = DEFAULT_N_MAX, workers: int | None = None
) -> list[VerificationReport]:
    """Run the named checks in a fixed order and return their reports."""
    reports = []
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
        reports.append(CHECKS[name](n_max, workers=workers))
    return reports
