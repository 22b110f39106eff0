"""Exhaustive verification sweeps over both path families.

Every check enumerates complete families up to a size bound and compares
against independent oracles (closed-form counts, the Schroder recurrence,
per-step case analysis).  Failures are data, never exceptions: a sweep
always runs to completion and reports totals, a capped list of
counterexamples, and an exact failure count.

Sweeps are partitioned into (n, k) units -- the paths with k East steps on
the word side, the paths with k interior vertices on the vertex side.
Units are independent, and their partial results merge by exact addition,
so they may run across worker processes; the DELANNOY_KIT_THREADS
environment variable sets the worker count (0 = one per CPU, unset = 1).
Reports are deterministic either way, up to the elapsed field.
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


def _map_units(
    unit_fn: Callable[[tuple[int, int]], dict[str, Any]],
    units: list[tuple[int, int]],
    workers: int,
) -> list[dict[str, Any]]:
    if workers <= 1 or len(units) <= 1:
        return [unit_fn(u) for u in units]
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(unit_fn, units, chunksize=1)


def _take_failures(dst: list[dict[str, Any]], src: Iterable[dict[str, Any]]) -> None:
    for record in src:
        if len(dst) >= FAILURE_CAP:
            break
        dst.append(record)


def _all_units(n_max: int) -> list[tuple[int, int]]:
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}; that sweep would check nothing")
    return [(n, k) for n in range(n_max + 1) for k in range(n + 1)]


def _vertex_list(kpath) -> list[list[int]]:
    return [list(v) for v in kpath.vertices]


def _xy_key(kpath) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(x-coordinates, y-coordinates) of the interior vertices."""
    return tuple(zip(*kpath.interior)) or ((), ())


# ---------------------------------------------------------------------------
# round trip


def _roundtrip_unit(unit: tuple[int, int]) -> dict[str, Any]:
    n, k = unit
    cases = 0
    failure_count = 0
    failures: list[dict[str, Any]] = []
    image_keys: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    for path in enumerate_delannoy_by_e(n, k):
        cases += 1
        image = phi(path)
        image_keys.append(_xy_key(image))
        back = phi_inverse(image)
        if back.word != path.word:
            failure_count += 1
            if len(failures) < FAILURE_CAP:
                failures.append(
                    {
                        "kind": "inverse_roundtrip",
                        "n": n,
                        "k": k,
                        "input_word": path.word,
                        "expected": path.word,
                        "actual": back.word,
                    }
                )

    image_keys.sort()
    vertex_keys: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for kpath in enumerate_kimberling_by_vertices(n + 1, n, k):
        cases += 1
        vertex_keys.append(_xy_key(kpath))
        back_path = phi(phi_inverse(kpath))
        if back_path != kpath:
            failure_count += 1
            if len(failures) < FAILURE_CAP:
                failures.append(
                    {
                        "kind": "forward_roundtrip",
                        "n": n,
                        "k": k,
                        "input_vertices": _vertex_list(kpath),
                        "expected": _vertex_list(kpath),
                        "actual": _vertex_list(back_path),
                    }
                )

    # enumerate_kimberling_by_vertices yields keys in sorted order, so list
    # equality against the sorted image keys is set equality with multiplicity.
    if image_keys != vertex_keys:
        failure_count += 1
        if len(failures) < FAILURE_CAP:
            image_set = set(image_keys)
            vertex_set = set(vertex_keys)
            failures.append(
                {
                    "kind": "image_set",
                    "n": n,
                    "k": k,
                    "missing_from_image": sorted(vertex_set - image_set)[:3],
                    "unexpected_in_image": sorted(image_set - vertex_set)[:3],
                }
            )
    return {"cases": cases, "failure_count": failure_count, "failures": failures}


def verify_roundtrip(n_max: int, workers: int | None = None) -> VerificationReport:
    """Both round trips plus image-set equality, exhaustively for n <= n_max.

    Cases counted: one per word-side path (inverse-after-forward) and one
    per vertex-side path (forward-after-inverse), so the total is twice the
    family size summed over n.
    """
    start = time.perf_counter()
    results = _map_units(_roundtrip_unit, _all_units(n_max), resolve_workers(workers))
    cases = sum(r["cases"] for r in results)
    failure_count = sum(r["failure_count"] for r in results)
    failures: list[dict[str, Any]] = []
    for r in results:
        _take_failures(failures, r["failures"])
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        check_name="roundtrip",
        n_range=(0, n_max),
        total_cases=cases,
        failure_count=failure_count,
        failures=failures,
        elapsed_ms=elapsed,
    )


# ---------------------------------------------------------------------------
# refined counts


def _counts_unit(unit: tuple[int, int]) -> dict[str, Any]:
    n, k = unit
    formula = count_delannoy_by_e(n, k)
    vertex_formula = count_kimberling_by_vertices(n + 1, n, k)
    word_enumerated = sum(1 for _ in enumerate_delannoy_by_e(n, k))
    vertex_enumerated = sum(1 for _ in enumerate_kimberling_by_vertices(n + 1, n, k))
    ok = formula == vertex_formula == word_enumerated == vertex_enumerated
    failures: list[dict[str, Any]] = []
    if not ok:
        failures.append(
            {
                "kind": "path_count",
                "n": n,
                "k": k,
                "expected": formula,
                "kimberling_formula": vertex_formula,
                "delannoy_enumerated": word_enumerated,
                "kimberling_enumerated": vertex_enumerated,
            }
        )
    return {"cases": 1, "failure_count": 0 if ok else 1, "failures": failures}


def verify_counts(n_max: int, workers: int | None = None) -> VerificationReport:
    """Enumerated per-k counts of both families against the closed form.

    One case per (n, k) cell with 0 <= k <= n <= n_max; each cell compares
    four exact integers.
    """
    start = time.perf_counter()
    results = _map_units(_counts_unit, _all_units(n_max), resolve_workers(workers))
    cases = sum(r["cases"] for r in results)
    failure_count = sum(r["failure_count"] for r in results)
    failures: list[dict[str, Any]] = []
    for r in results:
        _take_failures(failures, r["failures"])
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        check_name="counts",
        n_range=(0, n_max),
        total_cases=cases,
        failure_count=failure_count,
        failures=failures,
        elapsed_ms=elapsed,
    )


# ---------------------------------------------------------------------------
# subdiagonal transport and Schroder totals


def _subdiagonal_unit(unit: tuple[int, int]) -> dict[str, Any]:
    n, k = unit
    cases = 0
    failure_count = 0
    failures: list[dict[str, Any]] = []
    subdiagonal_words = 0
    for path in enumerate_delannoy_by_e(n, k):
        cases += 1
        word_flag = is_subdiagonal_delannoy(path)
        vertex_flag = is_subdiagonal_kimberling(phi(path))
        subdiagonal_words += word_flag
        if word_flag != vertex_flag:
            failure_count += 1
            if len(failures) < FAILURE_CAP:
                failures.append(
                    {
                        "kind": "subdiagonal_transport",
                        "n": n,
                        "k": k,
                        "input_word": path.word,
                        "delannoy_subdiagonal": word_flag,
                        "kimberling_subdiagonal": vertex_flag,
                    }
                )
    subdiagonal_vertex_paths = sum(
        is_subdiagonal_kimberling(kpath)
        for kpath in enumerate_kimberling_by_vertices(n + 1, n, k)
    )
    return {
        "cases": cases,
        "failure_count": failure_count,
        "failures": failures,
        "n": n,
        "subdiagonal_words": subdiagonal_words,
        "subdiagonal_vertex_paths": subdiagonal_vertex_paths,
    }


def verify_subdiagonal(n_max: int, workers: int | None = None) -> VerificationReport:
    """Per-path subdiagonality transport plus both family totals against the oracle.

    Cases: one per word-side path (transport), plus two per n comparing the
    subdiagonal cardinality of each family to the recurrence-computed
    Schroder number.
    """
    start = time.perf_counter()
    results = _map_units(
        _subdiagonal_unit, _all_units(n_max), resolve_workers(workers)
    )
    cases = sum(r["cases"] for r in results)
    failure_count = sum(r["failure_count"] for r in results)
    failures: list[dict[str, Any]] = []
    for r in results:
        _take_failures(failures, r["failures"])

    word_totals = {n: 0 for n in range(n_max + 1)}
    vertex_totals = {n: 0 for n in range(n_max + 1)}
    for r in results:
        word_totals[r["n"]] += r["subdiagonal_words"]
        vertex_totals[r["n"]] += r["subdiagonal_vertex_paths"]

    schroder_row = {}
    for n in range(n_max + 1):
        oracle = schroder(n)
        schroder_row[str(n)] = {
            "oracle": oracle,
            "delannoy": word_totals[n],
            "kimberling": vertex_totals[n],
        }
        for family, actual in (("delannoy", word_totals[n]), ("kimberling", vertex_totals[n])):
            cases += 1
            if actual != oracle:
                failure_count += 1
                _take_failures(
                    failures,
                    [
                        {
                            "kind": "subdiagonal_count",
                            "n": n,
                            "family": family,
                            "expected": oracle,
                            "actual": actual,
                        }
                    ],
                )
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        check_name="subdiagonal",
        n_range=(0, n_max),
        total_cases=cases,
        failure_count=failure_count,
        failures=failures,
        elapsed_ms=elapsed,
        details={"schroder": schroder_row},
    )


# ---------------------------------------------------------------------------
# per-step equivalence, never-equals, and case coverage


def _per_step_unit(unit: tuple[int, int]) -> dict[str, Any]:
    n, k = unit
    cases = 0
    failure_count = 0
    failures: list[dict[str, Any]] = []
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
                failure_count += 1
                if len(failures) < FAILURE_CAP:
                    failures.append(
                        {
                            "kind": "step_vertex_mismatch",
                            "n": n,
                            "k": k,
                            "input_word": path.word,
                            "east_index": east_index,
                            "east_weakly_above": east_flag,
                            "vertex_strictly_above": vertex_flag,
                        }
                    )
            if y * (n + 1) == x * n:
                failure_count += 1
                if len(failures) < FAILURE_CAP:
                    failures.append(
                        {
                            "kind": "vertex_on_diagonal",
                            "n": n,
                            "k": k,
                            "input_word": path.word,
                            "east_index": east_index,
                            "interior_vertex": [x, y],
                        }
                    )
            tally[classify_d_counts(d_north, d_east)] += 1
    return {
        "cases": cases,
        "failure_count": failure_count,
        "failures": failures,
        "n": n,
        "tally": tally,
    }


def verify_per_step(n_max: int, workers: int | None = None) -> VerificationReport:
    """East-step/interior-vertex diagonal equivalence at every East index.

    For each index the sweep checks that the two diagonal comparisons agree
    and that the interior vertex never lands exactly on the image diagonal.
    One case per East index, plus one coverage case per n >= 2 confirming
    that all three orderings of the preceding-D counts occur.
    """
    start = time.perf_counter()
    results = _map_units(_per_step_unit, _all_units(n_max), resolve_workers(workers))
    cases = sum(r["cases"] for r in results)
    failure_count = sum(r["failure_count"] for r in results)
    failures: list[dict[str, Any]] = []
    for r in results:
        _take_failures(failures, r["failures"])

    tallies = {n: {label: 0 for label in CASE_LABELS} for n in range(n_max + 1)}
    for r in results:
        for label, value in r["tally"].items():
            tallies[r["n"]][label] += value
    for n in range(2, n_max + 1):
        cases += 1
        missing = [label for label in CASE_LABELS if tallies[n][label] == 0]
        if missing:
            failure_count += 1
            _take_failures(
                failures,
                [{"kind": "case_class_missing", "n": n, "missing": missing}],
            )
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        check_name="per-step",
        n_range=(0, n_max),
        total_cases=cases,
        failure_count=failure_count,
        failures=failures,
        elapsed_ms=elapsed,
        details={"case_tallies": {str(n): tallies[n] for n in tallies}},
    )


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
