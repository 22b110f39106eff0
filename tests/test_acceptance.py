"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here (exact integers except where a
criterion states a runtime bound or a chi-square percentile).
"""

import json
import time
from collections import Counter
from pathlib import Path

import pytest
from scipy.stats import chi2

from delannoy_kit import (
    count_delannoy,
    count_delannoy_by_e,
    enumerate_delannoy,
    enumerate_kimberling,
    sample_delannoy_stream,
    run_checks,
    schroder,
)
from delannoy_kit.cli import run
from delannoy_kit.harness import CHECKS

WORKED_WORD = "NEEDNNNEDDEEN"
WORKED_VERTICES = [[0, 0], [1, 1], [3, 1], [4, 5], [5, 7], [8, 7], [9, 8]]
SCHRODER_ROW = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586]
GOLDEN_N8 = Path(__file__).with_name("golden_verify_n8.json")


def _ok(number: int, text: str) -> None:
    print(f"[criterion {number}] PASS - {text}")


@pytest.fixture(scope="module")
def sweep():
    """Each check's report from one fused ``verify`` sweep at n <= 8, by name.

    A fused report equals the same check's lone report byte for byte (the
    golden ``verify`` test's each-check-alone case), so criteria 2, 3, 5 and
    6 read theirs from one sweep.  The reports, minus ``elapsed_ms``, must
    also equal ``golden_verify_n8.json`` byte for byte, as ``verify --n-max 8
    --json`` would print them."""
    reports = run_checks(list(CHECKS), 8, workers=1)
    payloads = [report.to_json_dict() for report in reports]
    for payload in payloads:
        del payload["elapsed_ms"]
    text = json.dumps({"passed": all(r.passed for r in reports), "reports": payloads}, indent=2)
    assert text + "\n" == GOLDEN_N8.read_text(encoding="utf-8")
    return {report.check_name: report for report in reports}


def test_criterion_1_worked_example_fidelity(capsys):
    assert run(["map", WORKED_WORD]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == WORKED_VERTICES

    assert run(["unmap", json.dumps(WORKED_VERTICES), "--debug"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["word"] == WORKED_WORD
    assert payload["A"] == [1, 3, 4, 5, 8]
    assert payload["B"] == [1, 1, 5, 7, 7]
    assert payload["C"] == [2, 6, 7]
    assert payload["merged"] == [
        "1A", "1B", "1B", "2C", "3A", "4A", "5A",
        "5B", "6C", "7C", "7B", "7B", "8A",
    ]

    # runtime: the mapping itself (already warmed up above)
    start = time.perf_counter()
    assert run(["map", WORKED_WORD]) == 0
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert elapsed < 0.010, f"map took {elapsed * 1000:.2f} ms"
    with capsys.disabled():
        _ok(1, f"worked example via map/unmap --debug; map in {elapsed * 1000:.2f} ms")


def test_criterion_2_bijection_exhaustive(sweep):
    report = sweep["roundtrip"]
    assert report.failure_count == 0
    assert report.total_cases == 650_882  # includes the 531,458 top-size cases
    assert report.elapsed_ms < 30_000
    _ok(2, f"roundtrip over {report.total_cases} cases; fused sweep {report.elapsed_ms:.0f} ms")


def test_criterion_3_refined_counts(sweep):
    assert count_delannoy_by_e(2, 1) == 6
    assert count_delannoy_by_e(8, 5) == 72_072
    report = sweep["counts"]
    assert report.failure_count == 0
    assert report.total_cases == 45  # one cell per (n, k), 0 <= k <= n <= 8
    _ok(3, "enumerated per-k counts equal the closed form for all n <= 8")


def test_criterion_4_smallest_family_golden():
    paths = [k.vertices for k in enumerate_kimberling(2, 1)]
    assert paths == [
        ((0, 0), (2, 1)),
        ((0, 0), (1, 0), (2, 1)),
        ((0, 0), (1, 1), (2, 1)),
    ]
    _ok(4, "the three paths to (2, 1) enumerate exactly")


def test_criterion_5_subdiagonal_exhaustive(sweep):
    report = sweep["subdiagonal"]
    assert report.failure_count == 0
    assert [schroder(n) for n in range(9)] == SCHRODER_ROW
    for n in range(9):
        row = report.details["schroder"][str(n)]
        assert row["delannoy"] == row["kimberling"] == SCHRODER_ROW[n]
    _ok(5, "subdiagonality transports and both tallies match the oracle row")


def test_criterion_6_per_step_and_never_equals(sweep):
    report = sweep["per-step"]
    assert report.failure_count == 0
    for n in range(2, 9):
        tally = report.details["case_tallies"][str(n)]
        assert all(tally[label] > 0 for label in tally), (n, tally)
    _ok(6, f"per-index equivalence over {report.total_cases} cases; all branches hit")


def test_criterion_7_sampler_uniformity():
    support = [p.word for p in enumerate_delannoy(3)]
    assert len(support) == 63
    draws = [p.word for p in sample_delannoy_stream(3, 13_000, seed=20240809)]
    counts = Counter(draws)
    assert set(counts) == set(support)

    expected = 13_000 / 63
    statistic = sum((counts[w] - expected) ** 2 / expected for w in support)
    critical = chi2.ppf(0.999, 62)
    assert statistic < critical, (statistic, critical)

    replay = [p.word for p in sample_delannoy_stream(3, 13_000, seed=20240809)]
    assert replay == draws
    _ok(7, f"chi-square {statistic:.2f} < {critical:.2f}; replay bit-identical")


def test_criterion_8_exactness_guard():
    def product_binomial(n, k):
        # factorial-free multiplicative form with exact intermediate division
        if k < 0 or k > n:
            return 0
        result = 1
        for step in range(1, min(k, n - k) + 1):
            result = result * (n - step + 1) // step
        return result

    independent = sum(
        product_binomial(30, k) * product_binomial(30 + k, k) for k in range(31)
    )
    value = count_delannoy(30)
    assert value == independent
    assert value > 2**64  # far beyond fixed-width integers, computed exactly
    _ok(8, f"count at order 30 = {value} matches the independent routine")
