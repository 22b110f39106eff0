import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from delannoy_kit import (
    KimberlingPath,
    count_delannoy,
    count_delannoy_by_e,
    count_kimberling_by_vertices,
    enumerate_kimberling_by_vertices,
    phi_inverse,
)
from delannoy_kit import cli, harness
from delannoy_kit.counting import _vertex_tuples, _words_by_e
from delannoy_kit.geometry import CASE_LABELS
from delannoy_kit.harness import FAILURE_CAP, resolve_workers, run_checks


GOLDEN_N6 = Path(__file__).with_name("golden_verify_n6.json")


def _report(name, n_max, workers=None):
    """The report of one check run alone."""
    return run_checks([name], n_max, workers)[0]


class TestVerifyRoundtrip:
    def test_order_one(self):
        report = _report("roundtrip", 1)
        assert report.passed
        # 1 + 1 cases at n=0 plus the 3 + 3 top-size cases at n=1
        assert report.total_cases == 8
        assert report.n_range == (0, 1)
        assert report.failures == []

    def test_order_zero(self):
        report = _report("roundtrip", 0)
        assert report.passed
        assert report.total_cases == 2

    def test_total_cases_closed_form(self):
        report = _report("roundtrip", 4)
        assert report.total_cases == 2 * sum(count_delannoy(n) for n in range(5))
        assert report.passed


class TestVerifyCounts:
    def test_order_zero_single_cell(self):
        report = _report("counts", 0)
        assert report.passed
        assert report.total_cases == 1

    def test_cell_count_closed_form(self):
        report = _report("counts", 5)
        assert report.passed
        assert report.total_cases == sum(n + 1 for n in range(6))


class TestVerifySubdiagonal:
    def test_small_sweep(self):
        report = _report("subdiagonal", 3)
        assert report.passed
        assert report.total_cases == sum(count_delannoy(n) + 2 for n in range(4))
        row = report.details["schroder"]
        assert row["3"] == {"oracle": 22, "delannoy": 22, "kimberling": 22}

    def test_order_zero(self):
        report = _report("subdiagonal", 0)
        assert report.passed
        assert report.details["schroder"]["0"]["oracle"] == 1


class TestVerifyPerStep:
    def test_small_sweep(self):
        report = _report("per-step", 3)
        assert report.passed
        east_indices = sum(
            k * count_delannoy_by_e(n, k) for n in range(4) for k in range(n + 1)
        )
        coverage_cases = 2  # one per n in 2..3
        assert report.total_cases == east_indices + coverage_cases

    def test_all_case_classes_reported(self):
        report = _report("per-step", 3)
        for n in (2, 3):
            tally = report.details["case_tallies"][str(n)]
            assert set(tally) == set(CASE_LABELS)
            assert all(value > 0 for value in tally.values())

    def test_order_one_has_single_class(self):
        # no D can separate the only N/E pair at order 1
        report = _report("per-step", 1)
        assert report.passed
        tally = report.details["case_tallies"]["1"]
        assert tally["more_before_east"] == 0
        assert tally["more_before_north"] == 0

    @pytest.mark.parametrize("fused", [False, True], ids=["alone", "fused"])
    def test_phi_is_pinned_to_its_definition(self, monkeypatch, fused):
        # phi and phi_inverse trade the images of DDEN and DEDN: still a
        # bijection that roundtrip passes, but not the paper's map
        trade = {"DDEN": "DEDN", "DEDN": "DDEN"}

        def traded_preimage(vertices):
            word = UNPATCHED_PREIMAGE(vertices)
            return trade.get(word, word)

        monkeypatch.setattr(harness, "_image", lambda word: UNPATCHED_IMAGE(trade.get(word, word)))
        monkeypatch.setattr(harness, "_preimage", traded_preimage)
        names = list(harness.CHECKS) if fused else ["per-step"]
        reports = {r.check_name: r for r in run_checks(names, 4, workers=1)}
        assert reports["per-step"].failure_count == 2
        assert reports["per-step"].failures == [
            _image_mismatch(3, 1, "DDEN", 1, [3, 2], [3, 1]),
            _image_mismatch(3, 1, "DEDN", 1, [3, 1], [3, 2]),
        ]
        if fused:
            assert reports["roundtrip"].passed

    def test_wrong_vertex_count_is_recorded(self, monkeypatch):
        monkeypatch.setattr(harness, "_image", _drop_last_in_slice)
        report = _report("per-step", 3, workers=1)
        assert report.total_cases == 154
        assert report.failures == [
            {
                "kind": "image_vertex_count", "n": n, "k": k,
                "input_word": "N" * k + "E" * k + "D" * (n - k), "expected": k, "actual": k - 1,
            }
            for n in range(1, 4) for k in range(1, n + 1)
        ]
        assert report.failure_count == 6


class TestReportMechanics:
    @pytest.mark.parametrize(
        "threads, checks",
        [(None, ["all"]), ("2", ["all"]), (None, list(harness.CHECKS))],
        ids=["one-worker", "pool-of-two", "each-check-alone"],
    )
    def test_verify_json_matches_the_golden_report(self, capsys, monkeypatch, threads, checks):
        # the golden file is verify --n-max 6 --json minus elapsed_ms, recorded
        # before the vertex pass began skipping the roundtrips that the word
        # pass implies; the reports match it with 1 worker or 2, and for each
        # check alone or fused
        if threads is None:
            monkeypatch.delenv(harness.ENV_THREADS, raising=False)
        else:
            monkeypatch.setenv(harness.ENV_THREADS, threads)
            monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # a pool on any machine
        payloads = []
        for check in checks:
            assert cli.run(["verify", "--n-max", "6", "--check", check, "--json"]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        reports = [report for payload in payloads for report in payload["reports"]]
        for report in reports:
            del report["elapsed_ms"]
        payload = {"passed": all(p["passed"] for p in payloads), "reports": reports}
        assert json.dumps(payload, indent=2) + "\n" == GOLDEN_N6.read_text(encoding="utf-8")

    def test_run_checks_order_and_names(self):
        reports = run_checks(["counts", "roundtrip"], n_max=1)
        assert [r.check_name for r in reports] == ["counts", "roundtrip"]


class TestFailureRecording:
    def test_one_failure_fails_the_check(self, capsys, monkeypatch):
        def bumped(n, k):
            return original(n, k) + ((n, k) == (1, 1))

        original = harness.count_delannoy_by_e
        monkeypatch.setattr(harness, "count_delannoy_by_e", bumped)
        monkeypatch.delenv(harness.ENV_THREADS, raising=False)
        (report,) = run_checks(["counts"], 2)
        assert (report.failure_count, report.passed) == (1, False)
        assert cli.run(["verify", "--check", "counts", "--n-max", "2"]) == 1
        assert capsys.readouterr().out.startswith("FAIL counts:")

    def test_summary_records_stay_under_a_cap_the_units_filled(self, monkeypatch):
        # the units of n <= 3 fill the cap with 49 transport failures, then
        # the summaries of n = 1, 2 and 3 add 3 more to the folded log
        monkeypatch.setattr(harness, "_word_below_diagonal", lambda word: True)
        (report,) = run_checks(["subdiagonal"], 3, workers=1)
        assert report.failure_count == 52
        assert len(report.failures) == FAILURE_CAP


# a pool worker sees a monkeypatched harness global only if it was forked
NEEDS_FORK = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers started without fork do not inherit the patched _image",
)


def _without_elapsed(report):
    payload = report.to_json_dict()
    del payload["elapsed_ms"]
    return json.dumps(payload)


def _inverse(n, k, word, actual):
    return {
        "kind": "inverse_roundtrip", "n": n, "k": k,
        "input_word": word, "expected": word, "actual": actual,
    }


def _forward(n, k, vertices, actual):
    return {
        "kind": "forward_roundtrip", "n": n, "k": k,
        "input_vertices": vertices, "expected": vertices, "actual": actual,
    }


def _image_set(n, k, missing, unexpected):
    return {
        "kind": "image_set", "n": n, "k": k,
        "missing_from_image": missing, "unexpected_in_image": unexpected,
    }


def _transport(n, k, word):
    return {
        "kind": "subdiagonal_transport", "n": n, "k": k, "input_word": word,
        "delannoy_subdiagonal": True, "kimberling_subdiagonal": False,
    }


class TestGoldenFailureRecords:
    """Whole reports of corrupted sweeps, minus ``elapsed_ms``, byte for byte.

    Recorded before the four checks shared one driver: they pin key order,
    record order across units and summaries, the cap and the exact count.
    Each test reads its report through ``report``.
    """

    @staticmethod
    def report(name, n_max, workers):
        return _report(name, n_max, workers)

    def test_roundtrip_with_bumped_phi(self, monkeypatch, workers=1):
        def bumped_image(word):
            image = original_image(word)
            if len(image) > 2:
                x, y = image[1]
                bumped = ((0, 0), (x, max(0, y - 1))) + image[2:]
                try:
                    return KimberlingPath(bumped).vertices
                except Exception:
                    return image
            return image

        original_image = harness._image
        monkeypatch.setattr(harness, "_image", bumped_image)
        expected = {
            "check_name": "roundtrip",
            "n_range": [0, 3],
            "total_cases": 160,
            "failure_count": 96,
            "failures": [
                _inverse(1, 1, "NE", "EN"),
                _forward(1, 1, [[0, 0], [1, 1], [2, 1]], [[0, 0], [1, 0], [2, 1]]),
                {
                    "kind": "image_set", "n": 1, "k": 1,
                    "missing_from_image": [[[1], [1]]], "unexpected_in_image": [],
                },
                _inverse(2, 1, "DEN", "EDN"),
                _inverse(2, 1, "DNE", "DEN"),
                _inverse(2, 1, "NDE", "NED"),
                _inverse(2, 1, "NED", "END"),
                _forward(2, 1, [[0, 0], [1, 1], [3, 2]], [[0, 0], [1, 0], [3, 2]]),
                _forward(2, 1, [[0, 0], [1, 2], [3, 2]], [[0, 0], [1, 1], [3, 2]]),
                _forward(2, 1, [[0, 0], [2, 1], [3, 2]], [[0, 0], [2, 0], [3, 2]]),
            ],
            "passed": False,
            "details": {},
        }
        assert _without_elapsed(self.report("roundtrip", 3, workers)) == json.dumps(expected)

    def test_subdiagonal_with_forced_word_predicate(self, monkeypatch, workers=1):
        monkeypatch.setattr(harness, "_word_below_diagonal", lambda word: True)
        expected = {
            "check_name": "subdiagonal",
            "n_range": [0, 2],
            "total_cases": 23,
            "failure_count": 10,
            "failures": [
                _transport(1, 1, "NE"),
                _transport(2, 1, "DNE"),
                _transport(2, 1, "NDE"),
                _transport(2, 1, "NED"),
                _transport(2, 2, "ENNE"),
                _transport(2, 2, "NEEN"),
                _transport(2, 2, "NENE"),
                _transport(2, 2, "NNEE"),
                {"kind": "subdiagonal_count", "n": 1, "family": "delannoy",
                 "expected": 2, "actual": 3},
                {"kind": "subdiagonal_count", "n": 2, "family": "delannoy",
                 "expected": 6, "actual": 13},
            ],
            "passed": False,
            "details": {
                "schroder": {
                    "0": {"oracle": 1, "delannoy": 1, "kimberling": 1},
                    "1": {"oracle": 2, "delannoy": 3, "kimberling": 2},
                    "2": {"oracle": 6, "delannoy": 13, "kimberling": 6},
                }
            },
        }
        assert _without_elapsed(self.report("subdiagonal", 2, workers)) == json.dumps(expected)

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=NEEDS_FORK)])
    def test_subdiagonal_with_both_predicates_forced(self, monkeypatch, workers):
        # no word disagrees with its image, so only the summary records fail
        monkeypatch.setattr(harness, "_word_below_diagonal", lambda word: True)
        monkeypatch.setattr(harness, "_image_below_chord", lambda vertices: True)
        expected = {
            "check_name": "subdiagonal",
            "n_range": [0, 3],
            "total_cases": 88,
            "failure_count": 6,
            "failures": [
                {"kind": "subdiagonal_count", "n": n, "family": family,
                 "expected": oracle, "actual": actual}
                for n, oracle, actual in ((1, 2, 3), (2, 6, 13), (3, 22, 63))
                for family in ("delannoy", "kimberling")
            ],
            "passed": False,
            "details": {
                "schroder": {
                    "0": {"oracle": 1, "delannoy": 1, "kimberling": 1},
                    "1": {"oracle": 2, "delannoy": 3, "kimberling": 3},
                    "2": {"oracle": 6, "delannoy": 13, "kimberling": 13},
                    "3": {"oracle": 22, "delannoy": 63, "kimberling": 63},
                }
            },
        }
        assert _without_elapsed(self.report("subdiagonal", 3, workers)) == json.dumps(expected)

    # The corrupted runs below were recorded before the image check ranked
    # the images: whole roundtrip reports at n_max = 5, with 1 and 2 workers.
    # Each corruption touches one word per (n, k) slice with k >= 1, the
    # last in enumeration order, N^k E^k D^(n-k), so every slice's
    # image_set record follows its two round-trip records.

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=NEEDS_FORK)])
    def test_roundtrip_with_colliding_phi(self, monkeypatch, workers):
        def colliding_image(word):  # shares the image of D^(n-k) E^k N^k
            if _last_in_slice(word):
                k = word.count("E")
                d = len(word) - 2 * k
                return original_image("D" * d + "E" * k + "N" * k)
            return original_image(word)

        original_image = harness._image
        monkeypatch.setattr(harness, "_image", colliding_image)
        expected = {
            "check_name": "roundtrip",
            "n_range": [0, 5],
            "total_cases": 4168,
            "failure_count": 45,
            "failures": [
                _inverse(1, 1, "NE", "EN"),
                _forward(1, 1, [[0, 0], [1, 1], [2, 1]], [[0, 0], [1, 0], [2, 1]]),
                _image_set(1, 1, [[[1], [1]]], []),
                _inverse(2, 1, "NED", "DEN"),
                _forward(2, 1, [[0, 0], [1, 1], [3, 2]], [[0, 0], [2, 1], [3, 2]]),
                _image_set(2, 1, [[[1], [1]]], []),
                _inverse(2, 2, "NNEE", "EENN"),
                _forward(
                    2, 2, [[0, 0], [1, 2], [2, 2], [3, 2]], [[0, 0], [1, 0], [2, 0], [3, 2]]
                ),
                _image_set(2, 2, [[[1, 2], [2, 2]]], []),
                _inverse(3, 1, "NEDD", "DDEN"),
            ],
            "passed": False,
            "details": {},
        }
        report = self.report("roundtrip", 5, workers)
        assert _without_elapsed(report) == json.dumps(expected)

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=NEEDS_FORK)])
    def test_roundtrip_with_out_of_slice_phi(self, monkeypatch, workers):
        monkeypatch.setattr(harness, "_image", _drop_last_in_slice)
        expected = {
            "check_name": "roundtrip",
            "n_range": [0, 5],
            "total_cases": 4168,
            "failure_count": 45,
            "failures": [
                _inverse(1, 1, "NE", "D"),
                _forward(1, 1, [[0, 0], [1, 1], [2, 1]], [[0, 0], [2, 1]]),
                _image_set(1, 1, [[[1], [1]]], [[[], []]]),
                _inverse(2, 1, "NED", "DD"),
                _forward(2, 1, [[0, 0], [1, 1], [3, 2]], [[0, 0], [3, 2]]),
                _image_set(2, 1, [[[1], [1]]], [[[], []]]),
                _inverse(2, 2, "NNEE", "NDE"),
                _forward(2, 2, [[0, 0], [1, 2], [2, 2], [3, 2]], [[0, 0], [1, 2], [3, 2]]),
                _image_set(2, 2, [[[1, 2], [2, 2]]], [[[1], [2]]]),
                _inverse(3, 1, "NEDD", "DDD"),
            ],
            "passed": False,
            "details": {},
        }
        report = self.report("roundtrip", 5, workers)
        assert _without_elapsed(report) == json.dumps(expected)

    # The corrupted per-step runs below are whole per-step reports at n_max = 3.
    # Per-step reads each East end's height from the walk and each interior
    # vertex from the image, so corrupting either breaks the definition too.

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=NEEDS_FORK)])
    def test_per_step_with_mirrored_east_ends(self, monkeypatch, workers):
        def mirrored_walk(word):  # words ending in N see each East end as (y, x)
            ends, before_north, before_east = original_walk(word)
            if word.endswith("N"):
                ends = [(y, x) for x, y in ends]
            return ends, before_north, before_east

        original_walk = harness.walk_east_steps
        monkeypatch.setattr(harness, "walk_east_steps", mirrored_walk)
        expected = _per_step_report(
            110,
            [
                _image_mismatch(1, 1, "EN", 1, [1, 1], [1, 0]),
                _mismatch(1, 1, "EN", 1),
                _image_mismatch(2, 1, "DEN", 1, [2, 2], [2, 1]),
                _mismatch(2, 1, "DEN", 1),
                _image_mismatch(2, 1, "EDN", 1, [2, 1], [2, 0]),
                _mismatch(2, 1, "EDN", 1),
                _image_mismatch(2, 2, "EENN", 1, [1, 1], [1, 0]),
                _mismatch(2, 2, "EENN", 1),
                _image_mismatch(2, 2, "EENN", 2, [2, 2], [2, 0]),
                _mismatch(2, 2, "EENN", 2),
            ],
            PER_STEP_TALLIES,
        )
        report = self.report("per-step", 3, workers)
        assert _without_elapsed(report) == json.dumps(expected)

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=NEEDS_FORK)])
    def test_per_step_with_first_vertex_on_chord(self, monkeypatch, workers):
        def on_chord_image(word):  # words starting with E: first interior vertex (0, 0)
            image = original_image(word)
            if word.startswith("E"):
                return ((0, 0), (0, 0), *image[2:])
            return image

        original_image = harness._image
        monkeypatch.setattr(harness, "_image", on_chord_image)
        # each word's vertex (0, 0) is not its definition's (1 + D's before the
        # first N, 0), and it lies on the chord
        expected = _per_step_report(
            62,
            [
                _image_mismatch(1, 1, "EN", 1, [1, 0], [0, 0]),
                _on_diagonal(1, 1, "EN"),
                _image_mismatch(2, 1, "EDN", 1, [2, 0], [0, 0]),
                _on_diagonal(2, 1, "EDN"),
                _image_mismatch(2, 1, "END", 1, [1, 0], [0, 0]),
                _on_diagonal(2, 1, "END"),
                _image_mismatch(2, 2, "EENN", 1, [1, 0], [0, 0]),
                _on_diagonal(2, 2, "EENN"),
                _image_mismatch(2, 2, "ENEN", 1, [1, 0], [0, 0]),
                _on_diagonal(2, 2, "ENEN"),
            ],
            PER_STEP_TALLIES,
        )
        report = self.report("per-step", 3, workers)
        assert _without_elapsed(report) == json.dumps(expected)

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=NEEDS_FORK)])
    def test_per_step_with_every_case_equal(self, monkeypatch, workers):
        monkeypatch.setattr(harness, "classify_d_counts", lambda before_north, before_east: "equal")
        missing = ["more_before_east", "more_before_north"]
        expected = _per_step_report(
            2,
            [
                {"kind": "case_class_missing", "n": 2, "missing": missing},
                {"kind": "case_class_missing", "n": 3, "missing": missing},
            ],
            {
                "0": {"equal": 0, "more_before_east": 0, "more_before_north": 0},
                "1": {"equal": 2, "more_before_east": 0, "more_before_north": 0},
                "2": {"equal": 18, "more_before_east": 0, "more_before_north": 0},
                "3": {"equal": 132, "more_before_east": 0, "more_before_north": 0},
            },
        )
        report = self.report("per-step", 3, workers)
        assert _without_elapsed(report) == json.dumps(expected)


class TestGoldenFailureRecordsInAFusedRun(TestGoldenFailureRecords):
    """The corrupted goldens above, each check's report taken from one
    ``run_checks`` call of every check: no unit mixes records across checks."""

    @staticmethod
    def report(name, n_max, workers):
        (report,) = [
            r for r in run_checks(list(harness.CHECKS), n_max, workers) if r.check_name == name
        ]
        return report

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=NEEDS_FORK)])
    def test_roundtrip_with_bumped_phi(self, monkeypatch, workers):
        super().test_roundtrip_with_bumped_phi(monkeypatch, workers)

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=NEEDS_FORK)])
    def test_subdiagonal_with_forced_word_predicate(self, monkeypatch, workers):
        super().test_subdiagonal_with_forced_word_predicate(monkeypatch, workers)


class TestOnePassPerUnit:
    def test_each_family_is_enumerated_and_mapped_once(self, monkeypatch):
        names = ["_words_by_e", "_vertex_tuples", "_image", "walk_east_steps"]
        calls = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        run_checks(list(harness.CHECKS), n_max=3, workers=1)
        # 10 (n, k) units; 80 words mapped and walked once each, and no vertex
        # path mapped back, since each unit's word pass implies those roundtrips
        assert calls == {
            "_words_by_e": 10, "_vertex_tuples": 10, "_image": 80, "walk_east_steps": 80
        }

    def test_no_names_start_no_sweep(self, monkeypatch):
        monkeypatch.setattr(harness, "_words_by_e", _no_enumeration)
        assert run_checks([], n_max=3) == []

    def test_unknown_name_raises_before_any_unit_runs(self, monkeypatch):
        monkeypatch.setattr(harness, "_words_by_e", _no_enumeration)
        with pytest.raises(ValueError, match="unknown check 'bogus'"):
            run_checks(["counts", "bogus"], n_max=3)

    @pytest.mark.parametrize("name", list(harness.CHECKS))
    def test_repeated_name_gets_one_report_each(self, name):
        first, second = run_checks([name, name], n_max=3, workers=1)
        assert first is not second
        assert _without_elapsed(first) == _without_elapsed(second)
        assert _without_elapsed(first) == _without_elapsed(_report(name, 3, workers=1))

    # one worker is the golden verify test's [one-worker] and [each-check-alone]
    @pytest.mark.parametrize("workers", [2])
    def test_each_report_is_the_same_alone_and_fused(self, workers):
        fused = run_checks(list(harness.CHECKS), n_max=4, workers=workers)
        alone = [_report(name, 4, workers) for name in harness.CHECKS]
        assert [_without_elapsed(r) for r in alone] == [_without_elapsed(r) for r in fused]

    def test_every_report_of_one_call_carries_the_sweep_time(self):
        reports = run_checks(list(harness.CHECKS), n_max=2, workers=1)
        assert [r.check_name for r in reports] == list(harness.CHECKS)
        assert len({r.elapsed_ms for r in reports}) == 1


def _no_enumeration(n, k):
    raise AssertionError("a unit ran")


# the case tallies of the uncorrupted per-step report at n_max = 3
PER_STEP_TALLIES = {
    "0": {"equal": 0, "more_before_east": 0, "more_before_north": 0},
    "1": {"equal": 2, "more_before_east": 0, "more_before_north": 0},
    "2": {"equal": 16, "more_before_east": 1, "more_before_north": 1},
    "3": {"equal": 110, "more_before_east": 11, "more_before_north": 11},
}


def _per_step_report(failure_count, failures, tallies):
    return {
        "check_name": "per-step",
        "n_range": [0, 3],
        "total_cases": 154,
        "failure_count": failure_count,
        "failures": failures,
        "passed": False,
        "details": {"case_tallies": tallies},
    }


def _mismatch(n, k, word, east_index):
    return {
        "kind": "step_vertex_mismatch", "n": n, "k": k, "input_word": word,
        "east_index": east_index, "east_weakly_above": True, "vertex_strictly_above": False,
    }


def _image_mismatch(n, k, word, east_index, expected, actual):
    return {
        "kind": "image_vertex_mismatch", "n": n, "k": k, "input_word": word,
        "east_index": east_index, "expected": expected, "actual": actual,
    }


def _on_diagonal(n, k, word):
    return {
        "kind": "vertex_on_diagonal", "n": n, "k": k, "input_word": word,
        "east_index": 1, "interior_vertex": [0, 0],
    }


def _last_in_slice(word):
    k = word.count("E")
    return k >= 1 and word == "N" * k + "E" * k + "D" * (len(word) - 2 * k)


def _xy_key(vertices):
    return tuple(zip(*vertices[1:-1])) or ((), ())


def _image_set_by_key_sets(n, k):
    """The image_set record of unit (n, k) as set differences of key tuples."""
    images = sorted(_xy_key(harness._image(word)) for word in _words_by_e(n, k))
    slice_keys = [_xy_key(vertices) for vertices in _vertex_tuples(n + 1, n, k)]
    if images == slice_keys:
        return None
    return _image_set(
        n, k,
        sorted(set(slice_keys) - set(images))[:3],
        sorted(set(images) - set(slice_keys))[:3],
    )


def _collide_ne(word):  # words ending NE share the image of the word ending EN
    if word.endswith("NE"):
        return UNPATCHED_IMAGE(word[:-2] + "EN")
    return UNPATCHED_IMAGE(word)


def _drop_last_in_slice(word):  # each slice's last word loses its last interior vertex
    image = UNPATCHED_IMAGE(word)
    if _last_in_slice(word):
        return KimberlingPath(image[:-2] + image[-1:]).vertices
    return image


def _drop_after_n(word):  # words starting with N lose their last interior vertex
    image = UNPATCHED_IMAGE(word)
    if word.startswith("N") and len(image) > 2:
        return KimberlingPath(image[:-2] + image[-1:]).vertices
    return image


def _swap_ne(word):  # words ending NE and EN trade images: onto, but none maps back
    if word.endswith(("NE", "EN")):
        return UNPATCHED_IMAGE(word[:-2] + word[-1] + word[-2])
    return UNPATCHED_IMAGE(word)


def _first_for_last(word):  # DNE's image, the last of slice (2, 1), is sent to END's
    return UNPATCHED_IMAGE("END" if word == "DNE" else word)


UNPATCHED_IMAGE = harness._image
UNPATCHED_PREIMAGE = harness._preimage


class TestRankedImageCheck:
    @pytest.mark.parametrize("n", range(8))
    def test_rank_is_the_enumeration_index(self, n):
        for k in range(n + 1):
            ranks = harness._SliceRank(n, k)
            assert ranks.size == count_kimberling_by_vertices(n + 1, n, k)
            slice_ = enumerate_kimberling_by_vertices(n + 1, n, k)
            assert [ranks.rank(kpath.vertices) for kpath in slice_] == list(range(ranks.size))

    @given(st.data())
    def test_rank_order_is_the_interior_key_order(self, data):
        n = data.draw(st.integers(0, 30), label="n")
        k = data.draw(st.integers(0, n), label="k")
        ranks = harness._SliceRank(n, k)
        keyed = []
        for _ in range(2):
            xs = tuple(sorted(data.draw(st.permutations(range(1, n + 1)))[:k]))
            ys = tuple(sorted(data.draw(st.lists(st.integers(0, n), min_size=k, max_size=k))))
            rank = ranks.rank(KimberlingPath([(0, 0), *zip(xs, ys), (n + 1, n)]).vertices)
            assert 0 <= rank < ranks.size
            keyed.append(((xs, ys), rank))
        (key_a, rank_a), (key_b, rank_b) = keyed
        assert (key_a < key_b, key_a == key_b) == (rank_a < rank_b, rank_a == rank_b)

    @pytest.mark.parametrize(
        "vertices",
        [
            [(0, 0), (1, 1), (4, 3)],  # one interior vertex too few
            [(0, 0), (1, 0), (2, 1), (3, 1), (4, 3)],  # one too many
            [(0, 0), (1, 0), (2, 1), (4, 4)],  # endpoint of another order
            [(0, 0), (1, 0), (2, 1)],  # a shorter path to another endpoint
            [(0, 0)],
            # non-monotone, with table sums -10 and -8 that would index from the end
            [(0, 0), (1, 0), (1, 0), (4, 3)],
            [(0, 0), (1, 0), (1, 2), (4, 3)],
        ],
    )
    def test_paths_outside_the_slice_have_no_rank(self, vertices):
        assert harness._SliceRank(3, 2).rank(tuple(vertices)) is None

    def test_only_slice_members_have_a_rank(self):
        # all 144 sequences of table keys at (3, 2); before rank checked the
        # steps, 98 non-monotone ones such as ((0,0),(1,1),(2,0),(4,3)) had one
        ranks = harness._SliceRank(3, 2)
        candidates = itertools.product(*ranks._tables)
        ranked = {vertices for vertices in candidates if ranks.rank(vertices) is not None}
        assert ranked == {kpath.vertices for kpath in enumerate_kimberling_by_vertices(4, 3, 2)}

    def test_a_vertex_path_aliasing_a_rank_is_mapped_back(self, monkeypatch):
        # the word pass proves every slice member's roundtrip, so the vertex
        # pass skips a path whose rank is its index; a non-monotone path that
        # summed to a member's rank would have been skipped in its place
        alias = ((0, 0), (1, 1), (2, 0), (4, 3))

        def aliasing_enumerator(i, j, k):
            paths = list(_vertex_tuples(i, j, k))
            if (i, j, k) == (4, 3, 2):
                assert paths[3] == ((0, 0), (1, 0), (2, 3), (4, 3))
                paths[3] = alias
            return paths

        monkeypatch.setattr(harness, "_vertex_tuples", aliasing_enumerator)
        _, failures, _ = harness._unit(("roundtrip",), (3, 2))[0]
        assert failures.records == [
            _forward(3, 2, [[0, 0], [1, 1], [2, 0], [4, 3]], [[0, 0], [1, 0], [2, 1], [4, 3]]),
            {"kind": "vertex_order", "n": 3, "k": 2, "slice_size": 30, "enumerated": 30},
        ]

    def test_non_monotone_image_is_reported_not_aliased(self, monkeypatch):
        def repeating_image(word):  # EENND's first interior vertex (1, 0), twice
            image = UNPATCHED_IMAGE(word)
            if word == "EENND":
                first = image[1]
                return (image[0], first, first, image[3])
            return image

        monkeypatch.setattr(harness, "_image", repeating_image)
        report = _report("roundtrip", 4)
        assert not report.passed
        image_sets = [f for f in report.failures if f["kind"] == "image_set"]
        assert image_sets == [_image_set(3, 2, [((1, 2), (0, 0))], [((1, 1), (0, 0))])]

    @pytest.mark.parametrize("corrupted_phi", [_collide_ne, _drop_after_n])
    def test_image_set_records_match_key_set_differences(self, monkeypatch, corrupted_phi):
        monkeypatch.setattr(harness, "_image", corrupted_phi)
        monkeypatch.setattr(harness, "FAILURE_CAP", 10**6)
        recorded = 0
        for n in range(6):
            for k in range(n + 1):
                _, failures, _ = harness._unit(("roundtrip",), (n, k))[0]
                image_sets = [f for f in failures.records if f["kind"] == "image_set"]
                expected = _image_set_by_key_sets(n, k)
                assert image_sets == ([expected] if expected else [])
                recorded += len(image_sets)
        assert recorded >= 10

    def test_every_rank_hit_twice_fails_the_image_check(self, monkeypatch):
        # each word twice: no rank unhit and no image outside the slice, yet
        # the images are not the slice once each
        monkeypatch.setattr(harness, "_words_by_e", lambda n, k: list(_words_by_e(n, k)) * 2)
        _, failures, _ = harness._unit(("roundtrip",), (2, 1))[0]
        assert failures.records == [_image_set(2, 1, [], [])]

    @pytest.mark.parametrize(
        "corrupt, enumerated",
        [
            (lambda paths: reversed(list(paths)), 6),
            (lambda paths: list(paths)[:-1], 5),
            (lambda paths: list(paths) * 2, 12),
        ],
        ids=["reversed", "short", "twice"],
    )
    def test_vertex_enumerator_out_of_rank_order(self, monkeypatch, corrupt, enumerated):
        monkeypatch.setattr(
            harness, "_vertex_tuples", lambda i, j, k: corrupt(_vertex_tuples(i, j, k))
        )
        _, failures, _ = harness._unit(("roundtrip",), (2, 1))[0]
        assert failures.records == [
            {"kind": "vertex_order", "n": 2, "k": 1, "slice_size": 6, "enumerated": enumerated}
        ]

    @pytest.mark.parametrize(
        "corrupt, tail",
        [
            (
                lambda paths: list(paths)[:-1],
                [
                    {"kind": "vertex_order", "n": 2, "k": 1, "slice_size": 6, "enumerated": 5},
                    _image_set(2, 1, [], []),
                ],
            ),
            (
                lambda paths: reversed(list(paths)),
                [
                    {
                        "kind": "forward_roundtrip", "n": 2, "k": 1,
                        "input_vertices": [[0, 0], [2, 2], [3, 2]],
                        "expected": [[0, 0], [2, 2], [3, 2]],
                        "actual": [[0, 0], [1, 0], [3, 2]],
                    },
                    {"kind": "vertex_order", "n": 2, "k": 1, "slice_size": 6, "enumerated": 6},
                    _image_set(2, 1, [((2,), (2,))], []),
                ],
            ),
        ],
        ids=["short", "reversed"],
    )
    def test_missing_images_are_named_from_the_enumerated_slice(
        self, monkeypatch, corrupt, tail
    ):
        # DNE's image, the slice's last path, is sent to the first one; a short
        # enumerator never reaches the unhit path, so only vertex_order reports it
        def first_for_last(word):
            return UNPATCHED_IMAGE("END" if word == "DNE" else word)

        monkeypatch.setattr(harness, "_image", first_for_last)
        monkeypatch.setattr(
            harness, "_vertex_tuples", lambda i, j, k: corrupt(_vertex_tuples(i, j, k))
        )
        _, failures, _ = harness._unit(("roundtrip",), (2, 1))[0]
        assert failures.records == [
            {
                "kind": "inverse_roundtrip", "n": 2, "k": 1,
                "input_word": "DNE", "expected": "DNE", "actual": "END",
            },
            *tail,
        ]

    def test_a_failing_unit_skips_each_proved_roundtrip(self, monkeypatch):
        # END maps back, so its image is skipped although DNE, which shares
        # it, does not; only DNE's own image, which no word hit, is mapped
        # back, so phi maps the 6 words and 1 of the 6 vertex paths
        mapped = []

        def counted(word):
            mapped.append(word)
            return _first_for_last(word)

        monkeypatch.setattr(harness, "_image", counted)
        _, failures, _ = harness._unit(("roundtrip",), (2, 1))[0]
        assert len(mapped) == 7 and mapped[6] == "DNE"
        assert [record["kind"] for record in failures.records] == [
            "inverse_roundtrip", "forward_roundtrip", "image_set"
        ]

    @pytest.mark.parametrize(
        "corrupted_phi", [_collide_ne, _drop_after_n, _first_for_last, _swap_ne]
    )
    def test_every_skipped_vertex_path_passes_its_roundtrip(self, monkeypatch, corrupted_phi):
        # the corrupted phi itself, outside the harness, must send each vertex
        # path the unit did not map back through phi_inverse to the path again
        mapped = []

        def recording(word):
            mapped.append(word)
            return corrupted_phi(word)

        monkeypatch.setattr(harness, "_image", recording)
        monkeypatch.setattr(harness, "FAILURE_CAP", 10**6)
        skipped_in_failing_units = 0
        for n in range(6):
            for k in range(n + 1):
                mapped.clear()
                _, failures, _ = harness._unit(("roundtrip",), (n, k))[0]
                # phi_inverse is a bijection, so its word names the vertex path
                mapped_back = set(mapped[count_delannoy_by_e(n, k):])
                expected = []
                for kpath in enumerate_kimberling_by_vertices(n + 1, n, k):
                    word = phi_inverse(kpath).word
                    back = corrupted_phi(word)
                    if back != kpath.vertices:
                        vertices = [list(v) for v in kpath.vertices]
                        expected.append(_forward(n, k, vertices, [list(v) for v in back]))
                    if word not in mapped_back:
                        assert back == kpath.vertices, (n, k, word)
                        skipped_in_failing_units += failures.count > 0
                # every failing roundtrip is still recorded, in enumeration order
                forward = [r for r in failures.records if r["kind"] == "forward_roundtrip"]
                assert forward == expected
        assert skipped_in_failing_units > 0

    def test_unit_memory_is_under_64_bytes_per_path(self):
        unit = (6, 4)
        harness._unit(("roundtrip",), unit)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            cases, failures, _ = harness._unit(("roundtrip",), unit)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert failures.count == 0
        assert peak < 64 * (cases // 2)


class TestWorkerErrors:
    def test_failing_pool_worker_raises_instead_of_hanging(self):
        # BadEndpoint from _preimage inside a pool worker must reach the
        # caller; when it could not be unpickled, pool.map never returned
        script = """
import multiprocessing
from delannoy_kit import BadEndpoint, harness

def wrong_endpoint_image(word):
    image = harness_image(word)
    n = image[-1][1]
    return image[:-1] + ((n + 2, n),)

harness_image = harness._image
harness._image = wrong_endpoint_image
multiprocessing.set_start_method("fork")
try:
    harness.run_checks(["roundtrip"], 5, workers=2)
except BadEndpoint as exc:
    print(type(exc).__name__, exc.x == exc.y + 2)
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout) == (0, "BadEndpoint True\n"), done.stderr


class TestWorkerResolution:
    def test_default_single(self, monkeypatch):
        monkeypatch.delenv(harness.ENV_THREADS, raising=False)
        assert resolve_workers() == 1

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv(harness.ENV_THREADS, "0")
        assert resolve_workers() >= 1

    def test_env_explicit(self, monkeypatch):
        monkeypatch.setenv(harness.ENV_THREADS, "3")
        assert resolve_workers() == 3

    def test_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv(harness.ENV_THREADS, "7")
        assert resolve_workers(2) == 2

    @pytest.mark.parametrize(
        "requested,cpus,n_max,processes",
        [
            ("100000", 64, 2, 6),  # capped by the 6 (n, k) units
            ("100000", 4, 2, 4),  # capped by the CPUs
            ("3", 64, 2, 3),  # the request itself
            ("0", 5, 3, 5),  # one per CPU: n_max = 3 has 10 units
        ],
    )
    def test_pool_size_is_capped(self, monkeypatch, requested, cpus, n_max, processes):
        started = []

        class SerialPool:  # records the pool size, starts no process
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items, chunksize=1):
                return [fn(item) for item in items]

        monkeypatch.setattr(harness.multiprocessing, "Pool", SerialPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv(harness.ENV_THREADS, requested)
        report = _report("counts", n_max)
        assert started == [processes]
        serial = _report("counts", n_max, workers=1)
        assert _without_elapsed(report) == _without_elapsed(serial)

    def test_single_worker_or_unit_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(harness.multiprocessing, "Pool", no_pool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.setenv(harness.ENV_THREADS, "100000")
        assert _report("counts", 0).passed  # one unit
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert _report("counts", 3).passed  # unknown CPU count: one worker

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv(harness.ENV_THREADS, "many")
        with pytest.raises(ValueError):
            resolve_workers()
        with pytest.raises(ValueError):
            resolve_workers(-1)
