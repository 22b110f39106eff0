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
    DelannoyPath,
    KimberlingPath,
    count_delannoy,
    count_delannoy_by_e,
    count_kimberling_by_vertices,
    enumerate_delannoy_by_e,
    enumerate_kimberling_by_vertices,
)
from delannoy_kit import cli, harness
from delannoy_kit.geometry import CASE_LABELS
from delannoy_kit.harness import FAILURE_CAP, resolve_workers, run_checks
from delannoy_kit.lattice_core import _unchecked_vertices


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


class TestReportMechanics:
    def test_reports_deterministic(self):
        first = _report("roundtrip", 3)
        second = _report("roundtrip", 3)
        assert first.to_json_dict() | {"elapsed_ms": 0} == second.to_json_dict() | {
            "elapsed_ms": 0
        }

    def test_parallel_matches_serial(self):
        serial = _report("subdiagonal", 4, workers=1)
        parallel = _report("subdiagonal", 4, workers=2)
        assert serial.total_cases == parallel.total_cases
        assert serial.failure_count == parallel.failure_count
        assert serial.failures == parallel.failures
        assert serial.details == parallel.details

    def test_json_dict_shape(self):
        report = _report("counts", 2)
        payload = report.to_json_dict()
        assert set(payload) == {
            "check_name", "n_range", "total_cases", "failure_count",
            "failures", "elapsed_ms", "passed", "details",
        }
        json.dumps(payload)

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

    def test_run_checks_unknown_name(self):
        with pytest.raises(ValueError):
            run_checks(["bogus"], n_max=1)


class TestFailureRecording:
    def test_corrupted_forward_map_is_caught_and_capped(self, monkeypatch):
        def corrupted_phi(path):
            image = harness_phi(path)
            if len(image.vertices) > 2:
                x, y = image.vertices[1]
                bumped = ((0, 0), (x, max(0, y - 1))) + image.vertices[2:]
                try:
                    return KimberlingPath(bumped)
                except Exception:
                    return image
            return image

        harness_phi = harness.phi
        monkeypatch.setattr(harness, "phi", corrupted_phi)
        report = _report("roundtrip", 3, workers=1)
        assert not report.passed
        assert report.failure_count > FAILURE_CAP
        assert len(report.failures) == FAILURE_CAP
        kinds = {f["kind"] for f in report.failures}
        assert kinds & {"inverse_roundtrip", "forward_roundtrip", "image_set"}

    def test_failures_never_abort_sweep(self, monkeypatch):
        monkeypatch.setattr(harness, "is_subdiagonal_delannoy", lambda path: True)
        report = _report("subdiagonal", 2, workers=1)
        assert not report.passed
        # the sweep still produced the full case count and the Schroder table
        assert report.total_cases == sum(count_delannoy(n) + 2 for n in range(3))
        assert report.details["schroder"]["2"]["kimberling"] == 6


# a pool worker sees a monkeypatched harness global only if it was forked
NEEDS_FORK = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers started without fork do not inherit the patched phi",
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
        def bumped_phi(path):  # the corruption of TestFailureRecording
            image = original_phi(path)
            if len(image.vertices) > 2:
                x, y = image.vertices[1]
                bumped = ((0, 0), (x, max(0, y - 1))) + image.vertices[2:]
                try:
                    return KimberlingPath(bumped)
                except Exception:
                    return image
            return image

        original_phi = harness.phi
        monkeypatch.setattr(harness, "phi", bumped_phi)
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
        monkeypatch.setattr(harness, "is_subdiagonal_delannoy", lambda path: True)
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
        monkeypatch.setattr(harness, "is_subdiagonal_delannoy", lambda path: True)
        monkeypatch.setattr(harness, "is_subdiagonal_kimberling", lambda kpath: True)
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
        def colliding_phi(path):  # shares the image of D^(n-k) E^k N^k
            if _last_in_slice(path.word):
                k = path.word.count("E")
                d = len(path.word) - 2 * k
                return original_phi(DelannoyPath("D" * d + "E" * k + "N" * k))
            return original_phi(path)

        original_phi = harness.phi
        monkeypatch.setattr(harness, "phi", colliding_phi)
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
        def dropping_phi(path):  # drops the last interior vertex
            image = original_phi(path)
            if _last_in_slice(path.word):
                return KimberlingPath(image.vertices[:-2] + image.vertices[-1:])
            return image

        original_phi = harness.phi
        monkeypatch.setattr(harness, "phi", dropping_phi)
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

    # The corrupted per-step runs below are whole per-step reports at n_max = 3,
    # recorded while step_labels still returned a dataclass; of the patches,
    # only on_chord_labels depends on step_labels' return shape.

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
            55,
            [
                _mismatch(1, 1, "EN", 1),
                _mismatch(2, 1, "DEN", 1),
                _mismatch(2, 1, "EDN", 1),
                _mismatch(2, 2, "EENN", 1),
                _mismatch(2, 2, "EENN", 2),
                _mismatch(2, 2, "ENEN", 1),
                _mismatch(2, 2, "ENEN", 2),
                _mismatch(2, 2, "NEEN", 2),
                _mismatch(3, 1, "DDEN", 1),
                _mismatch(3, 1, "DEDN", 1),
            ],
            PER_STEP_TALLIES,
        )
        report = self.report("per-step", 3, workers)
        assert _without_elapsed(report) == json.dumps(expected)

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=NEEDS_FORK)])
    def test_per_step_with_first_vertex_on_chord(self, monkeypatch, workers):
        def on_chord_labels(path):  # words starting with E: first interior vertex (0, 0)
            north, east, diagonal = original_labels(path)
            if path.word.startswith("E"):
                return [0, *north[1:]], [0, *east[1:]], diagonal
            return north, east, diagonal

        original_labels = harness.step_labels
        monkeypatch.setattr(harness, "step_labels", on_chord_labels)
        expected = _per_step_report(
            31,
            [
                _on_diagonal(1, 1, "EN"),
                _on_diagonal(2, 1, "EDN"),
                _on_diagonal(2, 1, "END"),
                _on_diagonal(2, 2, "EENN"),
                _on_diagonal(2, 2, "ENEN"),
                _on_diagonal(2, 2, "ENNE"),
                _on_diagonal(3, 1, "EDDN"),
                _on_diagonal(3, 1, "EDND"),
                _on_diagonal(3, 1, "ENDD"),
                _on_diagonal(3, 2, "EDENN"),
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
        names = ["enumerate_delannoy_by_e", "enumerate_kimberling_by_vertices", "phi"]
        calls = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        run_checks(list(harness.CHECKS), n_max=3, workers=1)
        # 10 (n, k) units; 80 words mapped once each, and no vertex path
        # mapped back, since each unit's word pass implies those roundtrips
        assert calls == {
            "enumerate_delannoy_by_e": 10,
            "enumerate_kimberling_by_vertices": 10,
            "phi": 80,
        }

    def test_no_names_start_no_sweep(self, monkeypatch):
        monkeypatch.setattr(harness, "enumerate_delannoy_by_e", _no_enumeration)
        assert run_checks([], n_max=3) == []

    def test_unknown_name_raises_before_any_unit_runs(self, monkeypatch):
        monkeypatch.setattr(harness, "enumerate_delannoy_by_e", _no_enumeration)
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


def _on_diagonal(n, k, word):
    return {
        "kind": "vertex_on_diagonal", "n": n, "k": k, "input_word": word,
        "east_index": 1, "interior_vertex": [0, 0],
    }


def _last_in_slice(word):
    k = word.count("E")
    return k >= 1 and word == "N" * k + "E" * k + "D" * (len(word) - 2 * k)


def _xy_key(kpath):
    return tuple(zip(*kpath.interior)) or ((), ())


def _image_set_by_key_sets(n, k):
    """The image_set record of unit (n, k) as set differences of key tuples."""
    images = sorted(_xy_key(harness.phi(path)) for path in enumerate_delannoy_by_e(n, k))
    slice_keys = [_xy_key(kpath) for kpath in enumerate_kimberling_by_vertices(n + 1, n, k)]
    if images == slice_keys:
        return None
    return _image_set(
        n, k,
        sorted(set(slice_keys) - set(images))[:3],
        sorted(set(images) - set(slice_keys))[:3],
    )


def _collide_ne(path):  # words ending NE share the image of the word ending EN
    if path.word.endswith("NE"):
        return UNPATCHED_PHI(DelannoyPath(path.word[:-2] + "EN"))
    return UNPATCHED_PHI(path)


def _drop_after_n(path):  # words starting with N lose their last interior vertex
    image = UNPATCHED_PHI(path)
    if path.word.startswith("N") and len(image.vertices) > 2:
        return KimberlingPath(image.vertices[:-2] + image.vertices[-1:])
    return image


UNPATCHED_PHI = harness.phi


class TestRankedImageCheck:
    @pytest.mark.parametrize("n", range(8))
    def test_rank_is_the_enumeration_index(self, n):
        for k in range(n + 1):
            ranks = harness._SliceRank(n, k)
            assert ranks.size == count_kimberling_by_vertices(n + 1, n, k)
            slice_ = enumerate_kimberling_by_vertices(n + 1, n, k)
            assert [ranks.rank(kpath) for kpath in slice_] == list(range(ranks.size))

    @given(st.data())
    def test_rank_order_is_the_interior_key_order(self, data):
        n = data.draw(st.integers(0, 30), label="n")
        k = data.draw(st.integers(0, n), label="k")
        ranks = harness._SliceRank(n, k)
        keyed = []
        for _ in range(2):
            xs = tuple(sorted(data.draw(st.permutations(range(1, n + 1)))[:k]))
            ys = tuple(sorted(data.draw(st.lists(st.integers(0, n), min_size=k, max_size=k))))
            rank = ranks.rank(KimberlingPath([(0, 0), *zip(xs, ys), (n + 1, n)]))
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
        assert harness._SliceRank(3, 2).rank(_unchecked_vertices(tuple(vertices))) is None

    def test_only_slice_members_have_a_rank(self):
        # all 144 sequences of table keys at (3, 2); before rank checked the
        # steps, 98 non-monotone ones such as ((0,0),(1,1),(2,0),(4,3)) had one
        ranks = harness._SliceRank(3, 2)
        candidates = map(_unchecked_vertices, itertools.product(*ranks._tables))
        ranked = {kpath for kpath in candidates if ranks.rank(kpath) is not None}
        assert ranked == set(enumerate_kimberling_by_vertices(4, 3, 2))

    def test_a_vertex_path_aliasing_a_rank_is_mapped_back(self, monkeypatch):
        # the word pass proves every slice member's roundtrip, so the vertex
        # pass skips a path whose rank is its index; a non-monotone path that
        # summed to a member's rank would have been skipped in its place
        alias = ((0, 0), (1, 1), (2, 0), (4, 3))

        def aliasing_enumerator(i, j, k):
            paths = list(enumerate_kimberling_by_vertices(i, j, k))
            if (i, j, k) == (4, 3, 2):
                assert paths[3].vertices == ((0, 0), (1, 0), (2, 3), (4, 3))
                paths[3] = _unchecked_vertices(alias)
            return paths

        monkeypatch.setattr(harness, "enumerate_kimberling_by_vertices", aliasing_enumerator)
        _, failures, _ = harness._unit(("roundtrip",), (3, 2))[0]
        assert failures.records == [
            _forward(3, 2, [[0, 0], [1, 1], [2, 0], [4, 3]], [[0, 0], [1, 0], [2, 1], [4, 3]]),
            {"kind": "vertex_order", "n": 3, "k": 2, "slice_size": 30, "enumerated": 30},
        ]

    def test_non_monotone_image_is_reported_not_aliased(self, monkeypatch):
        def repeating_phi(path):  # EENND's first interior vertex (1, 0), twice
            image = UNPATCHED_PHI(path)
            if path.word == "EENND":
                first = image.vertices[1]
                return _unchecked_vertices((image.vertices[0], first, first, image.vertices[3]))
            return image

        monkeypatch.setattr(harness, "phi", repeating_phi)
        report = _report("roundtrip", 4)
        assert not report.passed
        image_sets = [f for f in report.failures if f["kind"] == "image_set"]
        assert image_sets == [_image_set(3, 2, [((1, 2), (0, 0))], [((1, 1), (0, 0))])]

    @pytest.mark.parametrize("corrupted_phi", [_collide_ne, _drop_after_n])
    def test_image_set_records_match_key_set_differences(self, monkeypatch, corrupted_phi):
        monkeypatch.setattr(harness, "phi", corrupted_phi)
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
        monkeypatch.setattr(
            harness,
            "enumerate_delannoy_by_e",
            lambda n, k: list(enumerate_delannoy_by_e(n, k)) * 2,
        )
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
            harness,
            "enumerate_kimberling_by_vertices",
            lambda i, j, k: corrupt(enumerate_kimberling_by_vertices(i, j, k)),
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
        def first_for_last(path):
            return UNPATCHED_PHI(DelannoyPath("END" if path.word == "DNE" else path.word))

        monkeypatch.setattr(harness, "phi", first_for_last)
        monkeypatch.setattr(
            harness,
            "enumerate_kimberling_by_vertices",
            lambda i, j, k: corrupt(enumerate_kimberling_by_vertices(i, j, k)),
        )
        _, failures, _ = harness._unit(("roundtrip",), (2, 1))[0]
        assert failures.records == [
            {
                "kind": "inverse_roundtrip", "n": 2, "k": 1,
                "input_word": "DNE", "expected": "DNE", "actual": "END",
            },
            *tail,
        ]

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
        # BadEndpoint from phi_inverse inside a pool worker must reach the
        # caller; when it could not be unpickled, pool.map never returned
        script = """
import multiprocessing
from delannoy_kit import BadEndpoint, KimberlingPath, harness

def wrong_endpoint_phi(path):
    image = harness_phi(path)
    n = image.endpoint[1]
    return KimberlingPath(image.vertices[:-1] + ((n + 2, n),))

harness_phi = harness.phi
harness.phi = wrong_endpoint_phi
multiprocessing.set_start_method("fork")
try:
    harness.run_checks(["roundtrip"], 5, workers=2)
except BadEndpoint as exc:
    print(type(exc).__name__, exc.x == exc.y + 2)
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = [src] + [os.environ["PYTHONPATH"]] * ("PYTHONPATH" in os.environ)
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
