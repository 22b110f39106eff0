import json

import pytest

from delannoy_kit import (
    count_delannoy,
    count_delannoy_by_e,
    make_kimberling,
    verify_counts,
    verify_per_step,
    verify_roundtrip,
    verify_subdiagonal,
)
from delannoy_kit import harness
from delannoy_kit.geometry import CASE_LABELS
from delannoy_kit.harness import FAILURE_CAP, resolve_workers, run_checks


class TestVerifyRoundtrip:
    def test_order_one(self):
        report = verify_roundtrip(1)
        assert report.passed
        # 1 + 1 cases at n=0 plus the 3 + 3 top-size cases at n=1
        assert report.total_cases == 8
        assert report.n_range == (0, 1)
        assert report.failures == []

    def test_order_zero(self):
        report = verify_roundtrip(0)
        assert report.passed
        assert report.total_cases == 2

    def test_total_cases_closed_form(self):
        report = verify_roundtrip(4)
        assert report.total_cases == 2 * sum(count_delannoy(n) for n in range(5))
        assert report.passed


class TestVerifyCounts:
    def test_order_zero_single_cell(self):
        report = verify_counts(0)
        assert report.passed
        assert report.total_cases == 1

    def test_cell_count_closed_form(self):
        report = verify_counts(5)
        assert report.passed
        assert report.total_cases == sum(n + 1 for n in range(6))


class TestVerifySubdiagonal:
    def test_small_sweep(self):
        report = verify_subdiagonal(3)
        assert report.passed
        assert report.total_cases == sum(count_delannoy(n) + 2 for n in range(4))
        row = report.details["schroder"]
        assert row["3"] == {"oracle": 22, "delannoy": 22, "kimberling": 22}

    def test_order_zero(self):
        report = verify_subdiagonal(0)
        assert report.passed
        assert report.details["schroder"]["0"]["oracle"] == 1


class TestVerifyPerStep:
    def test_small_sweep(self):
        report = verify_per_step(3)
        assert report.passed
        east_indices = sum(
            k * count_delannoy_by_e(n, k) for n in range(4) for k in range(n + 1)
        )
        coverage_cases = 2  # one per n in 2..3
        assert report.total_cases == east_indices + coverage_cases

    def test_all_case_classes_reported(self):
        report = verify_per_step(3)
        for n in (2, 3):
            tally = report.details["case_tallies"][str(n)]
            assert set(tally) == set(CASE_LABELS)
            assert all(value > 0 for value in tally.values())

    def test_order_one_has_single_class(self):
        # no D can separate the only N/E pair at order 1
        report = verify_per_step(1)
        assert report.passed
        tally = report.details["case_tallies"]["1"]
        assert tally["more_before_east"] == 0
        assert tally["more_before_north"] == 0


class TestReportMechanics:
    def test_reports_deterministic(self):
        first = verify_roundtrip(3)
        second = verify_roundtrip(3)
        assert first.to_json_dict() | {"elapsed_ms": 0} == second.to_json_dict() | {
            "elapsed_ms": 0
        }

    def test_parallel_matches_serial(self):
        serial = verify_subdiagonal(4, workers=1)
        parallel = verify_subdiagonal(4, workers=2)
        assert serial.total_cases == parallel.total_cases
        assert serial.failure_count == parallel.failure_count
        assert serial.failures == parallel.failures
        assert serial.details == parallel.details

    def test_json_dict_shape(self):
        report = verify_counts(2)
        payload = report.to_json_dict()
        assert set(payload) == {
            "check_name", "n_range", "total_cases", "failure_count",
            "failures", "elapsed_ms", "passed", "details",
        }
        json.dumps(payload)

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
                    return make_kimberling(bumped)
                except Exception:
                    return image
            return image

        harness_phi = harness.phi
        monkeypatch.setattr(harness, "phi", corrupted_phi)
        report = verify_roundtrip(3, workers=1)
        assert not report.passed
        assert report.failure_count > FAILURE_CAP
        assert len(report.failures) == FAILURE_CAP
        kinds = {f["kind"] for f in report.failures}
        assert kinds & {"inverse_roundtrip", "forward_roundtrip", "image_set"}

    def test_failures_never_abort_sweep(self, monkeypatch):
        monkeypatch.setattr(harness, "is_subdiagonal_delannoy", lambda path: True)
        report = verify_subdiagonal(2, workers=1)
        assert not report.passed
        # the sweep still produced the full case count and the Schroder table
        assert report.total_cases == sum(count_delannoy(n) + 2 for n in range(3))
        assert report.details["schroder"]["2"]["kimberling"] == 6


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


def _transport(n, k, word):
    return {
        "kind": "subdiagonal_transport", "n": n, "k": k, "input_word": word,
        "delannoy_subdiagonal": True, "kimberling_subdiagonal": False,
    }


class TestGoldenFailureRecords:
    """Whole reports of corrupted sweeps, minus ``elapsed_ms``, byte for byte.

    Recorded before the four checks shared one driver: they pin key order,
    record order across units and summaries, the cap and the exact count.
    """

    def test_roundtrip_with_bumped_phi(self, monkeypatch):
        def bumped_phi(path):  # the corruption of TestFailureRecording
            image = original_phi(path)
            if len(image.vertices) > 2:
                x, y = image.vertices[1]
                bumped = ((0, 0), (x, max(0, y - 1))) + image.vertices[2:]
                try:
                    return make_kimberling(bumped)
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
        assert _without_elapsed(verify_roundtrip(3, workers=1)) == json.dumps(expected)

    def test_subdiagonal_with_forced_word_predicate(self, monkeypatch):
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
        assert _without_elapsed(verify_subdiagonal(2, workers=1)) == json.dumps(expected)


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
            ("0", 5, 8, 5),  # one per CPU
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
        report = verify_counts(n_max)
        assert started == [processes]
        assert _without_elapsed(report) == _without_elapsed(verify_counts(n_max, workers=1))

    def test_single_worker_or_unit_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(harness.multiprocessing, "Pool", no_pool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.setenv(harness.ENV_THREADS, "100000")
        assert verify_counts(0).passed  # one unit
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert verify_counts(3).passed  # unknown CPU count: one worker

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv(harness.ENV_THREADS, "many")
        with pytest.raises(ValueError):
            resolve_workers()
        with pytest.raises(ValueError):
            resolve_workers(-1)
