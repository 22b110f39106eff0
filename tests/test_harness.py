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
    count_delannoy,
    count_delannoy_by_e,
    count_kimberling_by_vertices,
    enumerate_delannoy_by_e,
    enumerate_kimberling_by_vertices,
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


    # The corrupted runs below were recorded before the image check ranked
    # the images: whole reports of verify_roundtrip(5), with 1 and 2 workers.
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
        report = verify_roundtrip(5, workers=workers)
        assert _without_elapsed(report) == json.dumps(expected)

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=NEEDS_FORK)])
    def test_roundtrip_with_out_of_slice_phi(self, monkeypatch, workers):
        def dropping_phi(path):  # drops the last interior vertex
            image = original_phi(path)
            if _last_in_slice(path.word):
                return make_kimberling(image.vertices[:-2] + image.vertices[-1:])
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
        report = verify_roundtrip(5, workers=workers)
        assert _without_elapsed(report) == json.dumps(expected)


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
        return make_kimberling(image.vertices[:-2] + image.vertices[-1:])
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
    def test_unrank_after_rank_is_the_identity(self, data):
        n = data.draw(st.integers(0, 30), label="n")
        k = data.draw(st.integers(0, n), label="k")
        xs = sorted(data.draw(st.permutations(range(1, n + 1)))[:k])
        ys = sorted(data.draw(st.lists(st.integers(0, n), min_size=k, max_size=k)))
        ranks = harness._SliceRank(n, k)
        rank = ranks.rank(make_kimberling([(0, 0), *zip(xs, ys), (n + 1, n)]))
        assert 0 <= rank < ranks.size
        assert ranks.key(rank) == (tuple(xs), tuple(ys))
        other = data.draw(st.integers(0, ranks.size - 1), label="other")
        other_xs, other_ys = ranks.key(other)
        path = make_kimberling([(0, 0), *zip(other_xs, other_ys), (n + 1, n)])
        assert ranks.rank(path) == other

    @pytest.mark.parametrize(
        "vertices",
        [
            [(0, 0), (1, 1), (4, 3)],  # one interior vertex too few
            [(0, 0), (1, 0), (2, 1), (3, 1), (4, 3)],  # one too many
            [(0, 0), (1, 0), (2, 1), (4, 4)],  # endpoint of another order
            [(0, 0), (1, 0), (2, 1)],  # a shorter path to another endpoint
            [(0, 0)],
        ],
    )
    def test_paths_outside_the_slice_have_no_rank(self, vertices):
        assert harness._SliceRank(3, 2).rank(make_kimberling(vertices)) is None

    @pytest.mark.parametrize("corrupted_phi", [_collide_ne, _drop_after_n])
    def test_image_set_records_match_key_set_differences(self, monkeypatch, corrupted_phi):
        monkeypatch.setattr(harness, "phi", corrupted_phi)
        monkeypatch.setattr(harness, "FAILURE_CAP", 10**6)
        recorded = 0
        for n in range(6):
            for k in range(n + 1):
                _, failures, _ = harness._roundtrip_unit((n, k))
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
        _, failures, _ = harness._roundtrip_unit((2, 1))
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
        _, failures, _ = harness._roundtrip_unit((2, 1))
        assert failures.records == [
            {"kind": "vertex_order", "n": 2, "k": 1, "slice_size": 6, "enumerated": enumerated}
        ]

    def test_unit_memory_is_under_64_bytes_per_path(self):
        unit = (6, 4)
        harness._roundtrip_unit(unit)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            cases, failures, _ = harness._roundtrip_unit(unit)
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
from delannoy_kit import BadEndpoint, harness, make_kimberling

def wrong_endpoint_phi(path):
    image = harness_phi(path)
    n = image.endpoint[1]
    return make_kimberling(image.vertices[:-1] + ((n + 2, n),))

harness_phi = harness.phi
harness.phi = wrong_endpoint_phi
multiprocessing.set_start_method("fork")
try:
    harness.verify_roundtrip(5, workers=2)
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
