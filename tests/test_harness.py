import itertools
import json
import multiprocessing
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from delannoy_kit import (
    count_delannoy,
    count_delannoy_by_e,
    count_kimberling_by_vertices,
    enumerate_kimberling_by_vertices,
    phi_inverse,
)
from delannoy_kit import cli, harness
from delannoy_kit.bijection import _image
from delannoy_kit.counting import _vertex_columns, _words_by_e
from delannoy_kit.geometry import CASE_LABELS
from delannoy_kit.harness import resolve_workers, run_checks
from delannoy_kit.lattice_core import _columns
from test_mutants import MUTANTS, _drop_last, _edited_image, _forward, _image_set
from test_mutants import _inverse, _patch, _vertex_columns_via, _without_elapsed


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
        # the bumped-delannoy-formula mutant fails one counts cell
        (bumped,) = [mutant for mutant in MUTANTS if mutant.id == "bumped-delannoy-formula"]
        _patch(monkeypatch, bumped)
        monkeypatch.delenv(harness.ENV_THREADS, raising=False)
        assert cli.run(["verify", "--check", "counts", "--n-max", "2"]) == 1
        assert capsys.readouterr().out.startswith("FAIL counts:")


class TestOnePassPerUnit:
    def test_each_family_is_enumerated_and_mapped_once(self, monkeypatch):
        names = ["_words_by_e", "_vertex_columns", "_image", "walk_east_steps"]
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
            "_words_by_e": 10, "_vertex_columns": 10, "_image": 80, "walk_east_steps": 80
        }

    @pytest.mark.parametrize("name", list(harness.CHECKS))
    def test_one_vertex_pass_per_unit(self, monkeypatch, name):
        calls = []

        def counted(i, j, k):
            calls.append((i - 1, k))
            return _vertex_columns(i, j, k)

        monkeypatch.setattr(harness, "_vertex_columns", counted)
        run_checks([name], n_max=3, workers=1)
        units = [(n, k) for n in range(4) for k in range(n + 1)]
        assert calls == ([] if name == "per-step" else units)

    def test_each_x_set_is_ranked_once_per_run(self, monkeypatch):
        # a lone roundtrip ranks each word's image, then each of the C(n, k)
        # x-sets of the vertex pass once, not once per vertex path; runs are
        # told apart by value, so a new but equal x-set object continues its run
        calls = []
        x_part = harness._SliceRank.x_part

        def counted(ranks, xs, height):
            calls.append(xs)
            return x_part(ranks, xs, height)

        fresh_x_sets = _vertex_columns_via(lambda c: [(tuple(list(xs)), ys) for xs, ys in c])
        monkeypatch.setattr(harness._SliceRank, "x_part", counted)
        monkeypatch.setattr(harness, "_vertex_columns", fresh_x_sets)
        (report,) = run_checks(["roundtrip"], n_max=4, workers=1)
        assert report.passed
        words = sum(count_delannoy(n) for n in range(5))  # as many as vertex paths
        x_sets = sum(2**n for n in range(5))  # sum over k of C(n, k)
        assert (len(calls), words, x_sets) == (words + x_sets, 401, 31)

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


def _vertices(xs, ys, height):
    """The vertex tuple of the path to (height + 1, height) with these interior columns."""
    return ((0, 0), *zip(xs, ys), (height + 1, height))


def _rank(ranks, vertices):
    """The rank of a vertex tuple, read as its interior columns and its height."""
    xs, ys = _columns(vertices)
    return ranks.rank(ranks.x_part(xs, vertices[-1][1]), ys)


def _image_set_by_key_sets(n, k):
    """The image_set record of unit (n, k) as set differences of key tuples."""
    images = sorted(
        (tuple(xs), tuple(ys)) for xs, ys, _ in map(harness._image, _words_by_e(n, k))
    )
    slice_keys = list(_vertex_columns(n + 1, n, k))
    if images == slice_keys:
        return None
    return _image_set(
        n, k,
        sorted(set(slice_keys) - set(images))[:3],
        sorted(set(images) - set(slice_keys))[:3],
    )


def _collide_ne(word):  # words ending NE share the image of the word ending EN
    return _image(word[:-2] + "EN" if word.endswith("NE") else word)


def _drop_after_n(word):  # words starting with N lose their last interior vertex
    return _drop_last(*_image(word)) if word.startswith("N") else _image(word)


def _swap_ne(word):  # words ending NE and EN trade images: onto, but none maps back
    return _image(word[:-2] + word[:-3:-1] if word.endswith(("NE", "EN")) else word)


def _first_for_last(word):  # DNE's image, the last of slice (2, 1), is sent to END's
    return _image("END" if word == "DNE" else word)


class TestRankedImageCheck:
    @pytest.mark.parametrize("n", range(8))
    def test_rank_is_the_enumeration_index(self, n):
        for k in range(n + 1):
            ranks = harness._SliceRank(n, k)
            assert ranks.size == count_kimberling_by_vertices(n + 1, n, k)
            slice_ = enumerate_kimberling_by_vertices(n + 1, n, k)
            assert [_rank(ranks, kpath.vertices) for kpath in slice_] == list(range(ranks.size))

    @given(st.data())
    def test_rank_order_is_the_interior_key_order(self, data):
        n = data.draw(st.integers(0, 30), label="n")
        k = data.draw(st.integers(0, n), label="k")
        ranks = harness._SliceRank(n, k)
        keyed = []
        for _ in range(2):
            xs = tuple(sorted(data.draw(st.permutations(range(1, n + 1)))[:k]))
            ys = tuple(sorted(data.draw(st.lists(st.integers(0, n), min_size=k, max_size=k))))
            rank = ranks.rank(ranks.x_part(xs, n), ys)
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
            # x's that do not rise strictly
            [(0, 0), (1, 0), (1, 0), (4, 3)],
            [(0, 0), (1, 0), (1, 2), (4, 3)],
        ],
    )
    def test_paths_outside_the_slice_have_no_rank(self, vertices):
        assert _rank(harness._SliceRank(3, 2), tuple(vertices)) is None

    def test_only_slice_members_have_a_rank(self):
        # every k = 2 pair of x's in 0..4 and of y's in -1..4 at (3, 2): only the
        # slice's 30 columns have a rank, and each a different one
        ranks = harness._SliceRank(3, 2)
        ranked = {}
        for xs in itertools.product(range(5), repeat=2):
            x_part = ranks.x_part(xs, 3)
            for ys in itertools.product(range(-1, 5), repeat=2):
                rank = ranks.rank(x_part, ys)
                if rank is not None:
                    ranked[xs, ys] = rank
        assert list(ranked) == list(_vertex_columns(4, 3, 2))
        assert list(ranked.values()) == list(range(ranks.size))

    def test_non_monotone_y_multiset_has_no_rank(self):
        # the x's (1, 2) and the y's (1, 0) sum to rank 3 in the (3, 2) slice,
        # that of the member (1, 2), (0, 3): only the y part's step test stops them
        ranks = harness._SliceRank(3, 2)
        x_part = ranks.x_part((1, 2), 3)
        terms = sum(table[y] for table, y in zip(ranks._y_tables, (1, 0)))
        assert x_part + ranks._y_base + terms == 3 == ranks.rank(x_part, (0, 3))
        assert ranks.rank(x_part, (1, 0)) is None

    def test_an_image_of_another_height_has_no_rank(self):
        ranks = harness._SliceRank(3, 2)
        assert ranks.x_part((1, 2), 3) is not None
        assert ranks.x_part((1, 2), 2) is None
        assert ranks.x_part((1, 2), 4) is None

    def test_a_vertex_path_aliasing_a_rank_is_mapped_back(self, monkeypatch):
        # the word pass proves every slice member's roundtrip, so the vertex
        # pass skips a path whose rank is its index; a non-monotone path that
        # summed to a member's rank would have been skipped in its place
        alias = ((1, 2), (1, 0))  # ((0, 0), (1, 1), (2, 0), (4, 3))

        def aliasing_enumerator(i, j, k):
            paths = list(_vertex_columns(i, j, k))
            if (i, j, k) == (4, 3, 2):
                assert paths[3] == ((1, 2), (0, 3))
                paths[3] = alias
            return paths

        monkeypatch.setattr(harness, "_vertex_columns", aliasing_enumerator)
        _, failures, _ = harness._unit(("roundtrip",), (3, 2))[0]
        assert failures.records == [
            _forward(3, 2, [[0, 0], [1, 1], [2, 0], [4, 3]], [[0, 0], [1, 0], [2, 1], [4, 3]]),
            {"kind": "vertex_order", "n": 3, "k": 2, "slice_size": 30, "enumerated": 30},
        ]

    def test_non_monotone_image_is_reported_not_aliased(self, monkeypatch):
        # EENND's first interior vertex (1, 0), twice
        repeating_image = _edited_image(
            lambda xs, ys, n: (xs[:1] * 2, ys[:1] * 2, n), lambda word: word == "EENND"
        )
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
        [(reversed, 6), (lambda columns: columns[:-1], 5), (lambda columns: columns * 2, 12)],
        ids=["reversed", "short", "twice"],
    )
    def test_vertex_enumerator_out_of_rank_order(self, monkeypatch, corrupt, enumerated):
        monkeypatch.setattr(harness, "_vertex_columns", _vertex_columns_via(corrupt))
        _, failures, _ = harness._unit(("roundtrip",), (2, 1))[0]
        assert failures.records == [
            {"kind": "vertex_order", "n": 2, "k": 1, "slice_size": 6, "enumerated": enumerated}
        ]

    @pytest.mark.parametrize(
        "corrupt, records",
        [
            (
                # the runs of x-sets (1,) and (2,) trade places
                lambda columns: columns[3:] + columns[:3],
                [{"kind": "vertex_order", "n": 2, "k": 1, "slice_size": 6, "enumerated": 6}],
            ),
            (
                # a y-multiset given in falling order
                lambda columns: [(xs, ys[::-1]) for xs, ys in columns],
                [
                    # each y pair (a, b) with a < b, given as (b, a), maps back to (a, b)
                    _forward(
                        2, 2, [[0, 0], [1, b], [2, a], [3, 2]], [[0, 0], [1, a], [2, b], [3, 2]]
                    )
                    for a, b in ((0, 1), (0, 2), (1, 2))
                ]
                + [{"kind": "vertex_order", "n": 2, "k": 2, "slice_size": 6, "enumerated": 6}],
            ),
        ],
        ids=["x-runs-swapped", "y-falling"],
    )
    def test_vertex_columns_out_of_rank_order(self, monkeypatch, corrupt, records):
        # each x-set is ranked once for its run, so runs out of order and a
        # y-multiset that is not one must still fail the order test
        monkeypatch.setattr(harness, "_vertex_columns", _vertex_columns_via(corrupt))
        n, k = records[-1]["n"], records[-1]["k"]
        _, failures, _ = harness._unit(("roundtrip",), (n, k))[0]
        assert failures.records == records

    @pytest.mark.parametrize(
        "corrupt, tail",
        [
            (
                lambda columns: columns[:-1],
                [
                    {"kind": "vertex_order", "n": 2, "k": 1, "slice_size": 6, "enumerated": 5},
                    _image_set(2, 1, [], []),
                ],
            ),
            (
                reversed,
                [
                    _forward(2, 1, [[0, 0], [2, 2], [3, 2]], [[0, 0], [1, 0], [3, 2]]),
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
        monkeypatch.setattr(harness, "_image", _first_for_last)
        monkeypatch.setattr(harness, "_vertex_columns", _vertex_columns_via(corrupt))
        _, failures, _ = harness._unit(("roundtrip",), (2, 1))[0]
        assert failures.records == [_inverse("DNE", "END"), *tail]

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

    def test_an_image_of_tuples_passes_the_forward_roundtrip(self, monkeypatch):
        # with no word to prove them, all six vertex paths of (2, 1) are mapped
        # back; columns holding the right values pass as tuples as well as lists
        tuple_image = _edited_image(lambda xs, ys, n: (tuple(xs), tuple(ys), n))
        monkeypatch.setattr(harness, "_image", tuple_image)
        monkeypatch.setattr(harness, "_words_by_e", lambda n, k: iter(()))
        _, failures, _ = harness._unit(("roundtrip",), (2, 1))[0]
        assert [record["kind"] for record in failures.records] == ["image_set"]

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
                    back = _vertices(*corrupted_phi(word))
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
    def test_failing_pool_worker_raises_instead_of_hanging(self, child_env):
        # a BadEndpoint raised inside a pool worker must reach the caller;
        # when it could not be unpickled, pool.map never returned
        script = """
import multiprocessing
from delannoy_kit import BadEndpoint, harness

def raising_image(word):
    n = len(word) - word.count("E")
    raise BadEndpoint(n + 2, n)

harness._image = raising_image
multiprocessing.set_start_method("fork")
try:
    harness.run_checks(["roundtrip"], 5, workers=2)
except BadEndpoint as exc:
    print(type(exc).__name__, exc.x == exc.y + 2)
"""
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env, timeout=60
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

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv(harness.ENV_THREADS, requested)
        report = _report("counts", n_max)
        assert started == [processes]
        serial = _report("counts", n_max, workers=1)
        assert _without_elapsed(report) == _without_elapsed(serial)

    def test_single_worker_or_unit_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
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
