import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from delannoy_kit import (
    DelannoyPath,
    enumerate_delannoy,
    phi,
    sample_delannoy_stream,
    schroder,
)
import delannoy_kit
from delannoy_kit import bijection, cli, geometry, harness
from delannoy_kit.cli import build_parser, parse_vertex_text, run

import reference

WORKED_WORD = "NEEDNNNEDDEEN"
WORKED_JSON = "[[0,0],[1,1],[3,1],[4,5],[5,7],[8,7],[9,8]]"
# stdout of ``unmap --debug`` from the bisect/insert merge, byte for byte
WORKED_DEBUG = (
    '{"word":"NEEDNNNEDDEEN","n":8,"k":5,"A":[1,3,4,5,8],"B":[1,1,5,7,7],'
    '"C":[2,6,7],"merged":["1A","1B","1B","2C","3A","4A","5A","5B","6C","7C",'
    '"7B","7B","8A"]}\n'
)
# stdout of ``map --debug``, byte for byte
WORKED_MAP_DEBUG = (
    '{"vertices":' + WORKED_JSON + ',"n":8,"k":5,'
    '"labels":{"north":[1,3,4,5,8],"east":[1,1,5,7,7],"diagonal":[2,6,7]}}\n'
)
# SHA-256 of the stdout of ``enumerate kimberling --i 4 --j 3``, 64 JSON lines
ENUMERATE_4_3_SHA256 = "f7d44fc0cf6fbad36f73f16b096053af2337f62a4de0c9e777a0d535a83374a9"
# ... and its SHA-256 on the image of next(sample_delannoy_stream(512, 1, 2024))
UNMAP_DEBUG_512_SHA256 = "6cb38fbfd348a95a0af5790370eda7c7e189f2c3c6c4877bad28d3a730a2da16"
# stdout of ``classify`` from ``json.dumps(payload, indent=2)``, byte for byte
CLASSIFY_EDN = (
    '{\n  "word": "EDN",\n  "n": 2,\n  "k": 1,\n  "subdiagonal_delannoy": true,\n'
    '  "subdiagonal_kimberling": true,\n  "image_vertices": [\n    [\n      0,\n      0\n'
    '    ],\n    [\n      2,\n      0\n    ],\n    [\n      3,\n      2\n    ]\n  ],\n'
    '  "east_steps": [\n    {\n      "index": 1,\n      "east_end": [\n        1,\n'
    '        0\n      ],\n      "east_weakly_above": false,\n      "interior_vertex": [\n'
    '        2,\n        0\n      ],\n      "vertex_strictly_above": false,\n'
    '      "d_before_north": 1,\n      "d_before_east": 0,\n      "case": "more_before_north"\n'
    '    }\n  ]\n}\n'
)
CLASSIFY_EMPTY = (
    '{\n  "word": "",\n  "n": 0,\n  "k": 0,\n  "subdiagonal_delannoy": true,\n'
    '  "subdiagonal_kimberling": true,\n  "image_vertices": [\n    [\n      0,\n      0\n'
    '    ],\n    [\n      1,\n      0\n    ]\n  ],\n  "east_steps": []\n}\n'
)
# ... and its SHA-256 on the word next(sample_delannoy_stream(512, 1, 2024))
CLASSIFY_512_SHA256 = "ea32dbd3d3b14adfbfa3dfefd2c829282c27ba5360c0ed457f124bfc110dc2a3"
# SHA-256 of the stdout of ``render --word NEEDNNNEDDEEN --labels``
RENDER_LABELS_SHA256 = "4711e3d4cfffc7edb160235cff691bc75f04a3152b49929a92fbff4a767ac95d"


# one-step paths whose order makes ``["D"] * (n + 1)`` raise MemoryError (2**61)
# or OverflowError (10**23) at once; an order near 10**9 would really allocate
FAR_ORDERS = [2**61, 10**23]
FAR_ENDPOINTS = [f"(0,0);({n + 1},{n})" for n in FAR_ORDERS]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the namespaces ``run``'s own parse must match, from a parser no test replaces
ARGPARSE = build_parser()


@pytest.fixture(autouse=True)
def plain_parse_matches_argparse(monkeypatch):
    """Every argv a test here passes to ``run`` that ``_parse_plain`` parses,
    argparse parses to an equal namespace; an argv that argparse rejects or
    answers with help, ``_parse_plain`` leaves to argparse."""
    plain = cli._parse_plain

    def checked(argv):
        args = plain(argv)
        if args is not None:
            try:
                expected = ARGPARSE.parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse rejects {argv!r}, which _parse_plain accepts")
            assert args == expected, argv
        return args

    monkeypatch.setattr(cli, "_parse_plain", checked)


class TestMapUnmap:
    def test_map_worked_example(self, capsys):
        code, out, err = invoke(capsys, "map", WORKED_WORD)
        assert code == 0
        assert json.loads(out) == json.loads(WORKED_JSON)
        assert "n=8 k=5" in err

    def test_vertex_json_stdout_bytes_pinned(self, capsys):
        # recorded while each vertex was written as a list; json writes tuples
        # as arrays, so the bytes cannot tell the two apart
        assert invoke(capsys, "map", WORKED_WORD)[1] == WORKED_JSON + "\n"
        assert invoke(capsys, "map", "--debug", WORKED_WORD)[1] == WORKED_MAP_DEBUG
        out = invoke(capsys, "enumerate", "kimberling", "--i", "4", "--j", "3")[1]
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_4_3_SHA256

    def test_map_compact(self, capsys):
        code, out, _ = invoke(capsys, "map", "EN", "--compact")
        assert code == 0
        assert out.strip() == "(0,0);(1,0);(2,1)"

    def test_map_debug_labels(self, capsys):
        code, out, _ = invoke(capsys, "map", WORKED_WORD, "--debug")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 8 and payload["k"] == 5
        assert payload["labels"] == {
            "north": [1, 3, 4, 5, 8],
            "east": [1, 1, 5, 7, 7],
            "diagonal": [2, 6, 7],
        }

    def test_map_debug_walks_the_word_once(self, capsys, monkeypatch):
        # counted where phi looks it up; cli does not bind it
        calls = []
        original = bijection._image

        def counted(*args):
            calls.append(args)
            return original(*args)

        assert not hasattr(cli, "_image")
        monkeypatch.setattr(bijection, "_image", counted)
        assert invoke(capsys, "map", WORKED_WORD, "--debug")[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("debug", [[], ["--debug"]], ids=["plain", "debug"])
    def test_unmap_scans_the_heights_once(self, capsys, monkeypatch, debug):
        # _preimage is the one height scan; counted wherever cli and bijection look it up
        calls = []

        def counted(original):
            def wrapper(*args):
                calls.append(args)
                return original(*args)

            return wrapper

        for module in (cli, bijection):
            monkeypatch.setattr(module, "_preimage", counted(module._preimage))
        assert invoke(capsys, "unmap", WORKED_JSON, *debug)[0] == 0
        assert len(calls) == 1

    def test_unmap_json_input(self, capsys):
        code, out, err = invoke(capsys, "unmap", WORKED_JSON)
        assert code == 0
        assert out.strip() == WORKED_WORD
        assert "n=8 k=5" in err

    def test_unmap_compact_input(self, capsys):
        code, out, _ = invoke(capsys, "unmap", "(0,0);(1,1);(2,1)")
        assert code == 0
        assert out.strip() == "NE"

    def test_unmap_debug_decomposition(self, capsys):
        code, out, _ = invoke(capsys, "unmap", WORKED_JSON, "--debug")
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == WORKED_WORD
        assert payload["A"] == [1, 3, 4, 5, 8]
        assert payload["B"] == [1, 1, 5, 7, 7]
        assert payload["C"] == [2, 6, 7]
        assert payload["merged"] == [
            "1A", "1B", "1B", "2C", "3A", "4A", "5A",
            "5B", "6C", "7C", "7B", "7B", "8A",
        ]

    def test_unmap_debug_bytes_pinned(self, capsys):
        code, out, _ = invoke(capsys, "unmap", WORKED_JSON, "--debug")
        assert code == 0
        assert out == WORKED_DEBUG

    def test_unmap_debug_bytes_pinned_at_order_512(self, capsys):
        image = phi(next(sample_delannoy_stream(512, 1, 2024)))
        vertices = json.dumps([list(v) for v in image.vertices])
        code, out, err = invoke(capsys, "unmap", vertices, "--debug")
        assert code == 0
        assert "n=512 k=363" in err
        assert hashlib.sha256(out.encode()).hexdigest() == UNMAP_DEBUG_512_SHA256

    @pytest.mark.parametrize("n", range(6))
    def test_unmap_of_map_is_identity_textually(self, capsys, n):
        for path in enumerate_delannoy(n):
            code, out, _ = invoke(capsys, "map", path.word)
            assert code == 0
            code, out, _ = invoke(capsys, "unmap", out.strip())
            assert code == 0
            assert out.strip() == path.word

    def test_map_rejects_bad_word(self, capsys):
        code, _, err = invoke(capsys, "map", "NXE")
        assert code == 2
        assert "position 2" in err

    def test_map_rejects_noncentral(self, capsys):
        code, _, _ = invoke(capsys, "map", "NNE")
        assert code == 2

    def test_unmap_rejects_bad_endpoint(self, capsys):
        code, _, err = invoke(capsys, "unmap", "[[0,0],[2,2]]")
        assert code == 2
        assert "(2, 2)" in err

    @pytest.mark.parametrize("text", ["[[0,0],[1,", "[" * 50_000], ids=["truncated", "deep"])
    def test_unmap_rejects_malformed_json(self, capsys, text):
        code, out, err = invoke(capsys, "unmap", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad vertex JSON") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", FAR_ORDERS, ids=["2**61", "10**23"])
    @pytest.mark.parametrize("debug", [[], ["--debug"]], ids=["plain", "debug"])
    def test_unmap_rejects_an_endpoint_too_far_to_scan(self, capsys, n, debug):
        code, out, err = invoke(capsys, "unmap", f"(0,0);({n + 1},{n})", *debug)
        assert (code, out, err) == (2, "", f"error: endpoint ({n + 1},{n}) is too far to unmap\n")

    def test_unmap_rejects_bool_coordinates(self, capsys):
        # and the other entries that are not a pair of integers: a non-pair, a float
        for argv in (
            ("[[0,0],[1,false],[2,true]]", "--debug"),
            ("[[0,0],5]",),
            ("[[0,0],[1.5,0],[2,1]]",),
        ):
            code, out, err = invoke(capsys, "unmap", *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and "not a pair of integers" in err

    def test_both_vertex_forms_of_one_path_at_order_16384(self, capsys):
        letters = list("D" * 5384 + "E" * 11000 + "N" * 11000)
        random.Random(16384).shuffle(letters)
        image = phi(DelannoyPath("".join(letters)))
        compact = ";".join(f"({x},{y})" for x, y in image.vertices)
        vertices_json = json.dumps([list(v) for v in image.vertices])
        assert parse_vertex_text(compact) == parse_vertex_text(vertices_json) == image
        code, out, err = invoke(capsys, "unmap", compact)
        assert (code, out, err) == (0, "".join(letters) + "\n", "n=16384 k=11000\n")
        assert invoke(capsys, "unmap", vertices_json) == (code, out, err)

    def test_parse_vertex_text_forms(self):
        assert parse_vertex_text("[[0,0],[1,0]]").vertices == ((0, 0), (1, 0))
        assert parse_vertex_text(" (0,0) ; (1,0) ").vertices == ((0, 0), (1, 0))
        with pytest.raises(Exception):
            parse_vertex_text("(0,0);(oops)")


# ---------------------------------------------------------------------------
# the % writers write the bytes of the code they replaced, kept in reference.py

# coordinates and values past 20 digits, where no fixed-width integer reaches
HUGE = st.integers(-(10**25), 10**25)


@given(st.lists(st.tuples(HUGE, HUGE), max_size=8))
@example([])
@example([[0, 0], [1, 0]])
@example([(0, 0), (10**20, 10**19), (10**24 + 1, 10**24)])
def test_vertex_writer_matches_the_encoder_and_the_join(vertices):
    for compact in (False, True):
        assert cli._vertex_text(vertices, compact) == reference.vertex_text(vertices, compact)


@given(st.lists(HUGE, max_size=12))
@example([])
@example([10**20, 0, -(10**21)])
def test_integer_writer_matches_str_join(values):
    assert cli._integers(values) == reference.integers_text(values)


@given(st.lists(st.tuples(st.sampled_from("NED"), HUGE), max_size=12), st.integers(0, 12),
       st.integers(0, 12))
@example([], 0, 0)
@example([("D", 1), ("D", 2)], 0, 0)  # k = 0: A and B empty
@example([("N", 1), ("E", 10**20)], 1, 2)  # C empty
def test_merge_writer_matches_the_f_string_join(letters, cut, other_cut):
    # any word over N/E/D, and as many values split into A, B and C in any way
    word = "".join(letter for letter, _ in letters)
    values = [value for _, value in letters]
    i, j = sorted((min(cut, len(values)), min(other_cut, len(values))))
    a, b, c = values[:i], values[i:j], values[j:]
    assert cli._merged(word, a, b, c) == reference.merged_text(word, a, b, c)


@st.composite
def central_words(draw, n_max=40):
    n = draw(st.integers(0, n_max))
    k = draw(st.integers(0, n))
    return "".join(draw(st.permutations("E" * k + "N" * k + "D" * (n - k))))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(central_words())
@example("")  # the image [[0,0],[1,0]]: A, B and C empty
@example("DDD")  # k = 0: A and B empty
@example("NEEN")  # C empty
@example(WORKED_WORD.lower())
def test_map_debug_matches_json_dumps_reference(capsys, word):
    k = word.upper().count("E")
    n = len(word) - k
    expected = (0, reference.map_debug_json(word) + "\n", f"n={n} k={k}\n")
    assert invoke(capsys, "map", word, "--debug") == expected


class TestCount:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("count", "schroder", "--n", "0"), "1"),
            (("count", "schroder", "--n", "8"), "41586"),
            (("count", "delannoy", "--n", "8"), "265729"),
            (("count", "delannoy", "--n", "8", "--k", "5"), "72072"),
            (("count", "kimberling", "--i", "2", "--j", "1"), "3"),
            (("count", "kimberling", "--i", "9", "--j", "8", "--k", "5"), "72072"),
            pytest.param(
                ("count", "kimberling", "--i", "1025", "--j", "1024"),
                str(sum(comb(1024, k) * comb(1024 + k, k) for k in range(1025))),
                id="order-1024",
            ),
        ],
    )
    def test_values(self, capsys, argv, expected):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert out.strip() == expected

    def test_repeated_flag_keeps_its_last_value(self, capsys):
        code, out, _ = invoke(capsys, "count", "delannoy", "--n", "3", "--n", "5")
        assert (code, out) == (0, "1683\n")

    def test_missing_required_flag(self, capsys):
        code, _, err = invoke(capsys, "count", "delannoy")
        assert code == 2
        assert "--n" in err

    def test_kimberling_needs_both_endpoints(self, capsys):
        code, _, _ = invoke(capsys, "count", "kimberling", "--i", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "delannoy", "--n", "-1"),
            ("count", "delannoy", "--n", "-1", "--k", "0"),
            ("count", "kimberling", "--i", "-2", "--j", "0"),
            ("count", "kimberling", "--i", "3", "--j", "-1", "--k", "1"),
        ],
    )
    def test_negative_sizes_rejected(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and ">= 0" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "delannoy", "--n", "3", "--k", "5"),
            ("count", "delannoy", "--n", "3", "--k", "-1"),
            ("count", "kimberling", "--i", "3", "--j", "2", "--k", "7"),
            # k below -n (-j on the vertex side) once reached math.comb with
            # a negative n and exited 2
            ("count", "delannoy", "--n", "0", "--k", "-1"),
            ("count", "delannoy", "--n", "5", "--k", "-100"),
            ("count", "kimberling", "--i", "2", "--j", "0", "--k", "-1"),
            ("count", "kimberling", "--i", "0", "--j", "0", "--k", "-1"),
        ],
    )
    def test_out_of_range_k_counts_zero(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert out == "0\n"


class TestEnumerate:
    def test_delannoy_golden(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "delannoy", "--n", "1")
        assert code == 0
        assert out.split() == ["D", "EN", "NE"]

    def test_delannoy_subdiagonal_filter(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "delannoy", "--n", "2", "--subdiagonal")
        assert code == 0
        assert len(out.split()) == schroder(2)

    def test_delannoy_k_only(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "delannoy", "--n", "2", "--k-only", "2")
        assert code == 0
        assert out.split() == ["EENN", "ENEN", "ENNE", "NEEN", "NENE", "NNEE"]

    def test_kimberling_golden(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "kimberling", "--i", "2", "--j", "1")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [
            [[0, 0], [2, 1]],
            [[0, 0], [1, 0], [2, 1]],
            [[0, 0], [1, 1], [2, 1]],
        ]

    def test_kimberling_compact_and_filter(self, capsys):
        code, out, _ = invoke(
            capsys, "enumerate", "kimberling", "--i", "2", "--j", "1",
            "--subdiagonal", "--compact",
        )
        assert code == 0
        assert out.split() == ["(0,0);(2,1)", "(0,0);(1,0);(2,1)"]

    def test_k_slice_at_order_1500(self, capsys):
        code, out, err = invoke(capsys, "enumerate", "delannoy", "--n", "1500", "--k-only", "0")
        assert code == 0
        assert out.split() == ["D" * 1500]
        assert err == ""

    def test_kimberling_k_slice_to_a_negative_height_fails(self, capsys):
        # each slice outside its family's range fails as `count` does on the
        # same arguments, not with an empty listing
        for argv, message in [
            (
                ("kimberling", "--i", "3", "--j", "-1", "--k-only", "0"),
                "enumerate_kimberling_by_vertices requires i, j >= 0, got (3, -1)",
            ),
            (
                ("kimberling", "--i", "2", "--j", "-1", "--k-only", "1"),
                "enumerate_kimberling_by_vertices requires i, j >= 0, got (2, -1)",
            ),
            (
                ("delannoy", "--n", "-1", "--k-only", "0"),
                "enumerate_delannoy_by_e requires n >= 0, got -1",
            ),
        ]:
            assert invoke(capsys, "enumerate", *argv) == (2, "", f"error: {message}\n")
            count_argv = ["--k" if arg == "--k-only" else arg for arg in argv]
            assert invoke(capsys, "count", *count_argv)[:2] == (2, "")

    def test_requires_family_endpoints(self, capsys):
        assert invoke(capsys, "enumerate", "delannoy")[0] == 2
        assert invoke(capsys, "enumerate", "kimberling", "--i", "2")[0] == 2


class TestSample:
    def test_deterministic_replay(self, capsys):
        first = invoke(capsys, "sample", "--n", "5", "--count", "4", "--seed", "9")
        second = invoke(capsys, "sample", "--n", "5", "--count", "4", "--seed", "9")
        assert first == second
        assert first[0] == 0
        assert len(first[1].split()) == 4

    def test_matches_library_stream(self, capsys):
        for n, count, seed in ((4, 6, 123), (1024, 3, 1)):
            code, out, err = invoke(
                capsys, "sample", "--n", str(n), "--count", str(count), "--seed", str(seed)
            )
            assert (code, err) == (0, "")
            assert out.split() == [p.word for p in sample_delannoy_stream(n, count, seed=seed)]

    def test_rejects_negative_count(self, capsys):
        assert invoke(capsys, "sample", "--n", "2", "--count", "-1")[0] == 2

    @pytest.mark.parametrize("count", ["0", "1"])
    def test_rejects_negative_order(self, capsys, count):
        code, out, err = invoke(capsys, "sample", "--n", "-1", "--count", count)
        assert code == 2
        assert out == ""
        assert err == "error: sample_delannoy_stream requires n >= 0, got -1\n"


class TestClassify:
    def test_fields(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--word", "EDN")
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == "EDN"
        assert (payload["n"], payload["k"]) == (2, 1)
        assert payload["subdiagonal_delannoy"] is True
        assert payload["subdiagonal_kimberling"] is True
        step = payload["east_steps"][0]
        assert step["east_end"] == [1, 0]
        assert step["east_weakly_above"] is False
        assert step["vertex_strictly_above"] is False
        assert step["interior_vertex"] == [2, 0]
        assert (step["d_before_north"], step["d_before_east"]) == (1, 0)
        assert step["case"] == "more_before_north"

    @pytest.mark.parametrize(
        "word, expected",
        [("EDN", CLASSIFY_EDN), ("edn", CLASSIFY_EDN), ("", CLASSIFY_EMPTY)],
        ids=["EDN", "lowercase", "empty"],
    )
    def test_bytes_pinned(self, capsys, word, expected):
        assert invoke(capsys, "classify", "--word", word) == (0, expected, "")

    def test_bytes_pinned_at_order_512(self, capsys):
        word = next(sample_delannoy_stream(512, 1, 2024)).word
        code, out, err = invoke(capsys, "classify", "--word", word)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_512_SHA256

    def test_requires_central(self, capsys):
        assert invoke(capsys, "classify", "--word", "NEN")[0] == 2

    def test_maps_and_walks_the_word_once(self, capsys, monkeypatch):
        # counted wherever cli or the geometry helpers it calls look them up
        calls = {"phi": 0, "walk_east_steps": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for module in (cli, geometry):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        assert invoke(capsys, "classify", "--word", WORKED_WORD)[0] == 0
        assert calls == {"phi": 1, "walk_east_steps": 1}


class TestVerify:
    def test_passes_small(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--n-max", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)

    def test_single_check_json(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--n-max", "1", "--check", "roundtrip", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["reports"]) == 1
        assert payload["reports"][0]["check_name"] == "roundtrip"
        assert payload["reports"][0]["total_cases"] == 8

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(harness, "schroder", lambda n: 999)
        code, out, _ = invoke(capsys, "verify", "--n-max", "1", "--check", "subdiagonal")
        assert code == 1
        assert "FAIL" in out
        assert "counterexample" in out

    def test_rejects_unknown_check(self, capsys):
        assert invoke(capsys, "verify", "--check", "bogus")[0] == 2

    @pytest.mark.parametrize(
        "n_max, check, empty",
        [
            ("-1", "all", "roundtrip"),
            ("-1", "counts", "counts"),
            ("0", "all", "per-step"),
            ("0", "per-step", "per-step"),
        ],
        ids=["all", "counts", "zero-all", "zero-per-step"],
    )
    def test_negative_n_max_checks_nothing_and_fails(self, capsys, n_max, check, empty):
        code, out, err = invoke(capsys, "verify", "--n-max", n_max, "--check", check)
        assert code == 2
        assert "PASS" not in out
        # the first requested check with no cases names the error
        assert err == (
            f"error: the {empty} check has no cases at n_max={n_max}; "
            "that sweep would check nothing\n"
        )


class TestRender:
    def test_well_formed_for_random_paths(self, capsys):
        paths = list(sample_delannoy_stream(5, 50, seed=2024))
        for path in paths:
            code, out, _ = invoke(capsys, "render", "--word", path.word)
            assert code == 0
            root = ET.fromstring(out)
            assert root.tag.endswith("svg")

    def test_empty_word_renders(self, capsys):
        code, out, _ = invoke(capsys, "render", "--word", "")
        assert code == 0
        ET.fromstring(out)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "pair.svg"
        code, _, err = invoke(capsys, "render", "--word", "EN", "--out", str(target))
        assert code == 0
        assert "wrote" in err
        ET.fromstring(target.read_text())

    @pytest.mark.parametrize("target", ["missing/pair.svg", "."], ids=["no-dir", "is-dir"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, target):
        code, out, err = invoke(capsys, "render", "--word", "NE", "--out", str(tmp_path / target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert "Traceback" not in err

    # 10**400 overflows int(1.5 * cell), 10**308 the float formatting of the width
    @pytest.mark.parametrize("cell", [10**400, 10**308], ids=["1e400", "1e308"])
    def test_too_large_cell_is_usage_error(self, capsys, cell):
        code, out, err = invoke(capsys, "render", "--word", "EN", "--cell", str(cell))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --cell ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_flags_change_output(self, capsys):
        _, full, _ = invoke(capsys, "render", "--word", "EN", "--labels")
        _, bare, _ = invoke(capsys, "render", "--word", "EN", "--no-grid", "--no-diagonal")
        assert len(bare) < len(full)
        assert "<text" in full and "<text" not in bare

    def test_labelled_bytes_pinned(self, capsys):
        code, out, err = invoke(capsys, "render", "--word", WORKED_WORD, "--labels")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == RENDER_LABELS_SHA256

    def test_cell_minimum_enforced(self, capsys):
        assert invoke(capsys, "render", "--word", "EN", "--cell", "3")[0] == 2

    def test_rejects_noncentral_word(self, capsys):
        assert invoke(capsys, "render", "--word", "NNE")[0] == 2


class TestTopLevel:
    def test_public_names_pinned(self):
        # a change to the public surface edits this list on purpose
        assert sorted(delannoy_kit.__all__) == [
            "BadEndpoint",
            "BadOrigin",
            "DecreasingY",
            "DelannoyPath",
            "InvalidCharacter",
            "KimberlingPath",
            "LatticeError",
            "LatticePoint",
            "NonIncreasingX",
            "NotCentral",
            "RenderSpec",
            "VerificationReport",
            "below_endpoint_chord",
            "central_index",
            "classify_d_counts",
            "count_delannoy",
            "count_delannoy_by_e",
            "count_kimberling",
            "count_kimberling_by_vertices",
            "enumerate_delannoy",
            "enumerate_delannoy_by_e",
            "enumerate_kimberling",
            "enumerate_kimberling_by_vertices",
            "is_subdiagonal_delannoy",
            "is_subdiagonal_kimberling",
            "parse_step_word",
            "path_vertices",
            "phi",
            "phi_inverse",
            "render_pair",
            "run_checks",
            "sample_delannoy_stream",
            "schroder",
            "walk_east_steps",
        ]
        namespace = {}
        exec("from delannoy_kit import *", namespace)
        assert sorted(namespace.keys() - {"__builtins__"}) == sorted(delannoy_kit.__all__)

    def test_imports_only_the_standard_library(self):
        # -S -I: no site-packages, no PYTHON* variables, no working directory
        script = """
import sys
sys.path.insert(0, sys.argv[1])
from delannoy_kit import cli, harness, render
assert cli.run(["verify", "--n-max", "3"]) == 0
assert cli.run(["map", "NEEDNNNEDDEEN"]) == 0
allowed = sys.stdlib_module_names | {"delannoy_kit", "__main__", "__mp_main__"}
outside = sorted({name.partition(".")[0] for name in sys.modules} - allowed)
sys.exit(f"imported outside the standard library: {outside}" if outside else 0)
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-S", "-I", "-c", script, src],
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "n=8 k=5\n")  # map's stderr line

    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert run(["map", "--help"]) == 0
        capsys.readouterr()
        # verify has nothing required, so only -h itself keeps it from sweeping
        assert run(["verify", "-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: delannoy-kit verify")

    def test_python_dash_m_entry_point(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run(
            [sys.executable, "-m", "delannoy_kit", "count", "schroder", "--n", "8"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "41586\n", "")

    def test_closed_stdout_exits_141_without_traceback(self):
        # as `enumerate delannoy --n 7 | head -1`: about 0.5 MB of words, far
        # more than a pipe buffers, so the writer meets the closed pipe
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        child = subprocess.Popen(
            [sys.executable, "-m", "delannoy_kit", "enumerate", "delannoy", "--n", "7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert child.stdout.readline() == b"DDDDDDD\n"
            child.stdout.close()
            stderr = child.stderr.read()
            assert child.wait(timeout=60) == 141
        finally:
            child.kill()
            child.wait()
        assert b"Traceback" not in stderr


# ---------------------------------------------------------------------------
# one parser per process: reusing it leaks nothing from one request to the next

REUSE_SEQUENCE = [
    ["frobnicate"],
    ["sample", "--count", "2"],
    ["--help"],
    ["map", "--debug", WORKED_WORD],
    ["map", WORKED_WORD],
    ["unmap", WORKED_JSON, "--debug"],
    ["unmap", WORKED_JSON],
    ["count", "delannoy", "--n", "5", "--k", "2"],
    ["count", "delannoy", "--n", "5"],
]


@pytest.fixture
def fresh_parser_cache():
    caches = (cli._parser, cli._grammars)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def _run_all(capsys, sequence):
    return [invoke(capsys, *argv) for argv in sequence]


def test_reused_parser_matches_fresh_parser(capsys, monkeypatch, fresh_parser_cache):
    reused = _run_all(capsys, REUSE_SEQUENCE)
    # a new parser, and new grammars read from one, for every request
    monkeypatch.setattr(cli, "_parser", build_parser)
    monkeypatch.setattr(cli, "_grammars", cli._grammars.__wrapped__)
    fresh = _run_all(capsys, REUSE_SEQUENCE)
    assert [r[0] for r in reused] == [2, 2, 0, 0, 0, 0, 0, 0, 0]
    for argv, got, expected in zip(REUSE_SEQUENCE, reused, fresh):
        assert got == expected, argv


def test_run_builds_parser_once(capsys, monkeypatch, fresh_parser_cache):
    built = []

    def counting_build_parser():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    _run_all(capsys, REUSE_SEQUENCE * 3)
    assert len(built) == 1
    assert cli._grammars.cache_info().misses == 1
    assert build_parser() is not build_parser()


def test_benchmark_requests_skip_parse_args(capsys, monkeypatch, workloads):
    # every request of the benchmark's cli-requests and sample-exact rounds
    # takes the plain parse, so argparse sets none of their latencies
    rng = random.Random(1)
    ops = workloads.cli_round(rng) + workloads.sample_round(rng, lambda family, n, k: 0)
    cli._grammars()  # read from the parser before it goes

    def no_parser():
        raise AssertionError("parse_args was asked for")

    monkeypatch.setattr(cli, "_parser", no_parser)
    for op in ops:
        assert run(op.argv) == 0, op.argv
        capsys.readouterr()


def test_benchmark_map_and_unmap_skip_the_json_encoder(capsys, monkeypatch, workloads):
    # every map and unmap request of the benchmark's cli-requests round writes
    # its output with the % writers; the ops are built first, as they encode
    ops = [op for op in workloads.cli_round(random.Random(1)) if op.command in ("map", "unmap")]

    def no_encoder(*args):
        raise AssertionError("the JSON encoder was asked for")

    monkeypatch.setattr(cli, "_dump", no_encoder)
    monkeypatch.setattr(json.JSONEncoder, "encode", no_encoder)
    outputs = []
    for op in ops:
        assert run(op.argv) == 0, op.argv
        outputs.append(capsys.readouterr().out)
    monkeypatch.undo()
    for op, out in zip(ops, outputs):
        assert op.check(out), op.argv


# ---------------------------------------------------------------------------
# exit-code contract: 0 ok, 1 counterexample (verify only), 2 bad usage; no traceback


def _argv(*parts):
    """Concatenate drawn argument lists."""
    return st.tuples(*parts).map(lambda drawn: [arg for part in drawn for arg in part])


def _opt(flag, values):
    """The flag with a drawn value, or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _one(values):
    return values.map(lambda v: [str(v)])


SMALL = st.integers(-3, 6)
WORD = st.text(alphabet="ENDenx ", max_size=14)
COORD = st.one_of(st.integers(-2, 12), st.booleans(), st.sampled_from([1.5, "1", None]))
VERTEX_TEXT = st.one_of(
    st.lists(st.one_of(st.lists(COORD, max_size=3), COORD), max_size=7).map(json.dumps),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=7).map(
        lambda tail: json.dumps([[0, 0]] + sorted(tail))
    ),
    st.lists(st.tuples(st.integers(-2, 12), st.integers(-2, 12)), max_size=7).map(
        lambda pairs: ";".join(f"({x},{y})" for x, y in [(0, 0)] + pairs)
    ),
    st.text(max_size=12),
)
# Oversized inputs stay cheap: counts past Python's 4300-digit str limit, a
# k-slice of order 3000 holding at most one word, a sample at order 200.  No
# case enumerates more than 2,668 paths (kimberling i = j = 6) or sweeps
# beyond n = 3.
CLI_ARGV = {
    "map": _argv(st.just(["map"]), _one(WORD), st.sampled_from([[], ["--debug"], ["--compact"]])),
    "unmap": _argv(
        st.just(["unmap"]),
        _one(st.one_of(VERTEX_TEXT, st.sampled_from(FAR_ENDPOINTS))),
        st.sampled_from([[], ["--debug"]]),
    ),
    "classify": _argv(st.just(["classify"]), _opt("--word", WORD)),
    "render": _argv(
        st.just(["render"]),
        _opt("--word", WORD),
        _opt("--cell", st.one_of(SMALL, st.integers(4, 60), st.just(10**30))),
        st.sampled_from([[], ["--labels"], ["--no-grid", "--no-diagonal"]]),
    ),
    "count": st.one_of(
        _argv(
            st.just(["count"]),
            _one(st.sampled_from(["delannoy", "kimberling", "schroder", "catalan"])),
            _opt("--n", st.one_of(SMALL, st.just(-(10**30)))),
            _opt("--i", SMALL),
            _opt("--j", SMALL),
            _opt("--k", st.one_of(SMALL, st.just(10**6))),
        ),
        _argv(st.just(["count", "schroder", "--n"]), _one(st.sampled_from([0, 4000, 8192]))),
        _argv(st.just(["count", "delannoy", "--n", "6000", "--k"]), _one(st.integers(-1, 6001))),
        _argv(
            st.just(["count", "kimberling", "--i", "9000", "--j", "9000", "--k"]),
            _one(st.integers(-1, 9000)),
        ),
    ),
    "enumerate": st.one_of(
        _argv(
            st.just(["enumerate"]),
            _one(st.sampled_from(["delannoy", "kimberling", "catalan"])),
            _opt("--n", st.integers(-3, 5)),
            _opt("--i", SMALL),
            _opt("--j", SMALL),
            _opt("--k-only", SMALL),
            st.sampled_from([[], ["--subdiagonal"], ["--compact"]]),
        ),
        _argv(
            st.just(["enumerate", "delannoy", "--n", "3000", "--k-only"]),
            _one(st.sampled_from([-1, 0, 3001])),
        ),
    ),
    "sample": _argv(
        st.just(["sample"]),
        _opt("--n", st.one_of(SMALL, st.just(200))),
        _opt("--count", st.integers(-2, 3)),
        _opt("--seed", st.one_of(st.integers(-5, 5), st.just(10**30))),
    ),
    "verify": _argv(  # --n-max always given: the default sweep takes seconds
        st.just(["verify", "--n-max"]),
        _one(st.integers(-3, 3)),
        _opt("--check", st.sampled_from(["all", "roundtrip", "counts", "per-step", "bogus"])),
        st.sampled_from([[], ["--json"]]),
    ),
}


@pytest.mark.parametrize("command", sorted(CLI_ARGV))
def test_exit_code_contract(command, tmp_path):
    strategy = CLI_ARGV[command]
    if command == "render":  # --out to a writable file, a missing directory, a directory
        targets = st.sampled_from([tmp_path / "x.svg", tmp_path / "missing" / "x.svg", tmp_path])
        strategy = st.one_of(
            _argv(strategy, _opt("--out", targets)),
            _argv(st.just(["render", "--word", WORKED_WORD, "--out"]), _one(targets)),
        )

    @settings(max_examples=40, deadline=None)
    @given(strategy)
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in ((0, 1, 2) if command == "verify" else (0, 2)), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == "" or command == "enumerate", argv

    check()
