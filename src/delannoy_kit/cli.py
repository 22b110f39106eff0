"""Command-line front end.

Subcommands: map, unmap, count, enumerate, sample, classify, verify,
render.  Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage or validation error, and 141 (128 + SIGPIPE,
as a shell reports that signal) when stdout closes early, as in ``| head -1``.

``run`` parses a plain argv -- a subcommand, then its option strings, their
values and its positionals, no value starting with "-" -- from a table read
once out of the argparse parser, so the parser stays the one grammar.  Every
other argv goes to ``parse_args``, so help, usage and error text come from
argparse alone.

``map``, ``unmap`` and ``enumerate kimberling`` write each list they print
with one ``%`` format over a flat tuple of its integers, and the ``--debug``
and ``classify`` JSON from fixed templates; the bytes are those of
``json.dumps``.  ``unmap`` reads a path's columns once and scans its heights
once, through the kernels the verify sweep runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from itertools import chain
from typing import NamedTuple, Sequence

from .bijection import _d_heights, _preimage, phi
from .counting import (
    count_delannoy,
    count_delannoy_by_e,
    count_kimberling,
    count_kimberling_by_vertices,
    enumerate_delannoy,
    enumerate_delannoy_by_e,
    enumerate_kimberling,
    enumerate_kimberling_by_vertices,
    sample_delannoy_stream,
    schroder,
)
from .geometry import (
    below_endpoint_chord,
    classify_d_counts,
    diagonal_comparisons,
    is_subdiagonal_delannoy,
    is_subdiagonal_kimberling,
    walk_east_steps,
)
from .harness import CHECKS, DEFAULT_N_MAX, run_checks
from .lattice_core import (
    KimberlingPath,
    LatticeError,
    LatticePoint,
    _columns,
    _image_order,
    central_index,
    parse_step_word,
)
from .render import RenderSpec, render_pair

_COMPACT_PAIR_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")

# ``classify`` prints ``json.dumps(payload, indent=2)`` of a fixed shape;
# these templates write those bytes without the stdlib's pure-Python indenting
# encoder.  The word holds only E/N/D and the case labels are identifiers, so
# nothing needs escaping.
_JSON_BOOL = ("false", "true")
_CLASSIFY = (
    '{\n  "word": "%s",\n  "n": %d,\n  "k": %d,\n  "subdiagonal_delannoy": %s,\n'
    '  "subdiagonal_kimberling": %s,\n  "image_vertices": [%s\n  ],\n  "east_steps": %s\n}'
)
_CLASSIFY_VERTEX = "\n    [\n      %d,\n      %d\n    ]"
_CLASSIFY_STEP = (
    '\n    {\n      "index": %d,\n      "east_end": [\n        %d,\n        %d\n      ],\n'
    '      "east_weakly_above": %s,\n      "interior_vertex": [\n        %d,\n        %d\n'
    '      ],\n      "vertex_strictly_above": %s,\n      "d_before_north": %d,\n'
    '      "d_before_east": %d,\n      "case": "%s"\n    }'
)

# ``map --debug`` and ``unmap --debug`` print ``json.dumps(payload,
# separators=(",", ":"))`` of a fixed shape; these templates write those bytes
# from the writers below.  The word holds only E/N/D, so nothing needs escaping.
_MAP_DEBUG = '{"vertices":%s,"n":%d,"k":%d,"labels":{"north":[%s],"east":[%s],"diagonal":[%s]}}'
_UNMAP_DEBUG = '{"word":"%s","n":%d,"k":%d,"A":[%s],"B":[%s],"C":[%s],"merged":[%s]}'
# each letter's merge entry: its value and the tag of the part that holds it
_MERGE_FORMATS = {"N": '"%dA",', "E": '"%dB",', "D": '"%dC",'}

# what ``json.dumps(obj, separators=(",", ":"))`` builds on every call, built once
_dump = json.JSONEncoder(separators=(",", ":")).encode

# The writers build a list's text with one ``%`` over a flat tuple of its
# integers, so no string is made per element.  Each format repeats a field
# and its separator once per element, and the last separator is cut off.  On
# the image of a shuffled n = 16384 word (11,585 interior vertices) a list
# took 0.56-0.64x the time of the JSON encoder, ``str`` or an f-string per
# element (best of 7 x 10 calls, Python 3.11, 2 vCPUs).


def _integers(values: Sequence[int]) -> str:
    """``values`` separated by commas, as in a JSON list of integers."""
    return ("%d," * len(values))[:-1] % tuple(values)


def _vertex_text(vertices: Sequence[LatticePoint], compact: bool) -> str:
    """A JSON array of [x,y] pairs, or with ``compact`` "(x,y);(x,y);..."."""
    pair = "(%d,%d);" if compact else "[%d,%d],"
    text = (pair * len(vertices))[:-1] % tuple(chain.from_iterable(vertices))
    return text if compact else f"[{text}]"


def _merged(word: str, a: list[int], b: list[int], c: list[int]) -> str:
    """The entries of ``unmap --debug``'s merge: A, B and C sorted together,
    each value with the tag of the word's letter in its place."""
    return "".join(map(_MERGE_FORMATS.__getitem__, word))[:-1] % tuple(sorted(a + b + c))


def parse_vertex_text(text: str) -> KimberlingPath:
    """Parse either a JSON vertex array or the compact "(x,y);(x,y);..." form."""
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise LatticeError(f"bad vertex JSON: {exc}") from None
        except RecursionError:
            raise LatticeError("bad vertex JSON: nested too deeply") from None
        return KimberlingPath(data)
    if stripped.startswith("(") and stripped.endswith(")"):
        # With no space around its ";", the compact form is a JSON array of
        # pairs once its "(", ";" and ")" read "[", "," and "]".  A decoded
        # list of L integer pairs has L + 1 brackets of each kind, so L - 1
        # semicolons leave none to the text itself: it was compact, and its
        # pairs are the ones the loop below reads.  Any other text, a bad one
        # included, takes that loop and gets its errors.
        try:
            kpath = KimberlingPath(json.loads("[[" + stripped[1:-1].replace(");(", "],[") + "]]"))
        except (ValueError, RecursionError):  # LatticeError included
            pass
        else:
            if stripped.count(";") == len(kpath) - 1:
                return kpath
    pairs: list[tuple[int, int]] = []
    for chunk in stripped.split(";"):
        match = _COMPACT_PAIR_RE.fullmatch(chunk.strip())
        if not match:
            raise LatticeError(f"bad vertex {chunk.strip()!r}; expected (x,y)")
        pairs.append((int(match.group(1)), int(match.group(2))))
    return KimberlingPath(pairs)


def _cmd_map(args: argparse.Namespace) -> int:
    path = parse_step_word(args.word)
    n, k = central_index(path)
    image = phi(path)
    if args.debug:
        # the image's A, B and C are the word's north, east and D-step heights
        north, east = _columns(image.vertices)
        labels = (_integers(north), _integers(east), _integers(_d_heights(north, n)))
        print(_MAP_DEBUG % (_vertex_text(image.vertices, False), n, k, *labels))
    else:
        print(_vertex_text(image.vertices, args.compact))
    print(f"n={n} k={k}", file=sys.stderr)
    return 0


def _cmd_unmap(args: argparse.Namespace) -> int:
    vertices = parse_vertex_text(args.vertices).vertices
    n = _image_order(vertices)
    a, b = _columns(vertices)
    try:
        word = _preimage(a, b, n)
    except (MemoryError, OverflowError):  # _preimage's list of n + 1 height slots
        raise LatticeError(f"endpoint ({n + 1},{n}) is too far to unmap") from None
    k = len(a)
    if args.debug:
        c = _d_heights(a, n)
        print(_UNMAP_DEBUG % (word, n, k, _integers(a), _integers(b), _integers(c),
                              _merged(word, a, b, c)))
    else:
        print(word)
    print(f"n={n} k={k}", file=sys.stderr)
    return 0


# the size flags each family needs, for ``count`` and ``enumerate`` alike
_FAMILY_FLAGS = {"delannoy": ("n",), "kimberling": ("i", "j"), "schroder": ("n",)}


def _require_family_flags(args: argparse.Namespace) -> None:
    flags = _FAMILY_FLAGS[args.family]
    if any(getattr(args, flag) is None for flag in flags):
        raise LatticeError(f"{args.command} {args.family} requires --" + " and --".join(flags))


def _cmd_count(args: argparse.Namespace) -> int:
    _require_family_flags(args)
    if args.family == "delannoy":
        value = count_delannoy(args.n) if args.k is None else count_delannoy_by_e(args.n, args.k)
    elif args.family == "kimberling":
        if args.k is None:
            value = count_kimberling(args.i, args.j)
        else:
            value = count_kimberling_by_vertices(args.i, args.j, args.k)
    else:
        value = schroder(args.n)
    print(value)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _require_family_flags(args)
    if args.family == "delannoy":
        if args.k_only is None:
            stream = enumerate_delannoy(args.n)
        else:
            stream = enumerate_delannoy_by_e(args.n, args.k_only)
        for path in stream:
            if args.subdiagonal and not is_subdiagonal_delannoy(path):
                continue
            print(path.word)
    else:
        if args.k_only is None:
            kstream = enumerate_kimberling(args.i, args.j)
        else:
            kstream = enumerate_kimberling_by_vertices(args.i, args.j, args.k_only)
        for kpath in kstream:
            if args.subdiagonal and not below_endpoint_chord(kpath):
                continue
            print(_vertex_text(kpath.vertices, args.compact))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise LatticeError("--count must be >= 0")
    for path in sample_delannoy_stream(args.n, args.count, args.seed):
        print(path.word)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    path = parse_step_word(args.word)
    n, k = central_index(path)
    image = phi(path)
    ends, before_north, before_east = walk_east_steps(path.word)
    east_flags, vertex_flags = diagonal_comparisons(n, ends, image.interior)
    # one column per field of _CLASSIFY_STEP; zip(*ends) splits points into columns
    columns = (
        range(1, k + 1),
        *zip(*ends),
        map(_JSON_BOOL.__getitem__, east_flags),
        *zip(*image.interior),
        map(_JSON_BOOL.__getitem__, vertex_flags),
        before_north,
        before_east,
        map(classify_d_counts, before_north, before_east),
    )
    steps = ",".join(map(_CLASSIFY_STEP.__mod__, zip(*columns)))
    vertices = ",".join(map(_CLASSIFY_VERTEX.__mod__, image.vertices))
    print(
        _CLASSIFY
        % (
            path.word,
            n,
            k,
            _JSON_BOOL[is_subdiagonal_delannoy(path)],
            _JSON_BOOL[is_subdiagonal_kimberling(image)],
            vertices,
            f"[{steps}\n  ]" if k else "[]",
        )
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(CHECKS) if args.check == "all" else [args.check]
    reports = run_checks(names, n_max=args.n_max)
    if args.json:
        print(json.dumps({
            "passed": all(r.passed for r in reports),
            "reports": [r.to_json_dict() for r in reports],
        }, indent=2))
    else:
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            lo, hi = report.n_range
            print(
                f"{status} {report.check_name}: n={lo}..{hi} "
                f"cases={report.total_cases} failures={report.failure_count} "
                f"elapsed={report.elapsed_ms:.0f}ms"
            )
            for record in report.failures:
                print(f"  counterexample: {_dump(record)}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_render(args: argparse.Namespace) -> int:
    path = parse_step_word(args.word)
    spec = RenderSpec(
        cell_size=args.cell,
        show_grid=not args.no_grid,
        show_diagonal=not args.no_diagonal,
        label_steps=args.labels,
    )
    try:
        svg = render_pair(path, spec)
    except OverflowError:  # coordinates are formatted as floats
        raise LatticeError("--cell is too large: the drawing's size overflows a float") from None
    if args.out in (None, "-"):
        print(svg)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(svg)
                handle.write("\n")
        except OSError as exc:
            raise LatticeError(f"cannot write {args.out}: {exc.strerror}") from None
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delannoy-kit",
        description=(
            "Central E/N/D lattice paths, their vertex-path images, exact "
            "counting, and exhaustive verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_map = sub.add_parser("map", help="word in, image vertex list out")
    p_map.add_argument("word", help="step word over E/N/D (must be central)")
    p_map.add_argument("--debug", action="store_true", help="include step labels")
    p_map.add_argument("--compact", action="store_true", help="(x,y);... output")
    p_map.set_defaults(handler=_cmd_map)

    p_unmap = sub.add_parser("unmap", help="vertex list in, word out")
    p_unmap.add_argument("vertices", help='JSON [[x,y],...] or compact "(x,y);(x,y)"')
    p_unmap.add_argument("--debug", action="store_true",
                         help="include the A/B/C extraction and merged sequence")
    p_unmap.set_defaults(handler=_cmd_unmap)

    p_count = sub.add_parser("count", help="exact path counts")
    p_count.add_argument("family", choices=["delannoy", "kimberling", "schroder"])
    p_count.add_argument("--n", type=int)
    p_count.add_argument("--i", type=int)
    p_count.add_argument("--j", type=int)
    p_count.add_argument("--k", type=int)
    p_count.set_defaults(handler=_cmd_count)

    p_enum = sub.add_parser("enumerate", help="stream every path, one per line")
    p_enum.add_argument("family", choices=["delannoy", "kimberling"])
    p_enum.add_argument("--n", type=int)
    p_enum.add_argument("--i", type=int)
    p_enum.add_argument("--j", type=int)
    p_enum.add_argument("--k-only", type=int, dest="k_only",
                        help="restrict to k East steps / k interior vertices")
    p_enum.add_argument("--subdiagonal", action="store_true",
                        help="keep only paths weakly below their endpoint chord")
    p_enum.add_argument("--compact", action="store_true")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_sample = sub.add_parser("sample", help="uniform random central paths")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--count", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.set_defaults(handler=_cmd_sample)

    p_classify = sub.add_parser("classify", help="diagonal geometry of one word")
    p_classify.add_argument("--word", required=True)
    p_classify.set_defaults(handler=_cmd_classify)

    p_verify = sub.add_parser("verify", help="run the exhaustive verification sweeps")
    p_verify.add_argument("--n-max", type=int, default=DEFAULT_N_MAX, dest="n_max")
    p_verify.add_argument("--check", choices=sorted(CHECKS) + ["all"], default="all")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(handler=_cmd_verify)

    p_render = sub.add_parser("render", help="SVG of a word and its image path")
    p_render.add_argument("--word", required=True)
    p_render.add_argument("--out", help="output file (default stdout)")
    p_render.add_argument("--cell", type=int, default=40, help="pixels per lattice unit")
    p_render.add_argument("--no-grid", action="store_true", dest="no_grid")
    p_render.add_argument("--no-diagonal", action="store_true", dest="no_diagonal")
    p_render.add_argument("--labels", action="store_true", help="label E/N steps")
    p_render.set_defaults(handler=_cmd_render)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` builds on its first call and reuses after.

    ``parse_args`` leaves a parser unchanged, so one tree serves every request.
    """
    return build_parser()


class _Grammar(NamedTuple):
    """One subcommand's actions, as its argparse subparser holds them."""

    options: dict[str, argparse.Action]  # option string -> its store or store-const action
    positionals: tuple[argparse.Action, ...]
    required: frozenset[argparse.Action]  # the positionals and the required options
    defaults: dict[str, object]  # the namespace before any token: command, handler, defaults


# the action classes a grammar holds; an action of any other class, a help
# action aside, leaves its subcommand to ``parse_args``
_STORE_CONST = (argparse._StoreConstAction, argparse._StoreTrueAction, argparse._StoreFalseAction)


@functools.cache
def _grammars() -> dict[str, _Grammar]:
    """The grammar of each subcommand ``_parse_plain`` can parse, read once
    from ``_parser()``.  A help action's option strings are left out, so
    ``-h`` goes to ``parse_args``; so does every argv of a subcommand with a
    mutually exclusive group, or with a store action that takes other than
    one value or has a string default its type would convert."""
    (subparsers,) = _parser()._subparsers._group_actions
    grammars = {}
    for name, sub in subparsers.choices.items():
        options, positionals, defaults = {}, [], {"command": name}
        for action in sub._actions:
            kind = type(action)
            if kind is argparse._HelpAction:
                continue
            if kind is argparse._StoreAction:
                if action.nargs is not None or (isinstance(action.default, str) and action.type):
                    break
            elif kind not in _STORE_CONST:
                break
            if action.option_strings:
                options.update(dict.fromkeys(action.option_strings, action))
            else:
                positionals.append(action)
            if action.default is not argparse.SUPPRESS:
                defaults.setdefault(action.dest, action.default)
        else:
            if not sub._mutually_exclusive_groups:
                required = frozenset(action for action in sub._actions if action.required)
                for dest, value in sub._defaults.items():  # set_defaults: the handler
                    defaults.setdefault(dest, value)
                grammars[name] = _Grammar(options, tuple(positionals), required, defaults)
    return grammars


def _parse_plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace ``parse_args(argv)`` builds, for a plain argv; else None.

    Plain means: the first token names a subcommand in ``_grammars()``; each
    later token is one of its option strings, the value that follows a store
    option, or its next positional, and no value starts with "-"; each value
    passes its action's type and choices; and every positional and required
    option is given.  A repeated option keeps its last value, as in argparse.
    Help, abbreviations, ``--opt=value``, ``--``, extra positionals and bad
    values are not plain."""
    grammar = _grammars().get(argv[0]) if argv else None
    if grammar is None:
        return None
    values = dict(grammar.defaults)
    seen = set()
    positionals = iter(grammar.positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        action = grammar.options.get(token)
        if action is not None and action.nargs == 0:  # store_true and kin take no value
            values[action.dest] = action.const
            seen.add(action)
            continue
        if action is None:
            action, value = next(positionals, None), token
        else:
            value = next(tokens, "-")  # a missing value reads as one starting with "-"
        if action is None or value.startswith("-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        seen.add(action)
    if not grammar.required <= seen:
        return None
    return argparse.Namespace(**values)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code.

    May be called any number of times in one process; the parser and its
    grammars are built once.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except ValueError as exc:  # LatticeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early: see "Note on SIGPIPE" in the signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
