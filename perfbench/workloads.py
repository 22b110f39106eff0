"""The four workloads: what one round runs, and how its outputs are checked.

All are closed loops with one client.  Sizes and per-round op counts are
fixed; the seed picks only the paths, words and sampler seeds, so every
seed asks for the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from typing import Callable, NamedTuple

import oracles
from spans import Tracer, instrument

SWEEP_N_MAX = 8
CHECK_NAMES = ("roundtrip", "counts", "subdiagonal", "per-step")

# cli-requests: requests per round by command and size.  The two
# ``unmap --debug`` requests at n = 16384 are the slowest 2% of a round, so
# the p99 tail falls inside one group of like requests.
REQUEST_MIX = {
    "map": {8: 12, 64: 8, 512: 3, 4096: 1, 16384: 1},
    "unmap": {8: 12, 64: 8, 512: 3, 4096: 1, 16384: 1},
    "unmap-debug": {8: 11, 64: 8, 512: 3, 4096: 1, 16384: 2},
    "classify": {8: 12, 64: 8, 512: 3, 4096: 2},
}

# sample-exact: 21 ops per round, odd so the median is one op kind; the
# four draws at n = 1024 are the slowest 19%, so the p90 tail falls inside them.
SAMPLE_MIX = [(1024, 1)] * 4 + [(512, 1), (512, 2), (256, 3), (128, 2), (64, 3)]
COUNT_MIX = [  # (family, n, k or None); kimberling asks for (i, j) = (n + 1, n)
    ("delannoy", 1024, None),
    ("delannoy", 256, None),
    ("delannoy", 128, None),
    ("delannoy", 512, 256),
    ("delannoy", 64, 32),
    ("kimberling", 1024, None),
    ("kimberling", 256, None),
    ("kimberling", 512, 300),
    ("kimberling", 128, 10),
    ("schroder", 1024, None),
    ("schroder", 512, None),
    ("schroder", 64, None),
]
# Today this exits 2 ("Exceeds the limit (4300 digits)"); it is run once per
# sample-exact run, outside the timed loop, and reported as a known defect.
DEFECT_PROBE = ["count", "schroder", "--n", "8192"]

COUNT_FUNCS = {
    "counting.count_delannoy",
    "counting.count_delannoy_by_e",
    "counting.count_kimberling",
    "counting.count_kimberling_by_vertices",
    "counting.schroder",
}
# per-layer metric -> the spans (``<module>.<function>``) whose time it sums
LAYER_TIMES = {
    "counting.enum_words_s": {"counting.enumerate_delannoy_by_e", "counting.enumerate_delannoy"},
    "counting.enum_vertex_s": {
        "counting.enumerate_kimberling_by_vertices",
        "counting.enumerate_kimberling",
    },
    "counting.sample_s": {"counting.sample_delannoy_stream", "counting.sample_delannoy"},
    "counting.count_s": COUNT_FUNCS,
    "lattice_core.word_build_s": {"lattice_core.DelannoyPath"},
    "lattice_core.vertex_build_s": {"lattice_core.KimberlingPath"},
    "lattice_core.parse_s": {
        "lattice_core.parse_step_word",
        "lattice_core.make_kimberling",
        "lattice_core.central_index",
    },
    "bijection.phi_s": {"bijection.phi"},
    "bijection.phi_inverse_s": {"bijection.phi_inverse"},
    "bijection.inverse_parts_s": {"bijection.inverse_parts"},
    "geometry.subdiag_word_s": {"geometry.is_subdiagonal_delannoy"},
    "geometry.subdiag_vertex_s": {
        "geometry.is_subdiagonal_kimberling",
        "geometry.below_endpoint_chord",
    },
    "geometry.per_step_s": {
        "geometry.diagonal_flags",
        "geometry.preceding_d_counts",
        "geometry.east_ends",
        "geometry.classify_d_counts",
    },
}
# per-layer metric -> the spans whose item counts it sums
LAYER_COUNTS = {
    "counting.enum_words": LAYER_TIMES["counting.enum_words_s"],
    "counting.enum_vertex": LAYER_TIMES["counting.enum_vertex_s"],
    "counting.sample_draws": LAYER_TIMES["counting.sample_s"],
    "counting.count_calls": COUNT_FUNCS,
    "bijection.calls": {
        "bijection.phi",
        "bijection.phi_inverse",
        "bijection.inverse_parts",
        "bijection.step_labels",
    },
}
# the layer passes that together do what one sweep unit needs once
SINGLE_PASS = (
    LAYER_TIMES["counting.enum_words_s"]
    | LAYER_TIMES["counting.enum_vertex_s"]
    | COUNT_FUNCS
    | {"bijection.phi", "bijection.phi_inverse"}
    | LAYER_TIMES["geometry.subdiag_word_s"]
    | LAYER_TIMES["geometry.subdiag_vertex_s"]
    | LAYER_TIMES["geometry.per_step_s"]
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    out: dict[str, float] = {m: tracer.total(names) for m, names in LAYER_TIMES.items()}
    out.update({m: tracer.items(names) for m, names in LAYER_COUNTS.items()})
    return out


def rounds_for(seconds: float, run_round: Callable[[], None]) -> None:
    """Run whole rounds until ``seconds`` is spent; start another only if the
    previous one would still fit, so a run ends near ``seconds`` or after one round."""
    start = time.perf_counter()
    last = 0.0
    rounds = 0
    while rounds == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        run_round()
        last = time.perf_counter() - t0
        rounds += 1


# ---------------------------------------------------------------------------
# sweeps


class SweepWorkload:
    """``run_checks`` of all four checks at n_max = 8 with a fixed worker count."""

    def __init__(self, harness, workers: int) -> None:
        self.harness = harness
        self.workers = workers
        self.expected = oracles.sweep_totals(SWEEP_N_MAX)
        self.schroder = oracles.schroder_row(SWEEP_N_MAX)
        self.params = {"n_max": SWEEP_N_MAX, "checks": list(CHECK_NAMES), "workers": workers}
        self.errors: list[str] = []
        self.attempted = 0

    def sweep(self, workers: int, tracer: Tracer | None = None) -> dict[str, float]:
        """One sweep, one ``run_checks`` call per check; returns seconds per check."""
        times = {}
        spans = tracer.span("harness.run_checks") if tracer else contextlib.nullcontext()
        with spans:
            for name in CHECK_NAMES:
                check_span = (
                    tracer.span(f"harness.check.{name}") if tracer else contextlib.nullcontext()
                )
                with check_span:
                    t0 = time.perf_counter()
                    try:
                        reports = self.harness.run_checks(
                            [name], n_max=SWEEP_N_MAX, workers=workers
                        )
                    except Exception as exc:  # a crash is a failed check
                        reports = exc
                    times[name] = time.perf_counter() - t0
                self._check(name, reports)
        return times

    def _check(self, name: str, reports) -> None:
        self.attempted += 1
        if isinstance(reports, Exception) or len(reports) != 1:
            self.errors.append(f"{name}: run_checks gave {reports!r}")
            return
        problems = []
        (report,) = reports
        if report.check_name != name or not report.passed or report.failure_count:
            problems.append(f"report failed: {report.failure_count} failures")
        if report.total_cases != self.expected[name]:
            problems.append(f"total_cases {report.total_cases} != {self.expected[name]}")
        if name == "subdiagonal":
            for n, oracle in enumerate(self.schroder):
                row = report.details.get("schroder", {}).get(str(n), {})
                if set(row.values()) != {oracle}:
                    problems.append(f"schroder row n={n}: {row} != {oracle}")
        if name == "per-step":
            tallies = report.details.get("case_tallies", {})
            for n in range(SWEEP_N_MAX + 1):
                east = sum(k * oracles.words(n, k) for k in range(n + 1))
                if sum(tallies.get(str(n), {}).values()) != east:
                    problems.append(f"case tallies n={n} do not sum to {east}")
        if problems:
            self.errors.append(f"{name}: " + "; ".join(problems))

    def timed(self, seconds: float) -> dict:
        walls: list[float] = []
        per_check: dict[str, list[float]] = {name: [] for name in CHECK_NAMES}

        def one_round() -> None:
            times = self.sweep(self.workers)
            walls.append(sum(times.values()))
            for name, value in times.items():
                per_check[name].append(value)

        rounds_for(seconds, one_round)
        cases = sum(self.expected.values())
        return {
            "latencies": walls,
            "throughputs": [cases / wall for wall in walls],
            "details": {
                "sweep_s": walls,
                "cases_per_sweep": cases,
                **{f"verify.{n}_s": per_check[n] for n in CHECK_NAMES},
            },
        }

    def traced(self, tracer: Tracer) -> dict[str, float]:
        t0 = time.perf_counter()
        self.sweep(self.workers)
        untraced = time.perf_counter() - t0
        t0 = time.perf_counter()
        with tracer.span("sweep", key="traced"):
            self.sweep(self.workers, tracer)
        traced = time.perf_counter() - t0
        metrics = {
            f"verify.{name}_s": tracer.total({f"harness.check.{name}"}) for name in CHECK_NAMES
        }
        if self.workers > 1:
            t0 = time.perf_counter()
            with tracer.span("sweep", key="serial"):
                self.sweep(1, tracer)
            serial = time.perf_counter() - t0
        else:
            serial = untraced
        unit_times = self.layer_passes(tracer)
        single_pass = sum(unit_times)
        metrics.update(
            {
                "harness.single_pass_s": single_pass,
                "harness.redundancy": serial / single_pass,
                "harness.units": len(unit_times),
                "harness.max_unit_share": max(unit_times) / single_pass,
                "harness.critical_unit_s": max(unit_times),
                "harness.unit_imbalance": makespan(unit_times, self.workers)
                * self.workers
                / single_pass,
                "harness.parallel_efficiency": serial / (self.workers * untraced),
                "trace.overhead_s": traced - untraced,
            }
        )
        return metrics

    def layer_passes(self, tracer: Tracer) -> list[float]:
        """One pass of each layer over every (n, k) unit; returns each unit's
        single-pass seconds, in the harness's unit order."""
        unit_times = []
        for n in range(SWEEP_N_MAX + 1):
            for k in range(n + 1):
                first = len(tracer.spans)
                with tracer.span("harness.unit", key=f"{n},{k}"):
                    self._unit_pass(tracer, n, k)
                unit_times.append(
                    sum(s[3] - s[2] for s in tracer.spans[first:] if s[1] in SINGLE_PASS)
                )
        return unit_times

    def _unit_pass(self, tracer: Tracer, n: int, k: int) -> None:
        from delannoy_kit import bijection, counting, geometry, lattice_core

        def enum(name: str, gen) -> list:
            start = time.perf_counter()
            out = list(gen)
            tracer.record(name, start, time.perf_counter(), len(out))
            return out

        paths = enum("counting.enumerate_delannoy_by_e", counting.enumerate_delannoy_by_e(n, k))
        kpaths = enum(
            "counting.enumerate_kimberling_by_vertices",
            counting.enumerate_kimberling_by_vertices(n + 1, n, k),
        )
        words, verts = [p.word for p in paths], [kp.vertices for kp in kpaths]
        tracer.timed_pass(
            "counting.count_delannoy_by_e", counting.count_delannoy_by_e, [(n, k)], star=True
        )
        tracer.timed_pass(
            "counting.count_kimberling_by_vertices",
            counting.count_kimberling_by_vertices,
            [(n + 1, n, k)],
            star=True,
        )
        if k == n:
            tracer.timed_pass("counting.schroder", counting.schroder, [n])
        tracer.timed_pass("lattice_core.DelannoyPath", lattice_core.DelannoyPath, words)
        tracer.timed_pass("lattice_core.KimberlingPath", lattice_core.KimberlingPath, verts)
        images = tracer.timed_pass("bijection.phi", bijection.phi, paths)
        back = tracer.timed_pass("bijection.phi_inverse", bijection.phi_inverse, kpaths)
        for name, predicate, inputs in (
            ("is_subdiagonal_delannoy", geometry.is_subdiagonal_delannoy, paths),
            ("is_subdiagonal_kimberling", geometry.is_subdiagonal_kimberling, kpaths),
            ("diagonal_flags", geometry.diagonal_flags, paths),
        ):
            tracer.timed_pass(f"geometry.{name}", predicate, inputs)
        pairs = tracer.timed_pass(
            "geometry.preceding_d_counts", geometry.preceding_d_counts, paths
        )
        tracer.timed_pass(
            "geometry.classify_d_counts",
            geometry.classify_d_counts,
            [pair for path_pairs in pairs for pair in path_pairs],
            star=True,
        )
        self.attempted += 1
        size = oracles.words(n, k)
        if not (
            len(paths) == len(kpaths) == size == oracles.kimberling_by_vertices(n + 1, n, k)
            and sorted(b.word for b in back) == words
            and set(images) == set(kpaths)
        ):
            self.errors.append(f"layer pass ({n},{k}): families or bijection disagree")


def makespan(unit_times: list[float], workers: int) -> float:
    """Finish time when units are handed in order to whichever worker frees first."""
    loads = [0.0] * workers
    for t in unit_times:
        i = loads.index(min(loads))
        loads[i] += t
    return max(loads)


# ---------------------------------------------------------------------------
# CLI requests


class Op(NamedTuple):
    command: str  # map, unmap, classify, sample or count
    n: int
    argv: list[str]
    check: Callable[[str], bool]


class Done(NamedTuple):
    """A request that succeeded; holds no reference to its inputs or output."""

    label: str  # the command, with --debug when given
    command: str
    n: int
    seconds: float
    output_bytes: int


def random_word(rng: random.Random, n: int) -> str:
    """A uniformly shuffled central word to (n, n) with round(n / sqrt 2) East
    steps, the most common East count among central paths."""
    k = round(n / math.sqrt(2))
    letters = ["E"] * k + ["N"] * k + ["D"] * (n - k)
    rng.shuffle(letters)
    return "".join(letters)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def request_op(command: str, word: str, compact: bool) -> Op:
    n = len(word) - word.count("E")
    verts = oracles.image(word)
    text = ";".join(f"({x},{y})" for x, y in verts) if compact else _dump(verts)
    if command == "map":
        return Op("map", n, ["map", word], lambda out: out == _dump(verts) + "\n")
    if command == "unmap":
        return Op("unmap", n, ["unmap", text], lambda out: out == word + "\n")
    if command == "unmap-debug":
        return Op(
            "unmap",
            n,
            ["unmap", text, "--debug"],
            lambda out: json.loads(out) == oracles.unmap_debug(word),
        )
    return Op(
        "classify",
        n,
        ["classify", "--word", word],
        lambda out: json.loads(out) == oracles.classify(word),
    )


def cli_round(rng: random.Random) -> list[Op]:
    ops = []
    for command, sizes in REQUEST_MIX.items():
        for n, count in sizes.items():
            for i in range(count):
                ops.append(request_op(command, random_word(rng, n), compact=i % 2 == 1))
    rng.shuffle(ops)
    return ops


class CountOracle:
    def __init__(self, n_max: int) -> None:
        self.delannoy = oracles.delannoy_row(n_max)
        self.schroder = oracles.schroder_row(n_max)

    def __call__(self, family: str, n: int, k: int | None) -> int:
        if family == "schroder":
            return self.schroder[n]
        if k is None:  # K(n+1, n) is equinumerous with the central paths to (n, n)
            return self.delannoy[n]
        if family == "delannoy":
            return oracles.words(n, k)
        return oracles.kimberling_by_vertices(n + 1, n, k)


def sample_round(rng: random.Random, oracle: CountOracle) -> list[Op]:
    ops = []
    for n, count in SAMPLE_MIX:
        seed = str(rng.randrange(2**31))
        argv = ["sample", "--n", str(n), "--count", str(count), "--seed", seed]
        ops.append(
            Op(
                "sample",
                n,
                argv,
                lambda out, n=n, count=count: len(out.split()) == count
                and all(oracles.is_central_word(w, n) for w in out.split()),
            )
        )
    for family, n, k in COUNT_MIX:
        argv = ["count", family]
        argv += ["--i", str(n + 1), "--j", str(n)] if family == "kimberling" else ["--n", str(n)]
        argv += [] if k is None else ["--k", str(k)]
        expected = f"{oracle(family, n, k)}\n"
        ops.append(Op("count", n, argv, lambda out, expected=expected: out == expected))
    rng.shuffle(ops)
    return ops


def run_request(cli, op: Op) -> tuple[float, str, str | None]:
    """One in-process ``cli.run``; returns (seconds, stdout, error or None).
    The output check runs after the clock stops."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.run(op.argv)
            elapsed = time.perf_counter() - t0
    except Exception as exc:  # a crash is a failed op, not a benchmark failure
        return 0.0, "", f"{op.argv[:2]} n={op.n} raised {exc!r}"
    stdout = out.getvalue()
    if code != 0:
        message = err.getvalue().strip()[:200]
        return elapsed, stdout, f"{op.argv[:2]} n={op.n} exit {code}: {message}"
    try:
        matches = op.check(stdout)
    except ValueError:  # output that is not JSON or not an integer
        matches = False
    if not matches:
        return elapsed, stdout, f"{op.argv[:2]} n={op.n}: output does not match the oracle"
    return elapsed, stdout, None


class RequestWorkload:
    """Closed-loop, one-client ``cli.run`` requests in fixed-composition rounds."""

    def __init__(self, name: str, cli, seed: int) -> None:
        self.cli = cli
        self.rng = random.Random(seed)
        self.errors: list[str] = []
        self.attempted = 0
        if name == "cli-requests":
            self.make_round = lambda: cli_round(self.rng)
            self.params = {"mix": REQUEST_MIX, "east_steps": "round(n / sqrt 2)"}
            self.probe = None
        else:
            oracle = CountOracle(max(n for _, n, _ in COUNT_MIX))
            self.make_round = lambda: sample_round(self.rng, oracle)
            self.params = {
                "samples": SAMPLE_MIX,
                "counts": COUNT_MIX,
                "defect_probe": DEFECT_PROBE,
            }
            self.probe = DEFECT_PROBE

    def run_ops(self, ops: list[Op], tracer: Tracer | None = None) -> list[Done]:
        done = []
        for i, op in enumerate(ops):
            self.attempted += 1
            if tracer is None:
                elapsed, out, error = run_request(self.cli, op)
            else:
                with tracer.span(f"cli.{op.command}", key=f"req{i}"):
                    elapsed, out, error = run_request(self.cli, op)
            if error:
                self.errors.append(error)
            else:
                label = op.command + (" --debug" if "--debug" in op.argv else "")
                done.append(Done(label, op.command, op.n, elapsed, len(out.encode())))
        return done

    def timed(self, seconds: float) -> dict:
        rounds: list[list[Done]] = []
        rounds_for(seconds, lambda: rounds.append(self.run_ops(self.make_round())))
        done = [d for r in rounds for d in r]
        composition: dict[str, int] = {}
        for d in done:
            key = f"{d.label} n={d.n}"
            composition[key] = composition.get(key, 0) + 1
        return {
            "latencies": [d.seconds for d in done],
            "throughputs": [len(r) / sum(d.seconds for d in r) for r in rounds if r],
            "details": {
                "rounds": len(rounds),
                "ops_per_round": len(done) // len(rounds),
                "input_letters": sum(d.n for d in done),
                "composition": dict(sorted(composition.items())),
                "known_defects": self.defect_probe(),
            },
        }

    def traced(self, tracer: Tracer, n_rounds: int = 2) -> dict[str, float]:
        ops = [op for _ in range(n_rounds) for op in self.make_round()]
        t0 = time.perf_counter()
        done = self.run_ops(ops)
        untraced = time.perf_counter() - t0
        t0 = time.perf_counter()
        with instrument(tracer, self.cli):
            traced_done = self.run_ops(ops, tracer)
        traced = time.perf_counter() - t0
        metrics: dict[str, float] = {}
        for command in ("map", "unmap", "classify", "sample", "count"):
            times = sorted(d.seconds for d in done if d.command == command)
            metrics[f"cli.{command}_p50_ms"] = 1000 * percentile(times, 50) if times else 0.0
        requests = {s[0] for s in tracer.spans if s[4] is None}
        in_requests = sum(s[3] - s[2] for s in tracer.spans if s[0] in requests)
        in_layers = sum(s[3] - s[2] for s in tracer.spans if s[4] in requests)
        parser = sorted(tracer.durations("cli.build_parser"))
        metrics.update(
            {
                "cli.build_parser_ms": 1000 * percentile(parser, 50) if parser else 0.0,
                "cli.residual_s": in_requests - in_layers,
                "cli.output_bytes": sum(d.output_bytes for d in traced_done),
                "trace.overhead_s": traced - untraced,
            }
        )
        return metrics

    def defect_probe(self) -> dict:
        """Run the known-defect request once, under the default int/str limit."""
        if self.probe is None:
            return {}

        def check(out: str) -> bool:  # reached only once the defect is fixed
            expected = oracles.schroder_row(int(self.probe[-1]))[-1]
            with oracles.int_digits(expected.bit_length()):
                return int(out) == expected

        _, _, error = run_request(self.cli, Op("count", int(self.probe[-1]), self.probe, check))
        return {" ".join(self.probe): error or "fixed: exit 0, output matches the oracle"}


def percentile(ordered: list[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
