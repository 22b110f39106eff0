"""delannoy-kit benchmark: one workload per process, result as the last stdout line.

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics, from a separate traced run whose
spans are written to ``.perfbench_out/``.  The line before the result holds
provenance and the figures behind the metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import warmup
from spans import Tracer
from workloads import RequestWorkload, SweepWorkload, layer_metrics, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep-serial", "sweep-parallel", "cli-requests", "sample-exact")
SETUP_PROBES = 7
TAIL_PERCENTILES = (99.9, 99, 90, 50)
MAX_WORKERS = 8  # sweep-parallel uses min(nproc, MAX_WORKERS) pool workers


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value;
    (100, max) when there are too few samples for any."""
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        if len(ordered) * (100 - p) / 100 >= 10:
            return p, percentile(ordered, p)
    return 100.0, ordered[-1]


def setup_seconds(workload: str) -> list[float]:
    """Wall time of fresh processes that import the package and warm it up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: waiting with one makes subprocess poll in steps of up to 50 ms
        subprocess.run(
            [sys.executable, str(HERE / "warmup.py"), workload],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it has waited for
    (pool workers), whichever is higher.  Read before the set-up probes run."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args: argparse.Namespace, params: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def timed_run(args: argparse.Namespace, workload) -> tuple[dict, dict]:
    result = workload.timed(args.seconds)
    rss = peak_rss_mb()
    setup = setup_seconds(args.workload)
    latencies = result["latencies"]
    tail_p, tail_value = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": statistics.median(result["throughputs"]),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail_value,
        "peak_rss_mb": rss,
    }
    details = {
        **result["details"],
        "latency_samples": len(latencies),
        "tail_percentile": tail_p,
        "setup_probes_s": setup,
        "failed_frac": len(workload.errors) / max(workload.attempted, 1),
    }
    return metrics, details


def traced_run(args: argparse.Namespace, workload) -> tuple[dict, dict]:
    tracer = Tracer()
    metrics = workload.traced(tracer)
    metrics.update(layer_metrics(tracer))
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path)
    return metrics, {"trace_file": str(path.relative_to(ROOT)), "spans": len(tracer.spans)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli, harness = warmup.load_program()
    except warmup.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    if args.workload.startswith("sweep"):
        workers = 1 if args.workload == "sweep-serial" else min(nproc(), MAX_WORKERS)
        workload = SweepWorkload(harness, workers)
    else:
        workload = RequestWorkload(args.workload, cli, args.seed)
    warmup.warm_up(args.workload, cli, harness)

    metrics, details = (traced_run if args.trace else timed_run)(args, workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not args.trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # a workload that never calls a layer records no span for it: report 0
    metrics.update(dict.fromkeys(missing, 0))
    details["errors"] = workload.errors[:20]
    print(json.dumps({"provenance": provenance(args, workload.params), "details": details}))
    print(
        json.dumps(
            {
                "correct": not workload.errors,
                "attempted": workload.attempted,
                "failed": len(workload.errors),
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
