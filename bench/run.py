"""thetanulls benchmark: one workload per invocation, run in a child process.

    python3 bench/run.py --workload etale-forms --seed 1 --seconds 60 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``, so nothing needs installing.  Set-up time is taken
from several fresh interpreters that import ``thetanulls.cli`` and build
the argv list; the measured passes then run in one more child (see
``worker.py``).  Stdout gets one JSON line with the run's record
(environment, seed, per-invocation stdout sha256, wall times and every
metric with its unit and sample count) and, last, the result line:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Exits non-zero without a result line when the program is
missing or the child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 6  # before the workload child and again after it, so two stretches of host load are sampled
DEADLINE_S = 170.0  # a run must end within 180 s


def setup_times(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    ``thetanulls.cli`` and generated the workload's argv list."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-only"],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - started)
            proc.stdout.read()
            if proc.wait(timeout=30) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


def fastest_calls(latencies: list[list[float]]) -> list[float]:
    """Each invocation's fastest latency across the run's passes.

    On a shared host, contention from neighbours only ever adds time, and
    it comes and goes over seconds to minutes; the fastest of many
    repetitions of a call is the reading it moves least (see README.md,
    Steadiness).
    """
    return [min(samples) for samples in zip(*latencies)]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "thetanulls" / "cli.py").is_file():
        print(f"no thetanulls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    argv = [str(a) for a in (sys.executable, WORKER, "--workload", args.workload, "--seed", args.seed,
                             "--seconds", args.seconds, "--trace", args.trace)]
    try:
        setups = [] if args.trace else setup_times(args.workload, args.seed)
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=DEADLINE_S - (time.perf_counter() - started))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                print("workload child ran past the deadline", file=sys.stderr)
                return 1
        if proc.returncode != 0:
            print(f"workload child exited with {proc.returncode}", file=sys.stderr)
            return 1
        if not args.trace:
            setups += setup_times(args.workload, args.seed)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    lines = out.splitlines()
    child = json.loads(lines[-1])  # lines[0] is the worker's "ready"

    walls, latencies = child["walls_s"], child["latencies_s"]
    # Record-only metrics: call_p90_ms spreads by up to a third from run to
    # run while the calls of a workload all cost about the same, so it shows
    # the host, not the program (see README.md, Steadiness).
    recorded = {}
    if args.trace:
        traced = child["traced"]
        metrics = {"trace.overhead_s": (traced["overhead_s"], "s", len(traced["walls_s"]))}
        for name, value in traced["counters"].items():
            metrics[name] = (value, "B" if name == "report.bytes" else "count", len(traced["walls_s"]))
        for layer, value in traced["layer_self_s"].items():
            metrics[f"{layer}.self_s"] = (value, "s", len(traced["walls_s"]))
        correct = child["failed"] == 0 and not traced["problems"]
    else:
        calls = sum(map(len, latencies))
        fastest = fastest_calls(latencies)
        metrics = {
            "wall_s": (sum(fastest), "s", calls),
            "call_p50_ms": (1000 * percentile(fastest, 50), "ms", calls),
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "peak_rss_mb": (child["peak_rss_mb"], "MB", 1),
        }
        recorded["call_p90_ms"] = (1000 * percentile(fastest, 90), "ms", calls)
        correct = child["failed"] == 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "untraced_walls_s": walls,
        "untraced_latencies_s": latencies,
        "traced_walls_s": child.get("traced", {}).get("walls_s", []),
        "spans": child.get("traced", {}).get("spans", {}),
        "setup_s": setups,
        "failed_frac": child["failed"] / child["attempted"],
        "problems": child["problems"],
        "stdout_sha256": child["stdout_sha256"],
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in (metrics | recorded).items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
