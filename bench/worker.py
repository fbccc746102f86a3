"""One workload in one process: ``bench/run.py`` starts this file.

It imports ``thetanulls.cli`` from the checkout's ``src``, generates the
workload's argv lists from the seed, prints ``ready`` (the end of set-up)
and, unless ``--setup-only``, runs closed-loop passes: one client, one
``cli.main(argv)`` call at a time, stdout captured.  Untraced passes run
for the time budget; with ``--trace 1`` they get half of it and two
traced passes follow.  The last line of stdout is a JSON object with the
measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
TRACED_PASSES = 2


def run_pass(main, argvs: list[list[str]]) -> tuple[float, list[tuple[object, str, float]]]:
    """Wall time of one pass and (exit code, stdout, seconds) per call."""
    calls = []
    started = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:  # a crash is a failed call, not a failed benchmark
                code = "exception: " + traceback.format_exc().splitlines()[-1]
            elapsed = time.perf_counter() - t0
        calls.append((code, out.getvalue(), elapsed))
    return time.perf_counter() - started, calls


def check_pass(argvs, calls, digests: list[str] | None, problems: list[str]) -> tuple[list[str], int]:
    """Digests of each call's stdout and the number of failed calls.

    A call fails on a non-zero exit code, an unparsable or wrong report,
    or stdout that differs from the first pass on the same argv.
    """
    pass_digests, failed = [], 0
    for i, (argv, (code, stdout, _)) in enumerate(zip(argvs, calls)):
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        pass_digests.append(digest)
        issues = []
        if code != 0:
            issues.append(f"exit code {code}")
        else:
            try:
                issues.extend(workloads.check_output(argv, json.loads(stdout)))
            except (ValueError, KeyError, TypeError) as exc:
                issues.append(f"unreadable report: {exc!r}")
        if digests is not None and digest != digests[i]:
            issues.append("stdout differs from the first pass")
        if issues:
            failed += 1
            problems.append(f"{' '.join(argv)}: {'; '.join(issues)}")
    return pass_digests, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from thetanulls import cli

    argvs = workloads.invocations(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"imported thetanulls from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    problems: list[str] = []
    attempted = failed = 0
    digests = None
    walls, latencies = [], []
    # A traced run spends half its budget on untraced passes, the reference
    # for the tracing overhead, and the rest on the traced passes.
    budget = args.seconds / 2 if args.trace else args.seconds
    started = time.perf_counter()
    # Closed loop until the budget is spent; a pass that would overrun it is not started.
    while not walls or time.perf_counter() - started + walls[-1] <= budget:
        wall, calls = run_pass(cli.main, argvs)
        pass_digests, pass_failed = check_pass(argvs, calls, digests, problems)
        digests = digests or pass_digests
        walls.append(wall)
        latencies.append([elapsed for _, _, elapsed in calls])
        attempted += len(calls)
        failed += pass_failed

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "walls_s": walls,
        "latencies_s": latencies,
        "stdout_sha256": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        traced = traced_passes(cli, argvs, digests, statistics.median(walls), args.workload)
        result["attempted"] += TRACED_PASSES * len(argvs)
        result["failed"] += traced.pop("failed")
        result["problems"] = (problems + traced["problems"])[:20]
        result["traced"] = traced
    print(json.dumps(result))
    return 0


def traced_passes(cli, argvs, digests, untraced_wall: float, workload: str) -> dict:
    """Per-layer counters and self times from traced passes.

    ``problems`` lists every traced call that failed and every breach of
    the trace's own checks: exact repetition of all span counts, the
    closed-form counts, and layer self times that add up to the wall.
    """
    import layertrace  # only traced runs pay for importing it

    tracer = layertrace.Tracer()
    walls, selfs, counts, failed, problems = [], [], [], 0, []
    with layertrace.installed(tracer):
        missing = tracer.missing_counter_spans()
        if missing:
            problems.append(f"counter spans not found: {missing}")
        for _ in range(TRACED_PASSES):
            tracer.reset()
            wall, calls = run_pass(cli.main, argvs)
            _, pass_failed = check_pass(argvs, calls, digests, problems)
            failed += pass_failed
            walls.append(wall)
            selfs.append(tracer.layer_self_s())
            counts.append(tracer.counts())
            counters = tracer.counters()
    wall = statistics.mean(walls)
    overhead = wall - untraced_wall
    if any(c != counts[0] for c in counts):
        problems.append("span counts differ between traced passes")
    for name, value in workloads.expected_trace_counts(workload).items():
        if counters[name] != value:
            problems.append(f"{name} = {counters[name]}, closed form gives {value}")
    for pass_wall, layer_self in zip(walls, selfs):
        # The gap is the loop's own stdout capture.  A host that slowed
        # the untraced passes can shrink the overhead reading, so 1 % of the
        # pass is also accepted.
        gap = pass_wall - sum(layer_self.values())
        if not -1e-6 <= gap <= max(overhead, 0.01 * pass_wall):
            problems.append(f"layer self times miss the traced wall by {gap:.6f} s (overhead {overhead:.6f} s)")
    return {
        "failed": failed,
        "problems": problems,
        "walls_s": walls,
        "overhead_s": overhead,
        "counters": counters,
        "layer_self_s": {layer: statistics.mean(s[layer] for s in selfs) for layer in layertrace.LAYERS},
        "spans": {
            name: {"calls": st.calls, "items": st.items, "total_s": st.total, "self_s": st.self_time}
            for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_time)
            if st.calls
        },
    }


if __name__ == "__main__":
    sys.exit(main())
