#!/usr/bin/env python3
"""The clearsim benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec

Run from the repository root. Each call builds the simulator from src/
into $CARGO_TARGET_DIR (default .bench_build) with CMake, then runs the
workload in its own clearsim_perfbench process. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. --write-spec rewrites BENCHMARK.json from SPEC below.

See perfbench/README.md for the workloads and how to read the output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BINARY = "clearsim_perfbench"

# Processes that only set up; setup_s is the median of their set-up
# times and the measured run's.
SETUP_SPAWNS = 9

# A run must end within this many seconds once the build is done.
DEADLINE_S = 175

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 30,
    "workloads": [
        {
            "name": "htm-abort-storm",
            "why": "B,P x deque,queue,stack,mwobject,kmeans-h,intruder,"
            "vacation-h x retries 1,4 x 4 seeds: ~15 aborts per commit, "
            "no cacheline locks, so the TxAbort unwind path dominates",
        },
        {
            "name": "clear-low-abort",
            "why": "C,W x arrayswap,bitcoin,bst,hashmap,intruder,kmeans-l,"
            "mwobject,stack,ssca2 x retries 1,4 x 4 seeds: fewer aborts, "
            "cacheline locks; events, locks and memory dominate",
        },
        {
            "name": "adaptive-mix",
            "why": "C,A,A+faults-forced-abort x 8 STAMP kernels x retries "
            "1,4 x 2 seeds: every A point re-simulates its C point as a "
            "capture pass, and faulted cells arm the invariant watchdog",
        },
    ],
    "end_to_end": [
        {"name": "points_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "sim_cycles_per_s", "unit": "cycles/s",
         "better": "higher", "bound": 0.25},
        {"name": "point_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "point_ms_p95", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.1},
        {"name": "point_ok_ratio", "unit": "ratio", "better": "higher",
         "bound": 0.01},
    ],
    "per_layer": [
        {"name": "sim.events_per_point", "unit": "count", "better": "lower"},
        {"name": "sim.run_ns_per_event", "unit": "ns", "better": "lower"},
        {"name": "htm.aborts_per_point", "unit": "count", "better": "lower"},
        {"name": "htm.commit_ratio", "unit": "ratio", "better": "higher"},
        {"name": "htm.aborted_uop_share", "unit": "ratio",
         "better": "lower"},
        {"name": "htm.fallback_share", "unit": "ratio", "better": "lower"},
        {"name": "core.system_build_us", "unit": "us", "better": "lower"},
        {"name": "core.cl_attempt_share", "unit": "ratio",
         "better": "lower"},
        {"name": "mem.accesses_per_point", "unit": "count",
         "better": "lower"},
        {"name": "mem.l1_hit_ratio", "unit": "ratio", "better": "higher"},
        {"name": "mem.invalidations_per_point", "unit": "count",
         "better": "lower"},
        {"name": "mem.cl_locks_per_point", "unit": "count",
         "better": "lower"},
        {"name": "workloads.make_us", "unit": "us", "better": "lower"},
        {"name": "workloads.init_us", "unit": "us", "better": "lower"},
        {"name": "workloads.verify_us", "unit": "us", "better": "lower"},
        {"name": "energy.compute_us", "unit": "us", "better": "lower"},
        {"name": "analysis.capture_ms", "unit": "ms", "better": "lower"},
        {"name": "analysis.capture_share", "unit": "ratio",
         "better": "lower"},
        {"name": "analysis.captures_per_point", "unit": "count",
         "better": "lower"},
        {"name": "fault.watchdog_ns_per_event", "unit": "ns",
         "better": "lower"},
        {"name": "harness.point_overhead_us", "unit": "us",
         "better": "lower"},
        {"name": "harness.trace_overhead", "unit": "ratio",
         "better": "lower"},
        {"name": "harness.parallel_efficiency", "unit": "ratio",
         "better": "higher"},
        {"name": "harness.sweep_csv_us", "unit": "us", "better": "lower"},
    ],
}

# Which end-to-end metric each layer metric should move, and where.
LAYER_MOVES = {
    "sim.": "sim_cycles_per_s and points_per_s on clear-low-abort",
    "htm.": "points_per_s on htm-abort-storm, far more than on "
            "clear-low-abort",
    "core.": "point_ms_p50 on clear-low-abort",
    "mem.": "sim_cycles_per_s on clear-low-abort",
    "workloads.": "point_ms_p50 on clear-low-abort",
    "energy.": "point_ms_p50 on clear-low-abort",
    "analysis.": "points_per_s on adaptive-mix (0 elsewhere)",
    "fault.": "points_per_s on adaptive-mix (0 elsewhere)",
    "harness.": "points_per_s on every workload",
}


def fail(message):
    """Exit nonzero without printing a result line."""
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then (re)build the binary; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("clearsim sources not found under src/; run from a full "
             "checkout of the repository")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", BINARY,
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / BINARY


def result_of(proc, timeout):
    """Wait for a started binary; return its JSON line."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{BINARY} did not finish within {timeout:.0f}s")
    if proc.returncode != 0:
        fail(f"{BINARY} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{BINARY} printed nothing")
    return json.loads(lines[-1])


def start(argv):
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)


def percentile(values, p):
    """The p-th percentile (1..99) by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def point_latencies(raw):
    """Each grid point's best host latency in ms over the run's passes.

    Sample k ran the point at position k % n of the fixed pass order,
    so each point has one sample per pass. Neighbours on a shared host
    slow whole stretches of a run by up to a third; the best of a
    point's passes drops them (bench/throughput keeps its best of
    three repetitions for the same reason).
    """
    n = raw["grid_points"]
    latency = raw["latency_ms"]
    return [min(latency[i::n]) for i in range(n)]


def end_to_end(raw, setup_samples):
    completed = raw["attempted"] - raw["failed"]
    ok_ratio = completed / raw["attempted"]
    points = point_latencies(raw)
    pass_s = sum(points) / 1e3
    return {
        "points_per_s": raw["grid_points"] * ok_ratio / pass_s,
        "sim_cycles_per_s": raw["grid_cycles"] / pass_s,
        "point_ms_p50": percentile(points, 50),
        "point_ms_p95": percentile(points, 95),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "point_ok_ratio": ok_ratio,
    }


def layer_note(name):
    for prefix, note in LAYER_MOVES.items():
        if name.startswith(prefix):
            return note
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2)
                                             + "\n")
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    binary = str(build())
    # The first run in a checkout builds; the deadline starts after it.
    started = time.monotonic()
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]

    measured = start(base + ["--seconds", str(args.seconds),
                             "--trace", str(args.trace)])
    procs = [measured]
    try:
        # Set up in fresh processes spread over the measured run, so
        # one slow stretch of a shared host does not decide setup_s.
        setup_samples = []
        for _ in range(0 if args.trace else SETUP_SPAWNS):
            time.sleep(args.seconds / SETUP_SPAWNS)
            procs.append(start(base + ["--setup-only"]))
            setup_samples.append(result_of(procs[-1], timeout=60)["setup_s"])
        remaining = DEADLINE_S - (time.monotonic() - started)
        raw = result_of(measured, timeout=max(remaining, 1))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    setup_samples.append(raw["setup_s"])

    errors = list(raw["errors"])
    if args.trace:
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        values = raw["layers"]
    else:
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        values = end_to_end(raw, setup_samples)
    if set(values) != set(units):
        errors.append("metric set differs from SPEC: "
                      + ", ".join(sorted(set(values) ^ set(units))))

    points = point_latencies(raw)
    p95 = percentile(points, 95)
    print(f"workload {args.workload}  seed {args.seed} (params seed "
          f"{raw['params_seed']})  {raw['grid_points']} grid points, "
          f"{raw['passes']} full passes")
    print(f"point latency: {len(raw['latency_ms'])} samples of "
          f"{len(points)} points; beyond p95: "
          f"{sum(v > p95 for v in points)} points, "
          f"{sum(v > p95 for v in raw['latency_ms'])} samples")
    print(f"point_fail_ratio {raw['failed'] / raw['attempted']:.6g} "
          f"({raw['failed']} of {raw['attempted']} points threw)")
    print(f"sim_digest {raw['sim_digest']}")
    if args.trace:
        print(f"sweep_digest {raw['sweep_digest']} (jobs=1 and "
              f"jobs={raw['sweep_jobs']} serializeSweepCache bytes)")
    for name in units:
        if name in values:
            note = layer_note(name) if args.trace else ""
            print(f"  {name:30s} {values[name]:>16.6g} {units[name]:8s} "
                  + (f"moves {note}" if note else ""))
    for error in errors:
        print(f"ERROR: {error}")

    result = {
        "correct": not errors and raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
