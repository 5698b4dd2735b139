#!/usr/bin/env python3
"""Runs one bench_suite workload and prints its metrics as one JSON line.

    python3 bench_suite/run.py --workload reach-serve --seed 7 --seconds 20 --trace 0

Run from the root of a pereach checkout. The harness is first built from
this checkout's sources (CMake, into $CARGO_TARGET_DIR or .bench_build),
then run with the workload and seed. Everything the build and the harness
print goes to standard error; the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics BENCHMARK.json names with --trace 0, and its
per-layer metrics with --trace 1 (a traced run, whose Chrome trace is left
in the build directory). Exits non-zero, without a result line, when the
build or the run fails or a named metric is missing; exits 1 after the
result line when the harness found a wrong answer.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a single run may take, build excluded (the harness is expected to
# finish in well under a minute).
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def configured_for(build_dir):
    """True when build_dir holds a CMake cache configured from this tree."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            return f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" in f.read()
    except OSError:
        return False


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"{ROOT} is not a pereach checkout (no CMakeLists.txt or src/)")
    steps = []
    if not configured_for(build_dir):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "bench_suite"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "bin", "bench_suite")


def check_trace(path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"trace {path} is not valid trace-event JSON: {e}")
    if not events:
        fail(f"trace {path} holds no spans")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    binary = build(build_dir)

    stem = os.path.join(build_dir, f"{args.workload}-{args.seed}")
    result_path = stem + ".result.json"
    trace_path = stem + ".trace.json"
    for stale in (result_path, trace_path):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--json={result_path}"]
    if args.trace:
        cmd.append(f"--trace={trace_path}")
    # Own process group: on a timeout the harness and the worker processes
    # it spawned are killed together.
    harness = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               start_new_session=True)
    try:
        returncode = harness.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        fail(f"bench_suite ran longer than {RUN_TIMEOUT_S} s")
    try:
        with open(result_path) as f:
            result = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"bench_suite exited {returncode} without a result: {e}")
    if args.trace:
        check_trace(trace_path)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        value = None if got is None else got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {m['name']} is not measured on {args.workload}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} is in {got['unit']}, not {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] and returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
