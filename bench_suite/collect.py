#!/usr/bin/env python3
"""Runs bench_suite on two checkouts in alternating pairs.

    python3 bench_suite/collect.py --side parent=../parent --side change=. \
        --seeds 1-10 --out results/

For every workload and seed, runs bench_suite/run.py once in each checkout,
alternating which side goes first from one pair to the next (choosing-metrics
§8). Both sides may name the same checkout, to measure run-to-run spread.
Each run appends one JSON line to OUT/<side>.jsonl:

    {"side", "workload", "seed", "order", "correct", "attempted", "failed",
     "metrics": {name: {"value", "unit"}}}

where `order` is the run's position in the whole collection. compare.py reads
these files.
"""

import argparse
import json
import os
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench_suite/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"collect.py: no result from {checkout} "
                         f"({workload}, seed {seed}, exit {done.returncode})")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True,
                        help="NAME=CHECKOUT; give exactly two")
    parser.add_argument("--seeds", default="1-10",
                        help="seed list, e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sides = [s.split("=", 1) for s in args.side]
    if len(sides) != 2 or any(len(s) != 2 for s in sides):
        parser.error("give exactly two --side NAME=CHECKOUT")
    with open(os.path.join(sides[0][1], "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)

    order = 0
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            pair = sides if i % 2 == 0 else sides[::-1]
            for name, checkout in pair:
                result = run_once(checkout, workload, seed, seconds,
                                  args.trace)
                record = {"side": name, "workload": workload, "seed": seed,
                          "order": order, **result}
                order += 1
                with open(os.path.join(args.out, f"{name}.jsonl"), "a") as f:
                    f.write(json.dumps(record) + "\n")
                print(f"{workload} seed={seed} {name}: correct="
                      f"{result['correct']} failed={result['failed']}",
                      file=sys.stderr)


if __name__ == "__main__":
    main()
