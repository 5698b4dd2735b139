#!/usr/bin/env python3
"""Compares two sets of bench_suite runs by the rule of choosing-metrics §8.

    python3 bench_suite/compare.py PARENT.jsonl CHANGE.jsonl [--history OUT]
    python3 bench_suite/compare.py --self-test

Each input holds one run per line, as collect.py writes them. Runs pair up by
(workload, seed). For every workload and every metric of BENCHMARK.json the
runs carry, it prints both sides' median and quartiles, the pairs the change
won (ties count for neither side) and a verdict:

  improvement  at least 10 pairs, run in alternating order; the change won at
               least 9 in 10 of them; the medians differ by more than the
               parent's interquartile range; and the change failed no more
               operations than the parent
  regression   an end-to-end metric whose change median is worse than the
               parent's by more than the metric's bound
  unresolved   fewer than 10 pairs; or the parent's own spread (IQR / median)
               exceeds the bound and not every change run reads better than
               every parent run
  worse        a per-layer metric (no bound) the parent wins by the gain rule
  no change    otherwise

Exits 1 when any end-to-end metric regressed or any change run was
incorrect, else 0. --history writes both sides' per workload x metric
summary (median, quartiles, n) and the verdicts as one JSON file.
"""

import argparse
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives the quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def reads_better(a, b, better):
    return a > b if better == "higher" else a < b


def judge(metric, parent, change):
    """Verdict for one metric on one workload's paired runs.

    `parent` and `change` map seed -> run. Returns a dict with the numbers
    behind the verdict.
    """
    name, better = metric["name"], metric["better"]
    bound = metric.get("bound")
    seeds = sorted(s for s in parent.keys() & change.keys()
                   if name in parent[s]["metrics"]
                   and name in change[s]["metrics"])
    if not seeds:
        return None
    pv = [parent[s]["metrics"][name]["value"] for s in seeds]
    cv = [change[s]["metrics"][name]["value"] for s in seeds]
    n = len(seeds)
    wins = sum(reads_better(c, p, better) for p, c in zip(pv, cv))
    losses = sum(reads_better(p, c, better) for p, c in zip(pv, cv))
    p_med, p_q1, p_q3 = summarize(pv)
    c_med, c_q1, c_q3 = summarize(cv)
    iqr = p_q3 - p_q1
    apart = abs(c_med - p_med) > iqr
    scale = abs(p_med) if p_med else math.inf
    spread = iqr / scale
    worse_by = (c_med - p_med) / scale
    if better == "higher":
        worse_by = -worse_by
        all_better = min(cv) > max(pv)
    else:
        all_better = max(cv) < min(pv)

    firsts = [parent[s].get("order", 0) < change[s].get("order", 0)
              for s in seeds]
    alternating = ("order" in parent[seeds[0]] and
                   abs(2 * sum(firsts) - n) <= 1)
    more_failures = (sum(change[s].get("failed", 0) for s in seeds) >
                     sum(parent[s].get("failed", 0) for s in seeds))

    if n < MIN_PAIRS:
        verdict = "unresolved"
    elif (wins >= WIN_SHARE * n and apart and reads_better(c_med, p_med, better)
          and alternating and not more_failures):
        verdict = "improvement"
    elif bound is not None and worse_by > bound:
        verdict = "regression"
    elif bound is not None and spread > bound and not all_better:
        verdict = "unresolved"
    elif (bound is None and losses >= WIN_SHARE * n and apart
          and reads_better(p_med, c_med, better)):
        verdict = "worse"
    else:
        verdict = "no change"
    return {"metric": name, "unit": metric["unit"], "pairs": n, "wins": wins,
            "parent": [p_med, p_q1, p_q3], "change": [c_med, c_q1, c_q3],
            "spread": spread, "worse_by": worse_by, "verdict": verdict}


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], {})[r["seed"]] = r
    return out


def compare(metrics, parent_runs, change_runs):
    parent, change = by_workload(parent_runs), by_workload(change_runs)
    rows = []
    for workload in sorted(parent.keys() & change.keys()):
        for metric in metrics:
            row = judge(metric, parent[workload], change[workload])
            if row is not None:
                rows.append({"workload": workload, **row})
    return rows


def side_summary(runs, metrics):
    out = {}
    for workload, seeded in sorted(by_workload(runs).items()):
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in seeded.values()
                      if metric["name"] in r["metrics"]]
            if values:
                med, q1, q3 = summarize(values)
                out.setdefault(workload, {})[metric["name"]] = {
                    "median": med, "q1": q1, "q3": q3, "n": len(values),
                    "unit": metric["unit"]}
    return out


def print_rows(rows, labels):
    print(f"{'workload':<13} {'metric':<38} "
          f"{labels[0] + ' median [q1, q3]':<32} "
          f"{labels[1] + ' median [q1, q3]':<32} {'wins':>6}  verdict")
    for r in rows:
        p = "{:.5g} [{:.5g}, {:.5g}]".format(*r["parent"])
        c = "{:.5g} [{:.5g}, {:.5g}]".format(*r["change"])
        print(f"{r['workload']:<13} {r['metric']:<38} {p:<32} {c:<32} "
              f"{r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}")


def self_test():
    """Checks every verdict on synthetic runs with known answers."""
    metrics = [
        {"name": "faster", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "slower", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "noisy", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "flat", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "layer", "unit": "us", "better": "lower"},
    ]

    def runs(side, seeds, values, failed=0, first=True):
        out = []
        for i, seed in enumerate(seeds):
            goes_first = (i % 2 == 0) == first
            out.append({"side": side, "workload": "w", "seed": seed,
                        "order": 2 * i + (0 if goes_first else 1),
                        "correct": True, "failed": failed,
                        "metrics": {k: {"value": f(i), "unit": "x"}
                                    for k, f in values.items()}})
        return out

    seeds = list(range(1, 11))
    wobble = [0.3, -0.2, 0.1, -0.4, 0.2, 0.0, -0.1, 0.4, -0.3, 0.1]
    parent = runs("parent", seeds, {
        "faster": lambda i: 100 + wobble[i],
        "slower": lambda i: 100 + wobble[i],
        "noisy": lambda i: 100 + 60 * ((i % 3) - 1),
        "flat": lambda i: 500 + wobble[i],
        "layer": lambda i: 10 + wobble[i] / 10,
    })
    change = runs("change", seeds, {
        "faster": lambda i: 80 + wobble[i],
        "slower": lambda i: 120 + wobble[i],
        "noisy": lambda i: 95 + 60 * (((i + 1) % 3) - 1),
        "flat": lambda i: 500 - wobble[i],
        "layer": lambda i: 12 + wobble[i] / 10,
    }, first=False)
    expected = {"faster": "improvement", "slower": "regression",
                "noisy": "unresolved", "flat": "no change", "layer": "worse"}
    failures = []
    got = {r["metric"]: r["verdict"] for r in compare(metrics, parent, change)}
    if got != expected:
        failures.append(f"verdicts {got} != {expected}")

    few = compare(metrics[:1], parent[:5], change[:5])
    if [r["verdict"] for r in few] != ["unresolved"]:
        failures.append("five pairs must stay unresolved")
    failing = runs("change", seeds, {"faster": lambda i: 80 + wobble[i]},
                   failed=1, first=False)
    if compare(metrics[:1], parent, failing)[0]["verdict"] == "improvement":
        failures.append("a gain with more failed operations must not count")
    unpaired = runs("change", seeds, {"faster": lambda i: 80 + wobble[i]},
                    first=True)
    if compare(metrics[:1], parent, unpaired)[0]["verdict"] == "improvement":
        failures.append("a gain from non-alternating pairs must not count")
    summary = side_summary(parent, metrics[:1])["w"]["faster"]
    if summary["n"] != 10 or not summary["q1"] < summary["median"] < \
            summary["q3"]:
        failures.append(f"bad summary {summary}")

    for f in failures:
        print(f"self-test failed: {f}", file=sys.stderr)
    print("self-test:", "ok" if not failures else "FAILED")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--spec", default=os.path.join(HERE, "..",
                                                       "BENCHMARK.json"))
    parser.add_argument("--history", help="write a trajectory entry here")
    parser.add_argument("--commit", default="",
                        help="commit the measured program was built from")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("give PARENT and CHANGE run files, or --self-test")

    with open(args.spec) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] + spec["per_layer"]
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    rows = compare(metrics, parent_runs, change_runs)
    labels = [runs[0].get("side", default) for default, runs in
              (("parent", parent_runs), ("change", change_runs))]
    print_rows(rows, labels)

    bounded = {m["name"] for m in spec["end_to_end"]}
    regressed = [r for r in rows
                 if r["metric"] in bounded and r["verdict"] == "regression"]
    incorrect = [r for r in change_runs if not r.get("correct", False)]
    if incorrect:
        print(f"{len(incorrect)} change run(s) returned wrong answers")
    if args.history:
        sides = {label: side_summary(runs, metrics) for label, runs in
                 zip(labels, (parent_runs, change_runs))}
        entry = {"commit": args.commit, "nproc": os.cpu_count(),
                 "run_seconds": spec["run_seconds"], "sides": sides,
                 "verdicts": rows}
        with open(args.history, "w") as f:
            json.dump(entry, f, indent=1)
            f.write("\n")
    return 1 if regressed or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
