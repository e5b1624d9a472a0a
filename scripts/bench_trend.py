#!/usr/bin/env python3
"""Metric-by-metric trend gate over two perfbench result files.

Usage:
    bench_trend.py collect OUT WORKLOAD=FILE [WORKLOAD=FILE ...]
    bench_trend.py compare BASELINE FRESH [--threshold 0.30]

Both take --benchmark PATH (default: BENCHMARK.json at the root of
the repository).

collect reads the standard output of `python3 perfbench/run.py
--workload WORKLOAD ...` from each FILE (its last line is one JSON
object with the keys correct, attempted, failed and metrics) and
writes OUT: one row per (workload, metric) for the end-to-end metrics
BENCHMARK.json declares.

compare matches rows on (workload, metric); only rows present in BOTH
files are compared, so adding or removing a workload or metric never
trips the gate.  Each metric's direction comes from the "better" field
of its BENCHMARK.json end_to_end entry.  A fresh row worse than the
same baseline row by more than the threshold emits a GitHub Actions
::warning:: annotation, and so does a comparison in which no row
matches at all (a renamed workload or metric would otherwise silence
the gate).  The exit code is always 0: CI hosts are noisy and the
committed baseline may come from different hardware, so the gate
surfaces trends for a human, it does not fail the build.  Only the
standard library is used.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end(benchmark_path):
    """{metric name: its BENCHMARK.json end_to_end entry}."""
    with open(benchmark_path) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def collect(args):
    metrics = end_to_end(args.benchmark)
    rows = []
    for pair in args.results:
        workload, sep, path = pair.partition("=")
        if not sep or not workload or not path:
            sys.exit(f"bench_trend: expected WORKLOAD=FILE, got {pair!r}")
        with open(path) as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
        if not lines:
            sys.exit(f"bench_trend: {path} holds no perfbench result")
        result = json.loads(lines[-1])
        for name, value in result["metrics"].items():
            if name in metrics:
                rows.append({"workload": workload, "metric": name,
                             "value": value["value"],
                             "unit": value["unit"]})
    with open(args.out, "w") as f:
        json.dump({"rows": rows}, f, indent=2)
        f.write("\n")
    return 0


def index(path):
    with open(path) as f:
        doc = json.load(f)
    return {(r["workload"], r["metric"]): r for r in doc["rows"]}


def compare(args):
    try:
        metrics = end_to_end(args.benchmark)
        baseline = index(args.baseline)
        fresh = index(args.fresh)
    except (OSError, ValueError, KeyError) as e:
        # A missing or malformed file is a setup problem, not a perf
        # regression; say so and let the build proceed.
        print(f"::warning::bench_trend: cannot compare ({e!r})")
        return 0

    compared = 0
    regressed = 0
    for key, base_row in baseline.items():
        fresh_row = fresh.get(key)
        metric = metrics.get(key[1])
        if fresh_row is None or metric is None:
            continue
        base = float(base_row["value"])
        now = float(fresh_row["value"])
        if base <= 0:
            continue
        compared += 1
        change = now / base - 1.0
        worse = -change if metric["better"] == "higher" else change
        label = f"{key[0]} {key[1]}: {base:.6g} -> {now:.6g} " \
                f"{base_row.get('unit', '')}"
        if worse > args.threshold:
            regressed += 1
            print(f"::warning::perf trend: {label} "
                  f"({change * 100:+.1f}%, {metric['better']} is "
                  f"better, threshold {args.threshold * 100:.0f}%)")
        else:
            print(f"perf trend: {label} ({change * 100:+.1f}%)")
    print(f"bench_trend: {compared} metrics compared, {regressed} "
          f"worse beyond {args.threshold * 100:.0f}%")
    if compared == 0:
        print("::warning::bench_trend: no (workload, metric) row of "
              "the fresh results matches a row of the baseline; "
              "regenerate the committed BENCH_perfbench.json or "
              "check the workload and metric names")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", parents=[common])
    c.add_argument("out")
    c.add_argument("results", nargs="+", metavar="WORKLOAD=FILE")
    g = sub.add_parser("compare", parents=[common])
    g.add_argument("baseline")
    g.add_argument("fresh")
    g.add_argument("--threshold", type=float, default=0.30)
    args = parser.parse_args()
    return collect(args) if args.command == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
