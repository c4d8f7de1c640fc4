#!/usr/bin/env python3
"""Noise self-check for the benchmark.

Runs the BENCHMARK.json command in several sets; each set runs every
workload --runs times, each run with another seed. For every end-to-end
metric it prints each set's median and the spread between the first and
third quartile as a share of the median (statistics.quantiles(values,
n=4)), then compares the medians of the sets. It fails when

  - a spread is above half the metric's bound, or
  - a later set's median is worse than the first set's by more than the
    metric's bound, in the metric's direction.

A spread above a third of the bound is marked but does not fail. The last
thing printed is a Markdown table of every set.

Runs from the repository root wherever it is started:
  python3 perfbench/noise.py --runs 5 --sets 2
  python3 perfbench/noise.py --runs 10 --sets 1 --workloads cpu_block
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}")
    return res, wall


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def worse_by(first, later, better):
    """How much worse later is than first, as a share of first."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=5, help="runs per workload in a set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    args = ap.parse_args()

    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd, seconds = bench["command"], bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # stats[set][workload][metric] = (median, iqr share)
    stats = []
    failures = []
    for s in range(args.sets):
        label = chr(ord("A") + s)
        stats.append({})
        for name in names:
            values, walls = {}, []
            for i in range(args.runs):
                res, wall = run_once(cmd, name, s * args.runs + i + 1, seconds)
                walls.append(wall)
                for metric, v in res["metrics"].items():
                    values.setdefault(metric, []).append(v["value"])
            print(f"set {label} {name}: {args.runs} runs, wall median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
            stats[s][name] = {}
            for metric in metrics:
                med, iqr = spread(values[metric])
                stats[s][name][metric] = (med, iqr)
                bound = metrics[metric]["bound"]
                mark = ""
                if iqr > bound / 2:
                    mark = "  <-- spread above bound/2"
                    failures.append(f"set {label} {name} {metric}: spread {iqr:.1%} > {bound / 2:.1%}")
                elif iqr > bound / 3:
                    mark = "  (above bound/3)"
                print(f"  {metric:24s} median {med:12.4g}  iqr/median {iqr:7.2%}  bound {bound:.2f}{mark}")
                print("      " + " ".join(f"{v:.4g}" for v in values[metric]))
            sys.stdout.flush()

    for s in range(1, args.sets):
        for name in names:
            for metric, m in metrics.items():
                w = worse_by(stats[0][name][metric][0], stats[s][name][metric][0], m["better"])
                if w > m["bound"]:
                    failures.append(f"set {chr(ord('A') + s)} {name} {metric}: median worse than set A by {w:.1%} > {m['bound']:.0%}")

    header = "| workload | metric | bound | " + " | ".join(f"set {chr(ord('A') + s)}" for s in range(args.sets))
    if args.sets > 1:
        header += " | later set worse by"
    print("\n" + header + " |")
    print("|" + "---|" * (header.count("|")))
    for name in names:
        for metric, m in metrics.items():
            cells = [f"{stats[s][name][metric][0]:.4g} ({stats[s][name][metric][1]:.1%})" for s in range(args.sets)]
            row = f"| {name} | `{metric}` | {m['bound']:.2f} | " + " | ".join(cells)
            if args.sets > 1:
                worst = max(worse_by(stats[0][name][metric][0], stats[s][name][metric][0], m["better"])
                            for s in range(1, args.sets))
                row += f" | {worst:+.1%}"
            print(row + " |")

    for f in failures:
        print("FAIL:", f)
    if failures:
        raise SystemExit(f"{len(failures)} check(s) failed")


if __name__ == "__main__":
    main()
