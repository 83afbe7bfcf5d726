#!/usr/bin/env python3
"""Compare two sets of benchmark runs, refusing runs from different machines.

Run each set with its own record directory, then compare:

    python3 perfbench/run.py --workload tcp-mixed --seed 1 --seconds 20 --trace 0 --out .bench_build/base
    ...
    python3 perfbench/compare.py .bench_build/base .bench_build/change

Every record carries the machine fingerprint of its run (GOMAXPROCS, CPU
count and model, Go version, kernel, timer-overshoot class). If the two
sets do not share one fingerprint the comparison is refused. Otherwise,
for every end-to-end metric of every workload, it prints both medians, the
change, the first set's spread (interquartile range over median) and the
bound from BENCHMARK.json, and flags a metric whose median got worse by
more than its bound. A metric whose spread exceeds its bound is reported
as unresolved rather than unchanged.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            records.append(json.load(f))
    return records


def spread(xs):
    if len(xs) < 2:
        return float("nan")
    q = statistics.quantiles(xs, n=4)
    m = statistics.median(xs)
    return (q[2] - q[0]) / m if m else float("nan")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, change = load(argv[0]), load(argv[1])
    if not base or not change:
        print("compare: no records in one of the directories", file=sys.stderr)
        return 2
    keys = sorted({r["fingerprint_key"] for r in base + change})
    if len(keys) != 1:
        print("compare: refused, the runs come from different machines:", file=sys.stderr)
        for k in keys:
            print("  " + k, file=sys.stderr)
        return 3
    print("machine: " + keys[0])
    regressions = 0
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            va = [r["report"]["metrics"][m["name"]]["value"] for r in base
                  if r["workload"] == w["name"] and r["trace"] == 0]
            vb = [r["report"]["metrics"][m["name"]]["value"] for r in change
                  if r["workload"] == w["name"] and r["trace"] == 0]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            rel = (mb - ma) / ma if ma else float("nan")
            worse = rel if m["better"] == "lower" else -rel
            sa = spread(va)
            if worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif sa > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("%-15s %-16s %14.4f -> %14.4f %-6s %+7.1f%%  spread %.3f  bound %.2f  %s" % (
                w["name"], m["name"], ma, mb, m["unit"], 100 * rel, sa, m["bound"], verdict))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
