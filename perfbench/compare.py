#!/usr/bin/env python3
"""Compares the end-to-end metrics of two checkouts on every workload.

    python3 perfbench/compare.py --parent ../parent --change . --seed 42 \\
        --pairs 10 [--save perfbench/results/seed42]

Runs perfbench/run.py in each checkout, pair by pair: pair i uses seed
seed+i on both sides and alternates which side runs first. For each workload
and metric it prints each side's median and quartiles, the share of pairs the
change won (ties count for neither) and a verdict:

  improved      the change won at least 9 of 10 pairs and its median is
                better by more than the parent's own quartile spread;
  unresolved    the parent's quartile spread, as a share of its median, is
                wider than the metric's bound, so no-regression cannot be shown;
  regressed     the change's median is worse by more than the bound;
  within bound  otherwise.

Bounds and directions come from the parent's BENCHMARK.json, with one
exception: test_acc. Training is deterministic per seed, so test_acc's
spread between seeds is not noise, yet BENCHMARK.json's relative bound must
cover that spread and would pass a loss of ten points. test_acc is judged
per pair instead: with d the median over pairs of the change's value minus
the parent's on the same seed, it regressed when d < -0.005 (absolute) and
improved when d > +0.005 and the change won at least 9 of 10 pairs.

Every run lasts BENCHMARK.json's run_seconds. A fail_frac row per workload
counts failed operations over attempted ones. Exits 1 when a metric
regressed, fail_frac rose or a run failed its output checks. --save writes
each side's runs to <prefix>_set1.json (parent) and _set2.json (change).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


# Metrics judged per seed pair on an absolute bound (see the docstring).
PAIRED_ABS_BOUNDS = {"test_acc": 0.005}


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        sys.exit("compare: %s produced no result for %s seed %d"
                 % (checkout, workload, seed))
    result["seed"] = seed
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, paired_abs_bound=None):
    """Returns (verdict, share of pairs the change won). With
    paired_abs_bound, judges the median paired difference on that absolute
    bound instead of the medians on the relative one."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    if paired_abs_bound is not None:
        gain = statistics.median(sign * (c - p) for p, c in zip(parent, change))
        if share >= 0.9 and gain > paired_abs_bound:
            return "improved", share
        if gain < -paired_abs_bound:
            return "regressed", share
        return "within bound", share
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    scale = abs(pm) if pm else 1.0
    if share >= 0.9 and sign * (cm - pm) > p3 - p1:
        return "improved", share
    if (p3 - p1) / scale > bound:
        return "unresolved", share
    if sign * (pm - cm) / scale > bound:
        return "regressed", share
    return "within bound", share


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--save", help="path prefix for the raw run sets")
    args = parser.parse_args()

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        if json.load(f) != spec:
            print("compare: warning: the two BENCHMARK.json differ; using "
                  "the parent's", file=sys.stderr)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {"parent": {w: [] for w in workloads},
            "change": {w: [] for w in workloads}}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side][workload].append(
                    run(checkout, workload, args.seed + i, seconds))
        print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)

    if args.save:
        for side, suffix in (("parent", "_set1.json"), ("change", "_set2.json")):
            with open(args.save + suffix, "w") as f:
                json.dump({"side": side, "seed": args.seed,
                           "seconds": seconds, "runs": runs[side]}, f,
                          indent=1)

    header = "%-14s %-13s %-32s %-32s %5s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "won", "verdict")
    print(header)
    print("-" * len(header))
    bad = False
    for workload in workloads:
        parent_runs, change_runs = runs["parent"][workload], runs["change"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent_runs]
            c = [r["metrics"][name]["value"] for r in change_runs]
            result, share = verdict(p, c, metric["better"], metric["bound"],
                                    PAIRED_ABS_BOUNDS.get(name))
            bad |= result == "regressed"
            pq, cq = quartiles(p), quartiles(c)
            print("%-14s %-13s %10.4g [%9.4g, %9.4g] %10.4g [%9.4g, %9.4g] "
                  "%4.0f%%  %s" % (workload, name, pq[1], pq[0], pq[2], cq[1],
                                   cq[0], cq[2], 100 * share, result))
        fail = {}
        for side, side_runs in (("parent", parent_runs), ("change", change_runs)):
            attempted = sum(r["attempted"] for r in side_runs)
            fail[side] = sum(r["failed"] for r in side_runs) / max(attempted, 1)
            incorrect = sum(1 for r in side_runs if not r["correct"])
            if incorrect:
                print("%-14s %d %s runs failed their output checks"
                      % (workload, incorrect, side))
                bad = True
        rose = fail["change"] > fail["parent"]
        bad |= rose
        print("%-14s %-13s %10.4g %22s %10.4g %28s  %s" % (
            workload, "fail_frac", fail["parent"], "", fail["change"], "",
            "regressed" if rose else "within bound"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
