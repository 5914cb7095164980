#!/usr/bin/env python3
"""Checks that the benchmark is steady: two sets of runs of the same build agree.

    python3 perfbench/steadiness.py [--sets 2] [--seconds S] [--workloads a,b]

For every workload it makes ten untraced runs per set through
perfbench/run.py, with seeds 100-109 in set 1, 1100-1109 in set 2 and so on.
For each end-to-end metric of BENCHMARK.json it prints, per set, the median and
the quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median, and
whether that spread is within the metric's bound. Across sets it checks that
each later set's median differs from the first's by no more than the bound, in
either direction, and that the share of failed operations is the same. The
suggested bound is three times the largest spread measured, capped at 0.25.
Exit status 1 if any check fails. --json FILE also writes every run's raw
result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS_PER_SET = 10
SEED_BASE = 100


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d\n%s" % (workload, seed, proc.returncode,
                                                        proc.stdout))
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, first, second):
    """Relative worsening of the second median over the first (>0 = worse)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    raw = {}
    ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(RUNS_PER_SET):
                seed = SEED_BASE + 1000 * s + i
                results.append(run_once(w, seed, args.seconds))
                print("# %s set %d run %d seed %d done" % (w, s + 1, i + 1, seed), flush=True)
            sets.append(results)
        raw[w] = sets

        print("\n== %s (%d sets x %d runs, %d s each)" %
              (w, args.sets, RUNS_PER_SET, args.seconds))
        print("%-22s %4s %14s %14s %14s %8s %6s %4s" %
              ("metric", "set", "median", "q1", "q3", "spread", "bound", "ok"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            medians = []
            spreads = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                med, q1, q3, sp = spread(values)
                medians.append(med)
                spreads.append(sp)
                within = sp <= metric["bound"]
                ok = ok and within
                print("%-22s %4d %14.6g %14.6g %14.6g %8.4f %6.3f %4s" %
                      (name, s + 1, med, q1, q3, sp, metric["bound"],
                       "yes" if within else "NO"))
            for s in range(1, len(medians)):
                worse = worse_by(metric, medians[0], medians[s])
                agree = abs(worse) <= metric["bound"]
                ok = ok and agree
                print("%-22s %4s %14s median of set %d vs set 1 worse by %+.4f (+ = worse): %s" %
                      (name, "", "", s + 1, worse, "agree" if agree else "DISAGREE"))
            print("%-22s %4s %14s suggested bound %.3f" %
                  (name, "", "", min(0.25, 3 * max(spreads))))
        shares = set()
        for results in sets:
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            shares.add(failed / attempted)
            correct = all(r["correct"] for r in results)
            ok = ok and correct
            print("failed %d of %d attempted operations, all correct: %s" %
                  (failed, attempted, correct))
        if len(shares) > 1:
            ok = False
            print("failed share differs between sets")

    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    print("\nsteady: %s" % ("yes" if ok else "NO"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
