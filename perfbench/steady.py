#!/usr/bin/env python3
"""Steadiness check for the tyder benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--seed0 1]

Runs perfbench/run.py untraced on every workload in BENCHMARK.json
`--runs` times per set, each run with its own seed and BENCHMARK.json's
run_seconds, rotating the workload order from run to run so that no
workload always follows the same neighbour. For each set it prints every
metric's median, first and third quartile (statistics.quantiles, n=4) and
the quartile spread as a share of the median; with two or more sets it then
prints how far each later set's median moved from the first set's, as a
share of the first. The bounds in BENCHMARK.json are set from this output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("steady: %s seed %d failed:\n%s" % (workload, seed, done.stdout))
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    # results[set][workload] = list of result objects
    results = []
    for s in range(args.sets):
        results.append({w: [] for w in workloads})
        for i in range(args.runs):
            order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
            for w in order:
                seed = args.seed0 + 1000 * s + i
                r = run_once(w, seed, seconds)
                results[s][w].append(r)
                print("set %d run %d %-12s seed %d done" % (s + 1, i + 1, w, seed),
                      file=sys.stderr, flush=True)

    for w in workloads:
        print("== %s" % w)
        names = list(results[0][w][0]["metrics"])
        for s in range(args.sets):
            runs = results[s][w]
            failed = sorted({"%d/%d" % (r["failed"], r["attempted"]) for r in runs})
            correct = all(r["correct"] for r in runs)
            print("set %d: %d runs, correct=%s, failed/attempted: %s" %
                  (s + 1, len(runs), correct, " ".join(failed[:4])))
            print("  %-24s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "spread"))
            for n in names:
                med, q1, q3, spread = summarize([r["metrics"][n]["value"] for r in runs])
                print("  %-24s %12.5g %12.5g %12.5g %8.3f" % (n, med, q1, q3, spread))
        for s in range(1, args.sets):
            print("set %d vs set 1, median moved (share of set 1's):" % (s + 1))
            for n in names:
                m0 = statistics.median(r["metrics"][n]["value"] for r in results[0][w])
                m1 = statistics.median(r["metrics"][n]["value"] for r in results[s][w])
                print("  %-24s %+8.3f" % (n, (m1 - m0) / m0 if m0 else float("inf")))


if __name__ == "__main__":
    main()
