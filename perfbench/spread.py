#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10]

Runs perfbench/run.py once per seed (1, 2, ...) on each workload (untraced, at
BENCHMARK.json's run_seconds) and prints, per metric, the median of the
runs, the distance between the first and third quartile as a share of
the median (statistics.quantiles(values, n=4)), the metric's bound,
and whether the spread is within a third of the bound.
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
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False, cwd=ROOT)
    if out.returncode != 0:
        sys.exit("%s seed %d failed (%d):\n%s%s" % (
            workload, seed, out.returncode, out.stdout, out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: incorrect result" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, bench["run_seconds"])
                for seed in range(1, args.seeds + 1)]
        print("%s (%d seeds)" % (workload, args.seeds))
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print("  %-18s median %-14.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                  "  bound %.2f  %s" % (
                      name, med, q1, q3, spread, bound,
                      "ok" if spread < bound / 3 else
                      "WITHIN BOUND" if spread <= bound else "TOO NOISY"))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
