#!/usr/bin/env python3
"""Steadiness runner: repeats the benchmark and reports each metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--out results.json]

Runs perfbench/run.py --trace 0 once per seed (first-seed, first-seed+1, ...)
on every workload, then prints for each end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json. A spread above its bound is
flagged, except for setup_s, whose bound applies only between medians.
Exits 1 when a run fails or a spread is flagged. Run from the checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="write every run's metrics here as JSON")
    args = ap.parse_args()

    results = {}
    bad = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {proc.returncode})")
                bad = True
                continue
            out = json.loads(lines[-1])
            runs.append({k: v["value"] for k, v in out["metrics"].items()})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        results[workload] = runs
        if len(runs) < 2:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag = "  EXCEEDS BOUND"
                bad = True
            elif spread > m["bound"] / 3:
                flag = "  above bound/3"
            print(f"  {m['name']:<18}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{m['bound']:>8.2f}{flag}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
