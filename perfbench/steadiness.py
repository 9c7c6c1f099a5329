#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 perfbench/steadiness.py [--runs 10]

Makes two sets of --runs runs (at least ten) of every workload in
BENCHMARK.json at its run_seconds, with fixed seeds: set A uses seeds
1..runs, set B seeds runs+1..2*runs. Within a set the workload order
alternates between passes (forward, then reversed) so slow drift on the
host does not land on one workload. Prints the host name and nproc, then,
per workload and metric, each set's median and spread (q3 - q1) / median
from statistics.quantiles(n=4), the relative difference of the two medians,
and the metric's bound. A metric is "ok" when both spreads are under a third
of its bound and the medians differ by at most the bound. The failed share
of every run must be the same. Exits 1 if anything is not ok.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"steadiness: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(spec, workloads, runs, first_seed, label):
    results = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            res = run_once(spec, w, first_seed + i)
            results[w].append(res)
            print(f"[{label} {i + 1}/{runs}] {w}: " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  file=sys.stderr, flush=True)
    return results


def median_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    if args.runs < 10:
        ap.error("--runs must be at least 10")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = [run_set(spec, workloads, args.runs, 1, "A"),
            run_set(spec, workloads, args.runs, 1 + args.runs, "B")]

    print(f"host {platform.node()}  nproc {os.cpu_count()}  runs {args.runs} per set  "
          f"run_seconds {spec['run_seconds']}")
    ok = True
    for w in workloads:
        runs = sets[0][w] + sets[1][w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        ok &= len(shares) == 1
        print(f"\n{w}: failed share {sorted(shares)}  attempted "
              f"{[r['attempted'] for r in runs]}")
        print(f"  {'metric':16} {'median A':>12} {'median B':>12} {'B/A-1':>8} "
              f"{'spread A':>8} {'spread B':>8} {'bound':>6}")
        for name, bound in bounds.items():
            (med_a, spr_a), (med_b, spr_b) = (
                median_spread([r["metrics"][name]["value"] for r in s[w]]) for s in sets)
            diff = med_b / med_a - 1 if med_a else float("inf")
            steady = max(spr_a, spr_b) < bound / 3 and abs(diff) <= bound
            ok &= steady
            print(f"  {name:16} {med_a:12.6g} {med_b:12.6g} {diff:8.4f} {spr_a:8.4f} "
                  f"{spr_b:8.4f} {bound:6.3f}  {'ok' if steady else 'WIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
