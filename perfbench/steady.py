#!/usr/bin/env python3
"""Steadiness runner: repeat every workload and report how much each metric moves.

Run from the repository root:

    python3 perfbench/steady.py                       # 10 runs x 2 seeds per workload + 1 traced run
    python3 perfbench/steady.py --seeds 1-10 --runs 1 # one run on each of ten seeds
    python3 perfbench/steady.py --workloads packet-sim --seeds 1-5 --runs 1 --no-trace

Runs alternate workload order from one repetition to the next.  For every
workload, seed group and metric it prints the median, the first and third
quartiles (Python's statistics.quantiles, n=4), the quartile spread
(Q3 - Q1) / median and the full range (max - min) / median, and marks every
end-to-end metric whose quartile spread exceeds a third of its bound in
BENCHMARK.json.  Every run measures BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

WORKLOADS = ["fig-sweep", "session-repair", "packet-sim", "campaign"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result, lines[:-1], elapsed


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    scale = abs(med) if med else 1.0
    return med, q1, q3, (q3 - q1) / scale, (max(values) - min(values)) / scale


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1,2", help="e.g. 1,2 or 1-10")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and seed")
    ap.add_argument("--no-trace", action="store_true", help="skip the traced run")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    results = {w: {} for w in workloads}
    for rep in range(args.runs):
        for k, seed in enumerate(seeds):
            order = workloads if (rep * len(seeds) + k) % 2 == 0 else list(reversed(workloads))
            for w in order:
                result, _, elapsed = run_once(w, seed, seconds, 0)
                results[w].setdefault(seed, []).append(result)
                print(f"# {w} seed {seed} run {rep + 1}: {elapsed:.1f} s, attempted "
                      f"{result['attempted']}, failed {result['failed']}", flush=True)

    # One group per seed when runs repeat a seed; one group over all seeds
    # when every run has its own seed.
    flagged = []
    for w in workloads:
        groups = dict(results[w])
        if args.runs == 1 or len(seeds) > 2:
            groups = {"all": [r for rs in results[w].values() for r in rs]}
        for label, runs in groups.items():
            print(f"\n== {w}  seeds {label}  ({len(runs)} runs)")
            print(f"{'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} "
                  f"{'range/med':>9s}")
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, iqr, rng = summarize(values)
                mark = ""
                if name in bounds and iqr > bounds[name] / 3:
                    mark = "  > bound/3"
                    flagged.append((w, label, name, iqr))
                print(f"{name:28s} {med:14.6g} {q1:14.6g} {q3:14.6g} {iqr:8.4f} {rng:9.4f}{mark}")

    if not args.no_trace:
        for w in workloads:
            result, headers, elapsed = run_once(w, seeds[0], seconds, 1)
            print(f"\n== {w} traced (seed {seeds[0]}, {elapsed:.1f} s)")
            for line in headers:
                if line.startswith("# span "):
                    print(line)
            for name, m in result["metrics"].items():
                if m["value"] != 0:
                    print(f"{name:36s} {m['value']:14.6g} {m['unit']}")

    if flagged:
        print("\nquartile spread above a third of the bound:")
        for w, label, name, iqr in flagged:
            print(f"  {w} seeds {label} {name}: {iqr:.4f} (bound {bounds[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
