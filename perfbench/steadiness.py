#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady each metric is.

Run from the repository root:

    python3 perfbench/steadiness.py --workloads fleet --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10 --json out.json

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median, next to a third of the
metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0, "values": values}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="", help="comma-separated; default: all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write the summary here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)

    summary = {}
    ok = True
    for w in workloads:
        results = [run(w, s, bench["run_seconds"], args.trace) for s in seeds]
        if not all(r["correct"] and r["failed"] == 0 for r in results):
            ok = False
        metrics = {}
        for name in results[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in results])
        summary[w] = {"seeds": seeds, "correct": all(r["correct"] for r in results), "metrics": metrics}
        print(f"{w}: seeds {args.seeds}, all correct: {summary[w]['correct']}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            limit = f"{bound / 3:.4f}" if bound else "-"
            print(f"  {name:26s} median {m['median']:<14.6g} q1 {m['q1']:<14.6g} "
                  f"q3 {m['q3']:<14.6g} spread {m['spread']:.4f} (limit {limit})")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
