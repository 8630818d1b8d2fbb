#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark once per seed on each named workload and prints, per
metric, the median of the runs and the distance between their first and
third quartiles as a share of that median (Python's
``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json. Run it from the repository root:

    python3 perfbench/spread.py --workloads mine_deep,cluster_run --seeds 1-10

Each run's result line is appended to perfbench/results/spread.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", default="1-10", help="range such as 1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                sys.exit(1)
            result = json.loads(lines[-1])
            with open("perfbench/results/spread.jsonl", "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({len(seeds_of(args.seeds))} runs)")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- over bound/3"
            print(f"  {name:<22} median {med:<14.6g} spread {spread:6.3f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
