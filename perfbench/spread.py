#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median and run-to-run spread (interquartile distance over the median).

Usage, from the repository root:

    python3 perfbench/spread.py --workload wire-mix --seeds 1-10 [--trace 0]

Each spread is compared with a third of the metric's bound in
BENCHMARK.json, the target a steady benchmark should meet. The raw
result lines are appended to --out (default: none) for later comparison.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seeds)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        flag = "" if result["correct"] and result["failed"] == 0 else "  NOT CORRECT"
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}{flag}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{'metric':32} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        target = f"{bound / 3:8.4f}" if bound else ""
        mark = "  WIDE" if bound and spread > bound / 3 else ""
        print(f"{name:32} {med:14.6g} {spread:8.4f} {target}{mark}")


if __name__ == "__main__":
    main()
