#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports how steady
each end-to-end metric is: median, first and third quartile, and the
quartile spread as a share of the median (Python's
statistics.quantiles(values, n=4)), next to the bound in BENCHMARK.json.

usage: python3 perfbench/steadiness.py [--runs N] [--first-seed S] [--workload NAME ...]

Run from the repository root. Prints a markdown table per workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    out = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} reported an incorrect run:\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        runs = [run_once(bench, workload, args.first_seed + k) for k in range(args.runs)]
        print(f"\n### {workload} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})\n")
        print("| metric | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
        print("|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {name} | {med:.4f} | {q1:.4f} | {q3:.4f} | {(q3 - q1) / med:.3f} | {bound} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
