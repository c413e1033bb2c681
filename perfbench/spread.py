#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload wing22k_1t --runs 10 [--trace 0]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...)
from the current directory and prints, per metric, the median and the
quartile spread (Q3 - Q1) / median of the values, quartiles as
statistics.quantiles(n=4), next to the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bounds = {e["name"]: e.get("bound")
                      for e in json.load(f)["end_to_end"]}
    values = {}
    for k in range(args.runs):
        seed = args.first_seed + k
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: run not correct: {result}")
        for name, v in result["metrics"].items():
            values.setdefault(name, []).append(v["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v['value']:.4g}" for n, v in result["metrics"].items()),
            flush=True)
    print(f"{'metric':32} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = m.median(vals)
        spread = m.quartile_spread(vals) if len(vals) >= 2 and med else 0.0
        bound = bounds.get(name)
        print(f"{name:32} {med:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
