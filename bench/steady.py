#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Usage (from the root of a checkout):

    python3 bench/steady.py --workload hp-sweep --seeds 1-10 [--label set1]

Runs ``bench/run.py`` in turn for every seed with the run length from
``BENCHMARK.json``, then prints, per end-to-end metric, the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
the quartile distance as a share of the median, next to the metric's
bound.  The summary is also written to ``bench/results/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--label", default="steady")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    shares = set()
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not out["correct"]:
            sys.exit(f"seed {seed}: the benchmark reported incorrect output")
        shares.add(out["failed"] / out["attempted"])
        for name in bounds:
            values[name].append(out["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "failed_shares": sorted(shares), "metrics": {}}
    print(f"{'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary["metrics"][name] = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bounds[name]:>6}")
    os.makedirs(os.path.join(ROOT, "bench", "results"), exist_ok=True)
    path = os.path.join(ROOT, "bench", "results", f"{args.label}-{args.workload}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
