#!/usr/bin/env python3
"""Medians of the per-layer benchmark metrics of two trees.

Usage (from the root of a checkout):

    python3 tests/layer_medians.py --against REV --workload W --runs N
        [--seed S] [--seconds T]

One traced ``bench/run.py --trace 1`` run cannot tell a layer that
grew by a few percent from the machine's noise, so this script makes N
traced runs of each side and compares their medians.  It extracts the
committed tree of the git revision REV (``git archive``, as
``report_digest.py --against`` does) into a temporary directory and
runs each tree's own ``bench/run.py`` there and here, N times each,
alternating which side goes first.  It then prints, for every
per-layer metric, each side's median and range (min-max) over its runs,
and the change of the medians, then the same for two rows derived per
run (``DERIVED``): ``galerkin.step_s`` per step call and per Picard
iteration, in microseconds.  ``--out FILE`` also writes every run's
metrics there as JSON.  It exits 1 when a run reports incorrect
output or a failed operation, 2 when a run or git fails.

Besides the benchmark's own result files, which it writes under each
tree's ``bench/results/``, it writes only the temporary directory: no
ref, index or working-tree file changes.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from report_digest import ROOT, extract_tree


# Rows derived per run, in microseconds: the step's self time per call
# and per Picard iteration.  The benchmark's galerkin.step_us_per_iter
# divides the step's inclusive time, whose per-call set-up does not scale
# with the iterations, by the iterations, so a step that takes fewer
# iterations reads slower there; the two rows separate the two costs.
DERIVED = [("galerkin.step_s", "galerkin.step_calls"), ("galerkin.step_s", "galerkin.picard_iters")]


def per(metrics, num, den):
    """1e6 metrics[num] / metrics[den], 0 where either is absent or 0."""
    d = metrics.get(den, 0.0)
    return 1e6 * metrics.get(num, 0.0) / d if d else 0.0


def traced_run(tree, workload, seed, seconds):
    """The metrics of one traced run of the tree's own benchmark, or an
    error message."""
    cmd = [
        sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        return None, f"bench/run.py failed in {tree}:\n{proc.stderr}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"]:
        return None, f"incorrect output or failed operations in {tree}: {out['failed']} failed"
    return {name: m["value"] for name, m in out["metrics"].items()}, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", required=True, help="the git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=3, help="traced runs per side (default 3)")
    parser.add_argument("--seed", type=int, default=1, help="the benchmark seed (default 1)")
    parser.add_argument("--seconds", type=float, default=15.0, help="length of each run (default 15)")
    parser.add_argument("--out", metavar="FILE", help="write every run's metrics to FILE as JSON")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="layer-medians-") as tmp:
        if not extract_tree(args.against, tmp):
            return 2
        sides = {args.against: tmp, "here": ROOT}
        runs = {side: [] for side in sides}
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                metrics, error = traced_run(sides[side], args.workload, args.seed, args.seconds)
                if error is not None:
                    print(f"error: {error}", file=sys.stderr)
                    return 1 if error.startswith("incorrect") else 2
                runs[side].append(metrics)
                print(f"run {i + 1}/{args.runs} {side} done", file=sys.stderr, flush=True)

    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "runs": runs}, fh, indent=1)
    theirs, mine = runs[args.against], runs["here"]
    print(f"{args.workload} seed={args.seed} runs={args.runs} per side, "
          f"median [min, max]: {args.against} -> here")
    rows = [(name, [m.get(name, 0.0) for m in theirs], [m[name] for m in mine]) for name in mine[0]]
    rows += [
        (f"{num}/{den} (us)", [per(m, num, den) for m in theirs], [per(m, num, den) for m in mine])
        for num, den in DERIVED
    ]
    for name, a, b in rows:
        ma, mb = statistics.median(a), statistics.median(b)
        change = f"{100.0 * (mb - ma) / ma:+.1f}%" if ma else "n/a"
        print(f"{name:<28} {ma:>12.6g} [{min(a):.6g}, {max(a):.6g}]  ->  "
              f"{mb:>12.6g} [{min(b):.6g}, {max(b):.6g}]  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
