#!/usr/bin/env python3
"""In-process A/B timing of the benchmark operations of two trees.

Usage (from the root of a checkout):

    python3 tests/ab_rounds.py --against REV --workload W [--rounds N]
        [--seed S] [--aa] [--out FILE]

Separate processes of one tree read a few percent apart from each other
on a host whose speed drifts, which hides a small change.  This script
runs both trees in one process instead, operation by operation.  It
extracts the committed tree of the git revision REV (``git archive``,
as ``report_digest.py --against`` does) into a temporary directory,
imports that tree's ``src/hpgalerkin`` under the package name
``hpgalerkin_against`` next to this checkout's ``hpgalerkin``, and
loads each tree's own ``bench/run.py`` by path with its ``np``, ``hg``
and ``cli`` set to that tree's program.  Each side then builds the
workload's operations for the seed (default 1) and solves every ladder
once to warm up.

A round solves every operation once on each side, in the seed's order,
rotating which side goes first from one operation to the next and from
one round to the next.  Each solve is timed in CPU time of this
process (``time.process_time``).  Each ladder's f-point counter is
reset before every solve, and the T, M, dofs and f points of the sides
must be equal per operation, so that only equal work is timed; the
script exits 1 when they are not.  It prints each round's summed time
per side and their ratio (this checkout over REV), then the median
ratio over the N rounds (default 5);
``--out FILE`` also writes the per-round figures there as JSON.  It
exits 2 when git cannot extract REV or the trees build different
operations.

``--aa`` adds a third side, the A/A floor: a second extraction of REV,
imported in the same way as the first under the package name
``hpgalerkin_twin``.  Each round then also prints the ratio of the
twin over REV, and the last line the median of those ratios next to the
A/B median.  Two copies of one tree should read 1; how far their median
lies from 1 is the offset of the method itself, against which an A/B
ratio is read.

It writes only the temporary directory: no ref, index or working-tree
file changes.  The file name does not match ``test_*.py``, so pytest
does not collect it.
"""

import os

# One thread, as in bench/run.py: pin numpy's BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time

import numpy

from report_digest import ROOT, extract_tree

clock = time.process_time
# the name of the --aa side, the second extraction of REV
TWIN = "twin"


def import_package(name, src):
    """Import the hpgalerkin package under src as ``name``, with its cli."""
    init = os.path.join(src, "hpgalerkin", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package, importlib.import_module(f"{name}.cli")


def load_side(tag, root, package_name):
    """The tree's bench/run.py, bound to the tree's own program."""
    spec = importlib.util.spec_from_file_location(
        f"bench_run_{tag}", os.path.join(root, "bench", "run.py")
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.np = numpy
    bench.hg, bench.cli = import_package(package_name, os.path.join(root, "src"))
    return bench


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", required=True, help="the git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=5, help="rounds (default 5)")
    parser.add_argument("--seed", type=int, default=1, help="the benchmark seed (default 1)")
    parser.add_argument(
        "--aa", action="store_true", help="also time REV against a second extraction of REV"
    )
    parser.add_argument("--out", metavar="FILE", help="write the per-round figures to FILE as JSON")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab-rounds-") as tmp:
        rev, twin = os.path.join(tmp, "rev"), os.path.join(tmp, "twin")
        for dest in (rev, twin) if args.aa else (rev,):
            if not extract_tree(args.against, dest):
                return 2
        sides = {args.against: load_side("against", rev, "hpgalerkin_against")}
        if args.aa:
            sides[TWIN] = load_side("twin", twin, "hpgalerkin_twin")
        sides["here"] = load_side("here", ROOT, "hpgalerkin")
        if args.workload not in sides["here"].WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(sides['here'].WORKLOADS)}")
        return ab_rounds(sides, args)


def ab_rounds(sides, args):
    """Warm up both sides, run the rounds and print them; the exit status."""
    ops = {}
    for side, bench in sides.items():
        ladders, ops[side] = bench.build_inputs(args.workload, args.seed)
        for ladder in ladders:
            bench.solve(ladder, ladder.tols[0])
    keys = {side: [(ladder.name, tol) for ladder, tol in ops[side]] for side in sides}
    for side in sides:
        if keys[side] != keys["here"]:
            print(f"error: {side} and this checkout run different operations", file=sys.stderr)
            return 2

    names = list(sides)
    rounds = []
    for rnd in range(args.rounds):
        spent = dict.fromkeys(names, 0.0)
        for i, (name, tol) in enumerate(keys["here"]):
            outcomes = {}
            first = (rnd + i) % len(names)
            for side in names[first:] + names[:first]:
                ladder = ops[side][i][0]
                ladder.f_points[0] = 0
                start = clock()
                result = sides[side].solve(*ops[side][i])
                spent[side] += clock() - start
                outcomes[side] = (result.T, result.M, result.dofs, ladder.f_points[0])
            for side in names:
                if outcomes[side] != outcomes["here"]:
                    print(f"error: {name}@{tol!r}: (T, M, dofs, f points) {outcomes[side]} "
                          f"at {side}, {outcomes['here']} here", file=sys.stderr)
                    return 1
        ratio = spent["here"] / spent[args.against]
        rounds.append({"against_s": spent[args.against], "here_s": spent["here"], "ratio": ratio})
        line = (f"round {rnd + 1}: {args.against} {spent[args.against]:.3f} s, "
                f"here {spent['here']:.3f} s, ratio {ratio:.3f}")
        if TWIN in spent:
            rounds[-1].update(twin_s=spent[TWIN], aa_ratio=spent[TWIN] / spent[args.against])
            line += f"; {TWIN} {spent[TWIN]:.3f} s, A/A ratio {rounds[-1]['aa_ratio']:.3f}"
        print(line, flush=True)
    median = statistics.median(r["ratio"] for r in rounds)
    summary = {"workload": args.workload, "seed": args.seed, "against": args.against,
               "rounds": rounds, "median_ratio": median}
    line = (f"{args.workload} seed={args.seed} rounds={args.rounds} "
            f"ops={len(keys['here'])} median ratio here/{args.against} {median:.3f}")
    if TWIN in sides:
        summary["aa_median_ratio"] = statistics.median(r["aa_ratio"] for r in rounds)
        line += f", A/A {TWIN}/{args.against} {summary['aa_median_ratio']:.3f}"
    print(line)
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
