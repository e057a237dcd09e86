#!/usr/bin/env python3
"""Whether hp beats h at equal DoFs, at equal f points and at equal CPU time.

Usage (from the root of a checkout):

    python3 tests/work_rates.py [--seed N] [--against REV]

Runs every operation of the ``hp-sweep`` and ``h-sweep`` workloads of
``bench/run.py`` for the seed (default 1), through the benchmark's own
``load_program``, ``build_inputs`` and ``solve``, and records per run
its error |T - T_inf|, its DoFs, its f points and its CPU time
(``time.process_time`` per solve: the solve is repeated until it has
used ``MIN_CPU_S`` of CPU and the total divided by the count, as
``timeit``'s autorange does, and the least over ``ROUNDS`` rounds of
both sweeps is kept).  The 17 runs of each hp ladder
(``power2``/``exp`` x cG/dG) are then set against the two h ladders of
the same problem and scheme (``r`` = 1 and 4), once per abscissa: each
h ladder's error is interpolated log-log at the hp run's DoFs, f
points or CPU time by ``report_digest.loglog_at``, which ``_h_error_at`` in
``tests/test_acceptance.py`` uses at DoFs, and reads None outside the
ladder's range.  An hp run beats both h ladders unless one
of them interpolates to an error at or below its own, the rule of
criterion 3.  As there, only hp runs that end ``delta_not_found`` with a
positive error count.

It prints one row per hp ladder: per abscissa, the runs that beat both
h ladders out of those that count, and the median of the hp error over
the smaller interpolated h error, over the runs where one exists (below
1 where hp wins).  The DoF and f-point columns do not depend on the
machine; the CPU column does.

``--against REV`` extracts the committed tree of the git revision REV
(``git archive``, as ``report_digest.py --against`` does) into a
temporary directory, runs this script on it (``--root``) in a second
process, and prints REV's table above this checkout's.  It writes only
the temporary directory.  ``--json`` prints the per-run records instead
of the table.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from report_digest import ROOT, extract_tree, load_bench, loglog_at

clock = time.process_time
ABSCISSAE = (("dofs", "DoFs"), ("f_points", "f points"), ("cpu_s", "CPU time"))
DEGREES = (1, 4)
# Rounds of both sweeps; each run keeps its least CPU time.
ROUNDS = 3
# The CPU time a run's repeated solves must use before they are divided
# by their count: a single solve of an h ladder's cheap end takes about
# a millisecond, where one stray pause moves the log-log ratios.
MIN_CPU_S = 0.02


def timed_solve(bench, ladder, tol):
    """The result of one solve and the CPU time per solve, from as many
    solves as it takes to use ``MIN_CPU_S``; the ladder's f-point counter
    holds one solve's count."""
    count, start = 0, clock()
    while True:
        ladder.f_points[0] = 0
        result = bench.solve(ladder, tol)
        count += 1
        used = clock() - start
        if used >= MIN_CPU_S:
            return result, used / count


def run_records(seed, root=ROOT):
    """Per run of the two sweeps, keyed by ladder name: a list of
    {tol, T, t_inf, termination, dofs, f_points, cpu_s}."""
    bench = load_bench(root)
    ops = []
    for workload in ("hp-sweep", "h-sweep"):
        ladders, workload_ops = bench.build_inputs(workload, seed)
        for ladder in ladders:
            bench.solve(ladder, ladder.tols[0])
        ops += workload_ops
    runs = [None] * len(ops)
    # whole rounds, so that a slow spell of the host spreads over every run
    for _ in range(ROUNDS):
        for i, (ladder, tol) in enumerate(ops):
            result, cpu_s = timed_solve(bench, ladder, tol)
            if runs[i] is None:
                runs[i] = dict(
                    tol=tol, T=result.T, t_inf=ladder.t_inf, termination=result.termination.value,
                    dofs=result.dofs, f_points=ladder.f_points[0], cpu_s=cpu_s,
                )
            runs[i]["cpu_s"] = min(runs[i]["cpu_s"], cpu_s)
    records = {}
    for (ladder, _), run in zip(ops, runs):
        records.setdefault(ladder.name, []).append(run)
    return records


def h_error_at(runs, key, x):
    """An h ladder's error interpolated log-log at abscissa x of
    ``key``; None outside the ladder's range."""
    return loglog_at(
        ((run[key], abs(run["T"] - run["t_inf"])) for run in runs if run["T"] != run["t_inf"]), x
    )


def table(records):
    """Rows (ladder, [(beats, counted, median ratio)] per abscissa)."""
    rows = []
    for name in sorted(records):
        if not name.endswith("/hp"):
            continue
        problem, scheme, _ = name.split("/")
        h_runs = [records[f"{problem}/{scheme}/h/r{r}"] for r in DEGREES]
        usable = [
            run for run in records[name]
            if run["termination"] == "delta_not_found" and run["T"] != run["t_inf"]
        ]
        cells = []
        for key, _ in ABSCISSAE:
            beats, ratios = 0, []
            for run in usable:
                err = abs(run["T"] - run["t_inf"])
                h_errs = [h_error_at(runs, key, run[key]) for runs in h_runs]
                h_errs = [e for e in h_errs if e is not None]
                beats += all(err < e for e in h_errs)
                if h_errs:
                    ratios.append(err / min(h_errs))
            cells.append((beats, len(usable), statistics.median(ratios) if ratios else None))
        rows.append((name, cells))
    return rows


def print_table(label, records):
    print(f"{label}: hp runs that beat both h ladders (r = {DEGREES[0]} and {DEGREES[1]}), "
          "and the median hp/best-h error ratio")
    print(f"  {'ladder':<14}" + "".join(f"{title:>20}" for _, title in ABSCISSAE))
    for name, cells in table(records):
        text = "".join(
            f"{f'{b}/{n}':>11}{'-' if m is None else f'{m:.3g}':>9}" for b, n, m in cells
        )
        print(f"  {name:<14}{text}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="the benchmark seed (default 1)")
    parser.add_argument(
        "--against", metavar="REV", help="also run the committed tree of git revision REV"
    )
    parser.add_argument(
        "--root", metavar="DIR", default=ROOT, help="the checkout whose benchmark to run"
    )
    parser.add_argument("--json", action="store_true", help="print the per-run records as JSON")
    args = parser.parse_args(argv)
    if args.against is not None:
        with tempfile.TemporaryDirectory(prefix="work-rates-") as tmp:
            if not extract_tree(args.against, tmp):
                return 2
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--json", "--seed", str(args.seed),
                 "--root", tmp],
                capture_output=True, text=True, check=False,
            )
        if proc.returncode != 0:
            print(f"error: the runs of {args.against} failed:\n{proc.stderr}", file=sys.stderr)
            return 2
        print_table(f"{args.against}, seed {args.seed}", json.loads(proc.stdout))
    records = run_records(args.seed, os.path.abspath(args.root))
    if args.json:
        print(json.dumps(records))
    else:
        print_table(f"here, seed {args.seed}", records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
