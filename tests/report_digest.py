#!/usr/bin/env python3
"""SHA-256 digests of the report numbers of the benchmark runs.

Usage (from the root of a checkout):

    python3 tests/report_digest.py [--seed N] [--against REV]
    python3 tests/report_digest.py --outcomes [--seed N] [--against REV]

Runs each operation of every ``bench/run.py`` workload once, in the
order the seed draws (default 1), through the benchmark's own
``load_program``, ``build_inputs`` and ``solve``, and prints one line
per workload: its name, the number of runs and two digests.  Two
checkouts whose solver numbers are bit-identical print the same lines.

``sha256`` (the full digest) covers, per run, T, M, dofs, the
termination, the tolerance trace and the number of f points; per
accepted interval, the endpoints, the degree, the Picard iteration
count, every estimate, theta, the reconstruction error and the
effectivity (from ``run_errors``), the attempts, the decisions, the
interval's dofs, and the bytes of the step and reconstruction
coefficients.  Floats enter through ``repr``, which
round-trips.

``decisions`` covers the same fields except those that move with the
last bits of ``delta``: ``psi``, ``delta``, ``bound``, ``delta_hat``,
``effectivity`` and the tolerance trace.  Two checkouts that take the
same steps and make the same refinement decisions print the same
``decisions`` digest even when their ``delta`` solves round differently.

``--against REV`` checks a bit-identity claim in one command: it
extracts the committed tree of the git revision REV (``git archive``)
into a temporary directory, runs that tree's own copy of this script
there and this checkout's here, for the same seed, and prints
``match`` or ``mismatch`` per workload with both lines.  It exits 1 on
any mismatch.  It reads the repository and writes only the temporary
directory: no ref, index or working-tree file changes.

``--outcomes`` compares what a run decided rather than its bits, for a
change that moves every coefficient but should keep the march: per run,
T, M, dofs and the termination, and per accepted interval its
endpoints, degree, attempts and decisions.  Alone it prints these as
one JSON object keyed by ``workload ladder@tol``.  With ``--against
REV`` it runs this script, not REV's own copy, on REV's extracted tree
(``--root``), so it also works against a revision that predates the
option, and prints per workload the number of runs whose outcome
differs, each such run with its first difference, and how far the
bounds of the runs with equal outcomes moved (the median and the
largest relative move, interval by interval).  It exits 1 when an
outcome differs.  ``--root DIR`` loads ``bench/run.py``, and through it
the program, from the checkout at DIR instead of this one.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

import argparse
import hashlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench(root=ROOT):
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(root, "bench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.load_program()
    return bench


def _coeff_bytes(coeffs):
    return repr(coeffs.shape).encode() + coeffs.astype("<f8", order="C").tobytes()


def run_digest(full, decisions, result, errors, f_points):
    """Feed one run, with its ``run_errors``, into the full and the
    decision digest."""
    run = (result.T, result.M, result.dofs, result.termination.value)
    full.update(repr(run).encode())
    full.update(repr((tuple(result.tol_trace), f_points)).encode())
    decisions.update(repr(run + (f_points,)).encode())
    for rec, recon_error, effectivity in zip(result.intervals, *errors):
        est = rec.estimate
        steps = (
            rec.interval.t_start,
            rec.interval.t_end,
            rec.r,
            rec.output.picard_iters,
            est.eta_res,
        )
        outcome = (rec.theta, recon_error, rec.attempts, rec.decisions, rec.dofs)
        coeffs = _coeff_bytes(rec.output.u.coeffs) + _coeff_bytes(rec.reconstruction.coeffs)
        full.update(
            repr(steps + (est.psi, est.delta, est.bound, est.delta_hat, effectivity) + outcome).encode()
        )
        full.update(coeffs)
        decisions.update(repr(steps + outcome).encode())
        decisions.update(coeffs)


def digest_lines(seed, root=ROOT):
    """One line per workload: name, number of runs and both digests."""
    bench = load_bench(root)
    lines = []
    for workload in bench.WORKLOADS:
        _, ops = bench.build_inputs(workload, seed)
        full, decisions = hashlib.sha256(), hashlib.sha256()
        for ladder, tol in ops:
            ladder.f_points[0] = 0
            result = bench.solve(ladder, tol)
            errors = bench.hg.run_errors(ladder.problem, result)
            run_digest(full, decisions, result, errors, ladder.f_points[0])
        lines.append(
            f"{workload} runs={len(ops)} sha256={full.hexdigest()} "
            f"decisions={decisions.hexdigest()}"
        )
    return lines


def extract_tree(rev, dest):
    """Extract the committed tree of git revision rev into the directory
    dest (``git archive``); returns False, after printing the error, when
    git cannot."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev], capture_output=True, check=False
    )
    if archive.returncode != 0:
        print(f"error: git archive {rev}: {archive.stderr.decode().strip()}", file=sys.stderr)
        return False
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # the "data" filter, where this Python has it, keeps every
        # member inside dest
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return True


def against(rev, seed):
    """Compare this checkout's lines with those of revision rev; returns
    the exit status, 0 when every workload matches."""
    with tempfile.TemporaryDirectory(prefix="report-digest-") as tmp:
        if not extract_tree(rev, tmp):
            return 2
        script = os.path.join(tmp, "tests", "report_digest.py")
        if not os.path.isfile(script):
            print(f"error: {rev} has no tests/report_digest.py", file=sys.stderr)
            return 2
        theirs = subprocess.run(
            [sys.executable, script, "--seed", str(seed)],
            cwd=tmp, capture_output=True, text=True, check=False,
        )
    if theirs.returncode != 0:
        print(f"error: the script of {rev} failed:\n{theirs.stderr}", file=sys.stderr)
        return 2
    theirs_by_name = {line.split()[0]: line for line in theirs.stdout.splitlines() if line.strip()}
    mine = digest_lines(seed)
    status = 0
    for line in mine:
        name = line.split()[0]
        other = theirs_by_name.get(name, "(absent)")
        same = other == line
        status |= not same
        print(f"{name} seed={seed} {'match' if same else 'mismatch'}")
        print(f"  {rev}: {other}")
        print(f"  here: {line}")
    return status


def run_outcomes(seed, root=ROOT):
    """Per benchmark run, keyed ``workload ladder@tol``: ``run`` (T, M,
    dofs, termination), ``intervals`` (per accepted interval: t_start,
    t_end, r, attempts, decisions) and ``bounds``."""
    bench = load_bench(root)
    outcomes = {}
    for workload in bench.WORKLOADS:
        _, ops = bench.build_inputs(workload, seed)
        for ladder, tol in ops:
            result = bench.solve(ladder, tol)
            outcomes[f"{workload} {ladder.name}@{tol!r}"] = {
                "run": [result.T, result.M, result.dofs, result.termination.value],
                "intervals": [
                    [rec.interval.t_start, rec.interval.t_end, rec.r, rec.attempts, list(rec.decisions)]
                    for rec in result.intervals
                ],
                "bounds": [rec.estimate.bound for rec in result.intervals],
            }
    return outcomes


def first_difference(theirs, mine):
    """The first field in which two outcomes differ, as text, or None."""
    if theirs["run"] != mine["run"]:
        return f"(T, M, dofs, termination) {theirs['run']} -> {mine['run']}"
    for i, (a, b) in enumerate(zip(theirs["intervals"], mine["intervals"])):
        if a != b:
            return f"interval {i}: {a} -> {b}"
    return None


def compare_outcomes(rev, seed):
    """Compare the run outcomes of this checkout with those of revision
    rev; returns the exit status, 0 when every outcome is equal."""
    with tempfile.TemporaryDirectory(prefix="report-outcomes-") as tmp:
        if not extract_tree(rev, tmp):
            return 2
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--outcomes", "--seed", str(seed), "--root", tmp],
            capture_output=True, text=True, check=False,
        )
    if proc.returncode != 0:
        print(f"error: the outcomes of {rev} failed:\n{proc.stderr}", file=sys.stderr)
        return 2
    theirs, mine = json.loads(proc.stdout), run_outcomes(seed)
    if theirs.keys() != mine.keys():
        print(f"error: {rev} and this checkout run different operations", file=sys.stderr)
        return 2
    status = 0
    for workload in dict.fromkeys(key.split()[0] for key in mine):
        keys = [key for key in mine if key.split()[0] == workload]
        differ, moves = [], []
        for key in keys:
            diff = first_difference(theirs[key], mine[key])
            if diff is not None:
                differ.append(f"  {key.split()[1]}: {diff}")
                continue
            for i, (a, b) in enumerate(zip(theirs[key]["bounds"], mine[key]["bounds"])):
                moves.append((abs(b - a) / a if a > 0 else abs(b - a), key.split()[1], i, a, b))
        status |= bool(differ)
        print(f"{workload} seed={seed} runs={len(keys)} same={len(keys) - len(differ)} differ={len(differ)}")
        for line in differ:
            print(line)
        if moves:
            rel, name, i, a, b = max(moves)
            print(
                f"  bound moves over {len(moves)} intervals: median relative "
                f"{statistics.median(m[0] for m in moves):.3g}, largest {rel:.3g} "
                f"({name} interval {i}: {a!r} -> {b!r})"
            )
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="the benchmark seed (default 1)")
    parser.add_argument(
        "--against", metavar="REV", help="compare with the committed tree of git revision REV"
    )
    parser.add_argument(
        "--outcomes", action="store_true", help="compare run outcomes instead of digests"
    )
    parser.add_argument(
        "--root", metavar="DIR", default=ROOT, help="the checkout whose benchmark to run"
    )
    args = parser.parse_args(argv)
    if args.outcomes:
        if args.against is not None:
            return compare_outcomes(args.against, args.seed)
        print(json.dumps(run_outcomes(args.seed, os.path.abspath(args.root))))
        return 0
    if args.against is not None:
        return against(args.against, args.seed)
    for line in digest_lines(args.seed, os.path.abspath(args.root)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
