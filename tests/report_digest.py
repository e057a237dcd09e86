#!/usr/bin/env python3
"""SHA-256 digests of the report numbers of the benchmark runs.

Usage (from the root of a checkout):

    python3 tests/report_digest.py [--seed N] [--against REV]
    python3 tests/report_digest.py --outcomes [--march] [--seed N] [--against REV]

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
option, and prints per workload each side's totals of f points and of
attempts over the accepted intervals; its totals of all steps, failed
steps and Picard updates, read by a wrapper on ``adapt.step``, so that
they include the attempts on each run's final, discarded interval
(informational: they never change the exit status); the same
wrapper's steps, Picard updates and f points split by how each attempt
started (``START_KINDS``: from the constant, or from a guess for the
next interval, after a predicted halving, after an accuracy halving or
after a degree raise), also informational; the number of runs whose
outcome differs, each such run with its first difference,
and the number of runs whose step or reconstruction coefficient bytes
differ.  For the runs with equal outcomes it prints how far the bounds
and each interval's own ``eta_res`` moved (the median and the largest
relative move, interval by interval).  It also
counts the bounds that moved by more than 1%, how many of those lie,
on both sides, at or below their step's Picard stop ``atol =
PICARD_TOL_SHARE * tol`` (where the bound reflects where Picard
stopped more than the solution), and how many of them had their own
``eta_res`` move by more than 1%: the bound carries psi from every
earlier interval, so the others follow a move of an earlier interval.
It prints the largest move among the bounds above the atol too, and
exits 1 when an outcome differs.

``--march`` narrows the outcome to the march itself, for a change that
should take the same steps with fewer rejected attempts: T, M, dofs, the
termination and each interval's endpoints and degree, with attempts and
decisions left out, so that the attempt totals show what the change
saved.  ``--root DIR`` loads ``bench/run.py``, and through it the
program, from the checkout at DIR instead of this one.

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

# How an attempt started, in the order the comparison prints them.
START_KINDS = {
    "constant": "the constant",
    "next": "next interval",
    "predicted": "predicted halving",
    "halve": "accuracy halving",
    "raise": "degree raise",
}


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
    t_end, r, attempts, decisions), ``bounds``, ``eta_res``, ``atols``,
    the Picard stop of each accepted step (0 for a tree without one),
    ``f_points`` and ``coeffs``, the SHA-256 of the step and
    reconstruction coefficient bytes of every accepted interval,
    ``steps``: every ``adapt.step`` call of the run, the discarded last
    interval's included, as [steps, failed steps, Picard updates], and
    ``starts``: the same calls per ``start_kind``, as [steps, Picard
    updates, f points], the f points read from the benchmark's counter
    around each call."""
    bench = load_bench(root)
    adapt = sys.modules["hpgalerkin.adapt"]
    share = getattr(adapt, "PICARD_TOL_SHARE", 0.0)
    # the run's counters, its f point counter and its last step input
    run = {"steps": [0, 0, 0], "starts": {}, "f_points": [0], "last": None}
    step = adapt.step

    def counted_step(*args, **kwargs):
        inp, before = args[1], run["f_points"][0]
        out = step(*args, **kwargs)
        steps = run["steps"]
        steps[0] += 1
        steps[1] += not out.converged
        steps[2] += out.picard_iters
        kind = start_kind(run["last"], inp, kwargs.get("guess"))
        run["last"] = inp
        counts = run["starts"][kind]
        counts[0] += 1
        counts[1] += out.picard_iters
        counts[2] += run["f_points"][0] - before
        return out

    adapt.step = counted_step
    try:
        return _outcomes(bench, seed, share, run)
    finally:
        adapt.step = step


def start_kind(last, inp, guess):
    """How the attempt ``inp`` started, given the step input ``last`` of
    the attempt before it and the guess it was passed, as
    ``tests/test_adapt.py::TestWarmStartDecisions`` tells: a key of
    ``START_KINDS``.  An attempt without a guess starts from the
    constant; one that starts where the last ended continues the march,
    halved on the prediction when its k is about half the last one; one
    at the same start follows a rejection, a raise when its degree is
    one more."""
    if guess is None:
        return "constant"
    if inp.interval.t_start == last.interval.t_end:
        return "predicted" if inp.interval.k < 0.75 * last.interval.k else "next"
    return "raise" if inp.r == last.r + 1 else "halve"


def _outcomes(bench, seed, share, run):
    """The body of ``run_outcomes``, with ``adapt.step`` counted into
    ``run``."""
    outcomes = {}
    for workload in bench.WORKLOADS:
        _, ops = bench.build_inputs(workload, seed)
        for ladder, tol in ops:
            ladder.f_points[0] = 0
            run.update(
                steps=[0, 0, 0], starts={kind: [0, 0, 0] for kind in START_KINDS},
                f_points=ladder.f_points, last=None,
            )
            result = bench.solve(ladder, tol)
            coeffs = hashlib.sha256()
            for rec in result.intervals:
                coeffs.update(_coeff_bytes(rec.output.u.coeffs))
                coeffs.update(_coeff_bytes(rec.reconstruction.coeffs))
            outcomes[f"{workload} {ladder.name}@{tol!r}"] = {
                "run": [result.T, result.M, result.dofs, result.termination.value],
                "intervals": [
                    [rec.interval.t_start, rec.interval.t_end, rec.r, rec.attempts, list(rec.decisions)]
                    for rec in result.intervals
                ],
                "bounds": [rec.estimate.bound for rec in result.intervals],
                "eta_res": [rec.estimate.eta_res for rec in result.intervals],
                "f_points": ladder.f_points[0],
                "coeffs": coeffs.hexdigest(),
                # each step ran at the tolerance before its own delta scaled it
                "atols": [share * t for t in (tol,) + result.tol_trace[:-1]][: result.M],
                "steps": run["steps"],
                "starts": run["starts"],
            }
    return outcomes


def relative(a, b):
    """The move from a to b, relative to a when a is positive."""
    return abs(b - a) / a if a > 0 else abs(b - a)


def first_difference(theirs, mine, march=False):
    """The first field in which two outcomes differ, as text, or None;
    with march, an interval's attempts and decisions do not count."""
    if theirs["run"] != mine["run"]:
        return f"(T, M, dofs, termination) {theirs['run']} -> {mine['run']}"
    width = 3 if march else None  # t_start, t_end, r
    for i, (a, b) in enumerate(zip(theirs["intervals"], mine["intervals"])):
        if a[:width] != b[:width]:
            return f"interval {i}: {a} -> {b}"
    return None


def total_attempts(outcome):
    """The attempts over the accepted intervals of one run outcome."""
    return sum(interval[3] for interval in outcome["intervals"])


def compare_outcomes(rev, seed, march=False):
    """Compare the run outcomes (with march, the marches) of this
    checkout with those of revision rev; returns the exit status, 0 when
    every one is equal."""
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
        differ, moves, etas = [], [], []
        for key in keys:
            diff = first_difference(theirs[key], mine[key], march)
            if diff is not None:
                differ.append(f"  {key.split()[1]}: {diff}")
                continue
            pairs = zip(
                theirs[key]["bounds"], mine[key]["bounds"], mine[key]["atols"],
                theirs[key]["eta_res"], mine[key]["eta_res"],
            )
            for i, (a, b, atol, eta_a, eta_b) in enumerate(pairs):
                own = relative(eta_a, eta_b)
                moves.append((relative(a, b), key.split()[1], i, a, b, max(a, b) <= atol, own > 0.01))
                etas.append((own, key.split()[1], i, eta_a, eta_b))
        status |= bool(differ)
        print(f"{workload} seed={seed} runs={len(keys)} same={len(keys) - len(differ)} differ={len(differ)}")
        print(
            f"  f points: {rev} {sum(theirs[key]['f_points'] for key in keys)}, "
            f"here {sum(mine[key]['f_points'] for key in keys)}"
        )
        print(
            f"  attempts: {rev} {sum(total_attempts(theirs[key]) for key in keys)}, "
            f"here {sum(total_attempts(mine[key]) for key in keys)}"
        )
        for label, i in (("steps", 0), ("failed steps", 1), ("Picard updates", 2)):
            print(
                f"  {label}, the discarded last intervals' included: "
                f"{rev} {sum(theirs[key]['steps'][i] for key in keys)}, "
                f"here {sum(mine[key]['steps'][i] for key in keys)}"
            )
        print("  by start, steps / Picard updates / f points:")
        for kind, label in START_KINDS.items():
            sides = [
                "/".join(str(sum(side[key]["starts"][kind][i] for key in keys)) for i in range(3))
                for side in (theirs, mine)
            ]
            print(f"    {label}: {rev} {sides[0]}, here {sides[1]}")
        for line in differ:
            print(line)
        coeffs = sum(theirs[key]["coeffs"] != mine[key]["coeffs"] for key in keys)
        print(f"  runs with differing step or reconstruction coefficient bytes: {coeffs}")
        if moves:
            rel, name, i, a, b, _, _ = max(moves)
            print(
                f"  bound moves over {len(moves)} intervals: median relative "
                f"{statistics.median(m[0] for m in moves):.3g}, largest {rel:.3g} "
                f"({name} interval {i}: {a!r} -> {b!r})"
            )
            rel, name, i, a, b = max(etas)
            print(
                f"  eta_res moves: median relative {statistics.median(m[0] for m in etas):.3g}, "
                f"largest {rel:.3g} ({name} interval {i}: {a!r} -> {b!r})"
            )
            large = [m for m in moves if m[0] > 0.01]
            print(
                f"  moved by more than 1%: {len(large)} intervals, "
                f"{sum(m[5] for m in large)} of them with both bounds at or below the Picard atol, "
                f"{sum(m[6] for m in large)} with their own eta_res moved by more than 1% "
                f"(the others follow earlier intervals)"
            )
            above = [m for m in moves if not m[5]]
            if above:
                rel, name, i, a, b, _, _ = max(above)
                print(f"  largest move above the atol: {rel:.3g} ({name} interval {i}: {a!r} -> {b!r})")
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
        "--march",
        action="store_true",
        help="with --outcomes, compare the steps taken but not the attempts and decisions",
    )
    parser.add_argument(
        "--root", metavar="DIR", default=ROOT, help="the checkout whose benchmark to run"
    )
    args = parser.parse_args(argv)
    if args.march and not args.outcomes:
        parser.error("--march needs --outcomes")
    if args.outcomes:
        if args.against is not None:
            return compare_outcomes(args.against, args.seed, args.march)
        print(json.dumps(run_outcomes(args.seed, os.path.abspath(args.root))))
        return 0
    if args.against is not None:
        return against(args.against, args.seed)
    for line in digest_lines(args.seed, os.path.abspath(args.root)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
