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
attempts over the accepted intervals; each side's count of every
decision name over the accepted intervals; its totals of all steps,
failed steps and Picard updates, read by a wrapper on ``adapt.step``, so
that they include the attempts on each run's final, discarded interval
(informational: they never change the exit status); the same
wrapper's steps, Picard updates and f points split by how each attempt
started (``START_KINDS``: from the constant, or from a guess for the
next interval, after a predicted halving, after a pole halving, after
an accuracy halving or after a degree raise), also informational; the
f points split by the outcome of the attempt that spent them
(``OUTCOMES``: accepted, rejected on accuracy, failed step or the
discarded final candidate), with each side's shares, informational
too; the f points split by what evaluates them (``EVALUATORS``: the
Picard steps, or the residual's rule, read by a wrapper on
``adapt._residual_f_vals``), with each side's shares, informational as
well; the number of runs whose outcome differs, each such run with its
first difference, and the number of runs whose step or reconstruction
coefficient bytes differ.  For the runs with equal outcomes it prints
how far the bounds and each interval's own ``eta_res`` moved (the
median and the largest relative move, interval by interval).  It also
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
import collections
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

# How an attempt ended, in the order the comparison prints them.  An
# attempt whose step did not converge failed; one whose candidate reached
# the delta solve was accepted, or was the final candidate, discarded,
# when no delta was found; every other one was rejected on accuracy,
# overflow halvings included.  An attempt spends the f points from the
# start of its step to the start of the next one, or to the run's end:
# its step, its residual and its delta solve.
OUTCOMES = {
    "accepted": "accepted",
    "rejected": "rejected on accuracy",
    "failed": "failed step",
    "final": "discarded final candidate",
}

# What evaluates f, in the order the comparison prints them: the
# residual's rule is what ``adapt._residual_f_vals`` evaluates, once per
# candidate; the Picard steps spend every other f point.
EVALUATORS = {"step": "the Picard steps", "residual": "the residual's rule"}

# How an attempt started, in the order the comparison prints them.
START_KINDS = {
    "constant": "the constant",
    "next": "next interval",
    "predicted": "predicted halving",
    "pole": "pole halving",
    "halve": "accuracy halving",
    "raise": "degree raise",
}


def load_bench(root=ROOT):
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(root, "bench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.load_program()
    return bench


def loglog_at(pairs, x):
    """The log-log interpolation at x of the (abscissa, error) pairs, a
    set sorted by abscissa; None where x falls outside their range.
    Criterion 3 reads an h sweep's error at an hp run's DoFs with it
    (``_h_error_at`` in ``tests/test_acceptance.py``), ``work_rates.py``
    at its DoFs, f points and CPU time.  numpy is imported on the call,
    so that importing this module leaves numpy to ``load_bench``, which
    pins its threads first."""
    import numpy as np

    pts = sorted(set(pairs))
    d = np.array([p[0] for p in pts], float)
    e = np.array([p[1] for p in pts], float)
    if x < d.min() or x > d.max():
        return None
    return float(np.exp(np.interp(np.log(x), np.log(d), np.log(e))))


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
    around each call, and ``outcomes``: the f points per ``OUTCOMES``
    key, told apart by a wrapper on ``adapt.solve_delta`` too, and
    ``evaluators``: the f points per ``EVALUATORS`` key, the residual's
    read by a wrapper on ``adapt._residual_f_vals``.  A tree
    whose ``adapt._reciprocal_iterate`` can find a pole (``adapt._POLE``)
    has that function wrapped too, so that the attempt after a pole
    halving is told apart."""
    bench = load_bench(root)
    adapt = sys.modules["hpgalerkin.adapt"]
    share = getattr(adapt, "PICARD_TOL_SHARE", 0.0)
    # the run's counters, its f point counter, its last step input,
    # whether a pole halving came after it and its open attempt: the
    # attempt's outcome so far and the f point count where it started
    run = {
        "steps": [0, 0, 0], "starts": {}, "outcomes": {}, "f_points": [0],
        "last": None, "pole": False, "attempt": None, "residual": 0,
    }
    step, recip = adapt.step, getattr(adapt, "_reciprocal_iterate", None)
    residual_f_vals = getattr(adapt, "_residual_f_vals", None)
    solve_delta, not_found = adapt.solve_delta, adapt.DeltaNotFound
    pole = getattr(adapt, "_POLE", None)

    def counted_step(*args, **kwargs):
        inp, before = args[1], run["f_points"][0]
        close_attempt(run)
        run["attempt"] = ["rejected", before]
        out = step(*args, **kwargs)
        if not out.converged:
            run["attempt"][0] = "failed"
        steps = run["steps"]
        steps[0] += 1
        steps[1] += not out.converged
        steps[2] += out.picard_iters
        kind = start_kind(run["last"], inp, kwargs.get("guess"), run["pole"])
        run["last"], run["pole"] = inp, False
        counts = run["starts"][kind]
        counts[0] += 1
        counts[1] += out.picard_iters
        counts[2] += run["f_points"][0] - before
        return out

    def watched_delta(*args, **kwargs):
        delta = solve_delta(*args, **kwargs)
        run["attempt"][0] = "final" if isinstance(delta, not_found) else "accepted"
        return delta

    def watched_recip(*args):
        guess = recip(*args)
        run["pole"] |= guess is pole
        return guess

    def counted_residual(*args):
        before = run["f_points"][0]
        out = residual_f_vals(*args)
        run["residual"] += run["f_points"][0] - before
        return out

    adapt.step, adapt.solve_delta = counted_step, watched_delta
    if pole is not None:
        adapt._reciprocal_iterate = watched_recip
    if residual_f_vals is not None:
        adapt._residual_f_vals = counted_residual
    try:
        return _outcomes(bench, seed, share, run)
    finally:
        adapt.step, adapt.solve_delta = step, solve_delta
        if pole is not None:
            adapt._reciprocal_iterate = recip
        if residual_f_vals is not None:
            adapt._residual_f_vals = residual_f_vals


def close_attempt(run):
    """Add the f points of the run's last attempt, up to now, to its
    outcome, and forget the attempt."""
    if run["attempt"] is not None:
        outcome, start = run["attempt"]
        run["outcomes"][outcome] += run["f_points"][0] - start
        run["attempt"] = None


def start_kind(last, inp, guess, pole=False):
    """How the attempt ``inp`` started, given the step input ``last`` of
    the attempt before it, the guess it was passed and whether a pole
    halving came between them, as
    ``tests/test_adapt.py::TestWarmStartDecisions`` tells: a key of
    ``START_KINDS``.  An attempt without a guess starts from the
    constant, as after a second pole halving; one that starts where the
    last ended continues the march, halved on a pole when one came
    between, else on the prediction when its k is about half the last
    one; one at the same start follows a rejection, a raise when its
    degree is one more."""
    if guess is None:
        return "constant"
    if inp.interval.t_start == last.interval.t_end:
        if pole:
            return "pole"
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
                outcomes=dict.fromkeys(OUTCOMES, 0), attempt=None,
                f_points=ladder.f_points, last=None, pole=False, residual=0,
            )
            result = bench.solve(ladder, tol)
            close_attempt(run)
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
                "outcomes": run["outcomes"],
                "evaluators": {
                    "step": ladder.f_points[0] - run["residual"], "residual": run["residual"],
                },
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


def decision_counts(outcomes):
    """The count of every decision name over the accepted intervals of
    the run outcomes."""
    return collections.Counter(
        name for outcome in outcomes for interval in outcome["intervals"] for name in interval[4]
    )


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
        counts = [decision_counts(side[key] for key in keys) for side in (theirs, mine)]
        print("  decisions over the accepted intervals:")
        for name in sorted(counts[0].keys() | counts[1].keys()):
            print(f"    {name}: {rev} {counts[0].get(name, 0)}, here {counts[1].get(name, 0)}")
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
        print(f"  f points by outcome, {' / '.join(OUTCOMES.values())}:")
        for label, side in ((rev, theirs), ("here", mine)):
            points = [sum(side[key]["outcomes"][kind] for key in keys) for kind in OUTCOMES]
            shares = "/".join(f"{100 * n / max(sum(points), 1):.1f}" for n in points)
            print(f"    {label}: {'/'.join(map(str, points))} ({shares}%)")
        print(f"  f points by evaluator, {' / '.join(EVALUATORS.values())}:")
        for label, side in ((rev, theirs), ("here", mine)):
            points = [sum(side[key]["evaluators"][kind] for key in keys) for kind in EVALUATORS]
            shares = "/".join(f"{100 * n / max(sum(points), 1):.1f}" for n in points)
            print(f"    {label}: {'/'.join(map(str, points))} ({shares}%)")
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
