#!/usr/bin/env python3
"""An audit of the certificates of the benchmark runs, without exact
solutions.

Usage (from the root of a checkout):

    python3 tests/certificate_audit.py [--seed N] [--workload W] [--against REV]

Runs each operation of the ``bench/run.py`` workloads (all three, or
``--workload W``) once, in the order the seed draws (default 1), through
the benchmark's own ``load_program``, ``build_inputs`` and ``solve``,
and recomputes, for every accepted interval, three ingredients of its
certificate with numerics of its own:

* the residual R(t) = int_{t_start}^{t} f(s, uhat) ds - (uhat(t) -
  uhat(t_start)) of the reconstruction uhat, with the integral by the
  8-point Gauss-Legendre rule on each of 1000 equal panels and R taken
  at the 1001 panel ends.  The prefix sums of the panel integrals carry
  their rounding errors (TwoSum), and uhat(t) - uhat(t_start) is formed
  from the differences of the Legendre polynomials, without the
  constant term, so that R keeps its bits where the integral and the
  difference cancel.  Its largest Euclidean norm, the dense residual
  sup, is compared with the interval's ``eta_res``, and a ratio
  dense / eta_res above 1.001 is an under-report;
* the continuity of the reconstruction: each interval starts where the
  one before ends (t_start equals the last t_end), and the left value
  the step was given equals the last reconstruction's end value, its
  coefficient sum (P_i(1) = 1), bit for bit; the first interval starts
  at t = 0 from the problem's u0.  The left values are read by
  wrapping the drivers' ``step``;
* the recursion psi_M = delta_(M-1) psi_(M-1) + eta_M, with psi_1 =
  eta_1, as floats, bit for bit;
* the growth certificate phi(delta) = exp(int lip(s, delta psi +
  |uhat|, |uhat|) ds) - delta < 0 of the returned delta, with the
  integral by the 32-point Gauss-Legendre rule on each of 8 equal
  panels (``phi_dense``).  The solve integrates on a rule of its own,
  and a returned delta with phi_dense(delta) >= 0 is certified by that
  rule only.  A second count takes only phi_dense(delta) > 4 eps delta
  (``PHI_MARGIN_ULPS``), past a few roundings of exp(exponent) - delta,
  whose one rounding alone can read +4.44e-16 at a delta the solve's
  own rule certifies.  Both counts are reported, not checked: neither
  sets the exit status.

It prints per workload the number of intervals, the count of the
residual under-reports, the largest ratio dense / eta_res with its
interval, named ``ladder@tol#index`` (index from 0), the number of
continuity and recursion breaks, the count of phi_dense(delta) >= 0
with the largest phi_dense and its interval, and the count of
phi_dense(delta) > 4 eps delta; ``--json`` prints the
findings as one JSON object instead.  The residual evaluates f at 8000
points per interval; a problem without ``f_batch`` (``custom-scalar``)
takes one call per point, about a minute per side.  ``--root DIR``
audits the checkout at DIR instead of this one.

``--against REV`` extracts the committed tree of the git revision REV
(``report_digest.extract_tree``) into a temporary directory, runs this
script on it (``--root``, so REV need not have the script), and prints
both sides.  The script exits 1 when it finds a residual under-report,
a continuity break or a recursion break, or, with ``--against``, when a
workload's count or worst residual under-report is above REV's; 2 when
git or REV's run fails.
It writes only the temporary directory: no ref, index or working-tree
file changes.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

EPS = sys.float_info.epsilon

from report_digest import ROOT, extract_tree, load_bench

PANELS = 1000
PANEL_POINTS = 8
# a dense residual sup above this share of eta_res is an under-report
UNDER_REPORT = 1.001
# the second phi_dense count takes phi_dense(delta) > PHI_MARGIN_ULPS eps
# delta only, past a few roundings of exp(exponent) - delta
PHI_MARGIN_ULPS = 4
# the rule of phi_dense: GROWTH_POINTS Gauss points on each of
# GROWTH_PANELS equal panels
GROWTH_PANELS = 8
GROWTH_POINTS = 32
WORKLOADS = ("hp-sweep", "h-sweep", "custom-scalar")


def _two_sum_error(a, b):
    """The rounding error of a + b: a + b is its rounded value plus the
    error exactly (Knuth's TwoSum, elementwise)."""
    s = a + b
    bb = s - a
    return (a - (s - bb)) + (b - bb)


class Panels:
    """Reference points of the dense residual and of phi_dense: the
    Gauss-Legendre nodes of every panel of [-1, 1] and their weights
    (each panel maps [-1, 1] onto a length 2 / panels), and the panel
    ends of the residual; with their Legendre Vandermonde matrices per
    degree, built once (``vander``)."""

    def __init__(self, np):
        # numpy is imported once the benchmark has pinned its threads
        from numpy.polynomial import legendre

        self.np, self.legendre = np, legendre
        self.ends, self.nodes, self.weights = self._panels(PANELS, PANEL_POINTS)
        _, self.growth_nodes, growth_weights = self._panels(GROWTH_PANELS, GROWTH_POINTS)
        self.growth_weights = growth_weights.ravel()
        self._vander = {}

    def _panels(self, panels, points):
        """The panel ends, the nodes (panels * points,) and the weights
        (panels, points) of the points-point rule on each panel."""
        np = self.np
        g, w = self.legendre.leggauss(points)
        ends = np.linspace(-1.0, 1.0, panels + 1)
        half = 0.5 * (ends[1:] - ends[:-1])
        mid = 0.5 * (ends[1:] + ends[:-1])
        return ends, (mid[:, None] + half[:, None] * g[None, :]).ravel(), half[:, None] * w

    def vander(self, degree):
        """The Vandermonde matrices of the residual's nodes and of the
        growth nodes, and the differences P_i(x) - P_i(-1), i >= 1, at
        the panel ends after the first."""
        if degree not in self._vander:
            lv = self.legendre.legvander
            at_ends = lv(self.ends, degree)
            self._vander[degree] = (
                lv(self.nodes, degree), at_ends[1:, 1:] - at_ends[0, 1:], lv(self.growth_nodes, degree)
            )
        return self._vander[degree]

    def residual_sup(self, rhs_at, p, u_hat):
        """The largest norm of R at the panel ends of u_hat's interval.

        R is a small difference of two large terms, so neither may
        carry a rounding at the size of uhat.  The running sum of the panel
        integrals keeps the rounding error of each addition
        (``_two_sum_error``), and uhat(t) - uhat(t_start) is taken from
        the differences of P_1 ... P_r, so the constant term cancels
        before any rounding.  With a plain ``cumsum`` of the panels and
        a difference of the end values, rounding alone put the ratio
        dense / eta_res of a 5e-13 residual of a uhat of size 1 at
        1.00115, against 1.00041 here."""
        np = self.np
        iv, coeffs = u_hat.interval, u_hat.coeffs
        at_nodes, gaps, _ = self.vander(coeffs.shape[0] - 1)
        k = iv.t_end - iv.t_start
        ts = iv.t_start + 0.5 * k * (self.nodes + 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            f = rhs_at(p, ts, at_nodes @ coeffs).reshape(PANELS, PANEL_POINTS, -1)
            panel = 0.5 * k * np.einsum("pq,pqd->pd", self.weights, f)
            # np.cumsum adds in order: each prefix is the rounded sum of
            # the one before and the next panel
            prefix = np.cumsum(panel, axis=0)
            errors = np.zeros_like(prefix)
            errors[1:] = _two_sum_error(prefix[:-1], panel[1:])
            res = (prefix - gaps @ coeffs[1:]) + np.cumsum(errors, axis=0)
            sup = float(np.sqrt((res * res).sum(axis=1)).max())
        return sup if np.isfinite(sup) else float("inf")

    def phi_dense(self, lip_at, p, u_hat, psi, delta):
        """phi(delta) = exp(int lip(s, delta psi + |uhat|, |uhat|) ds) -
        delta on u_hat's interval, the integral on ``GROWTH_PANELS``
        panels of ``GROWTH_POINTS`` Gauss points; inf where the envelope
        or the exponential leaves double range."""
        np = self.np
        iv, coeffs = u_hat.interval, u_hat.coeffs
        at_growth = self.vander(coeffs.shape[0] - 1)[2]
        k = iv.t_end - iv.t_start
        ts = iv.t_start + 0.5 * k * (self.growth_nodes + 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = at_growth @ coeffs
            norms = np.sqrt((vals * vals).sum(axis=1))
            try:
                lip = lip_at(p, ts, delta * psi + norms, norms)
                exponent = 0.5 * k * float(self.growth_weights @ lip)
                return math.exp(exponent) - delta if math.isfinite(exponent) else math.inf
            except ArithmeticError:  # OverflowError or NumericOverflow
                return math.inf


def audit_run(panels, program, problem, result, u_lefts, name):
    """The findings of one run: (ratio, interval name) and (phi_dense,
    interval name) per interval, the (phi_dense, interval name) of the
    intervals with phi_dense(delta) > PHI_MARGIN_ULPS eps delta, and the
    continuity and recursion breaks, as interval names.  program is
    ``hpgalerkin.problems``, for its ``rhs_at`` and ``lip_at``."""
    ratios, phis, beyond, continuity, recursion = [], [], [], [], []
    prev = None
    for i, (rec, u_left) in enumerate(zip(result.intervals, u_lefts)):
        label = f"{name}#{i}"
        est = rec.estimate
        dense = panels.residual_sup(program.rhs_at, problem, rec.reconstruction)
        ratio = dense / est.eta_res if est.eta_res > 0 else (1.0 if dense == 0 else float("inf"))
        ratios.append((ratio, label))
        phi = panels.phi_dense(program.lip_at, problem, rec.reconstruction, est.psi, est.delta)
        phis.append((phi, label))
        if phi > PHI_MARGIN_ULPS * EPS * est.delta:
            beyond.append((phi, label))
        if prev is None:
            starts = rec.interval.t_start == 0.0 and u_left.tobytes() == problem.u0.tobytes()
            psi = est.eta_res
        else:
            end = prev.reconstruction.coeffs.sum(axis=0)
            starts = (
                rec.interval.t_start == prev.interval.t_end and u_left.tobytes() == end.tobytes()
            )
            psi = prev.estimate.delta * prev.estimate.psi + est.eta_res
        if not starts:
            continuity.append(label)
        if est.psi != psi:
            recursion.append(label)
        prev = rec
    return ratios, phis, beyond, continuity, recursion


def audit(seed, workloads, root=ROOT):
    """Per workload: intervals, under-reports (ratio, name) sorted worst
    first, continuity and recursion breaks, the phi_dense(delta) >= 0
    (phi, name) sorted worst first with the largest phi_dense, and the
    phi_dense(delta) > PHI_MARGIN_ULPS eps delta (phi, name) sorted
    worst first."""
    bench = load_bench(root)
    adapt = sys.modules["hpgalerkin.adapt"]
    problems = sys.modules["hpgalerkin.problems"]
    panels = Panels(bench.np)
    # the left value of every step of a run, by its output, which the
    # entry keeps alive, so that no two outputs share an id
    steps = {}
    inner = adapt.step

    def spy(p, inp, *args, **kwargs):
        out = inner(p, inp, *args, **kwargs)
        steps[id(out)] = (out, inp.u_left)
        return out

    adapt.step = spy
    summary = {}
    for workload in workloads:
        _, ops = bench.build_inputs(workload, seed)
        intervals, top, under, continuity, recursion = 0, (0.0, "-"), [], [], []
        phi_top, phi_nonneg, phi_beyond = (-math.inf, "-"), [], []
        for ladder, tol in ops:
            steps.clear()
            result = bench.solve(ladder, tol)
            u_lefts = [steps[id(rec.output)][1] for rec in result.intervals]
            ratios, phis, beyond, run_continuity, run_recursion = audit_run(
                panels, problems, ladder.problem, result, u_lefts, f"{ladder.name}@{tol:.3g}"
            )
            intervals += len(result.intervals)
            top = max([top] + ratios)
            under += [(ratio, label) for ratio, label in ratios if ratio > UNDER_REPORT]
            phi_top = max([phi_top] + phis)
            phi_nonneg += [(phi, label) for phi, label in phis if phi >= 0.0]
            phi_beyond += beyond
            continuity += run_continuity
            recursion += run_recursion
        under.sort(reverse=True)
        phi_nonneg.sort(reverse=True)
        phi_beyond.sort(reverse=True)
        summary[workload] = {
            "intervals": intervals,
            "top": top,
            "under": under,
            "continuity": continuity,
            "recursion": recursion,
            "phi_top": phi_top,
            "phi_nonneg": phi_nonneg,
            "phi_beyond": phi_beyond,
        }
    adapt.step = inner
    return summary


def describe(entry):
    ratio, label = entry["top"]
    phi, phi_label = entry["phi_top"]
    return (
        f"intervals={entry['intervals']} under-reports above {UNDER_REPORT}: "
        f"{len(entry['under'])}, largest dense/eta_res {ratio:.6g} ({label}); "
        f"continuity breaks {len(entry['continuity'])}, "
        f"recursion breaks {len(entry['recursion'])}; "
        f"phi_dense(delta) >= 0: {len(entry['phi_nonneg'])}, "
        f"largest phi_dense {phi:.3g} ({phi_label}); "
        f"phi_dense(delta) > {PHI_MARGIN_ULPS} eps delta: {len(entry['phi_beyond'])}"
    )


def fails(entry):
    """A residual under-report, a continuity break or a recursion break;
    both phi_dense counts are reported only."""
    return bool(entry["under"] or entry["continuity"] or entry["recursion"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="the benchmark seed (default 1)")
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="a benchmark workload to audit (repeatable; default all)",
    )
    parser.add_argument(
        "--against", metavar="REV", help="audit the committed tree of git revision REV too"
    )
    parser.add_argument(
        "--root", metavar="DIR", default=ROOT, help="the checkout whose benchmark to run"
    )
    parser.add_argument("--json", action="store_true", help="print the findings as JSON")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)

    theirs = None
    if args.against is not None:
        with tempfile.TemporaryDirectory(prefix="certificate-audit-") as tmp:
            if not extract_tree(args.against, tmp):
                return 2
            cmd = [sys.executable, os.path.abspath(__file__), "--json", "--root", tmp,
                   "--seed", str(args.seed)]
            for workload in workloads:
                cmd += ["--workload", workload]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode not in (0, 1):
            print(f"error: the audit of {args.against} failed:\n{proc.stderr}", file=sys.stderr)
            return 2
        theirs = json.loads(proc.stdout)

    mine = audit(args.seed, workloads, os.path.abspath(args.root))
    if args.json:
        print(json.dumps(mine))
        return int(any(map(fails, mine.values())))
    status = 0
    for workload, entry in mine.items():
        status |= fails(entry)
        print(f"{workload} seed={args.seed}")
        if theirs is not None:
            other = theirs[workload]
            print(f"  {args.against}: {describe(other)}")
            worse = len(entry["under"]) > len(other["under"]) or (
                entry["under"] and entry["top"][0] > other["top"][0]
            )
            status |= bool(worse)
        print(f"  here: {describe(entry)}")
        for ratio, label in entry["under"][:5]:
            print(f"  under-report {ratio:.6g} at {label}")
        for label in (entry["continuity"] + entry["recursion"])[:5]:
            print(f"  break at {label}")
    return status


if __name__ == "__main__":
    sys.exit(main())
