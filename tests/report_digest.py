#!/usr/bin/env python3
"""SHA-256 digest of every report number of the seed-1 benchmark runs.

Usage (from the root of a checkout):

    python3 tests/report_digest.py

Runs each operation of every ``bench/run.py`` workload once, in the
seed-1 order, through the benchmark's own ``load_program``,
``build_inputs`` and ``solve``, and prints one line per workload:
its name, the number of runs and the digest.  Two checkouts whose
solver numbers are bit-identical print the same lines.

Per run the digest covers T, M, dofs, the termination, the tolerance
trace and the number of f points.  Per accepted interval it covers the
endpoints, the degree, the Picard iteration count, every estimate,
theta, the reconstruction error, the attempts, the decisions, the
interval's dofs, and the bytes of the step and reconstruction
coefficients.  Floats enter through ``repr``, which round-trips.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

import hashlib
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(ROOT, "bench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.load_program()
    return bench


def _coeff_bytes(coeffs):
    return repr(coeffs.shape).encode() + coeffs.astype("<f8", order="C").tobytes()


def run_digest(h, result, f_points):
    h.update(repr((result.T, result.M, result.dofs, result.termination.value)).encode())
    h.update(repr((tuple(result.tol_trace), f_points)).encode())
    for rec in result.intervals:
        est = rec.estimate
        fields = (
            rec.interval.t_start,
            rec.interval.t_end,
            rec.r,
            rec.output.picard_iters,
            est.eta_res,
            est.psi,
            est.delta,
            est.bound,
            est.delta_hat,
            est.effectivity,
            rec.theta,
            rec.recon_error,
            rec.attempts,
            rec.decisions,
            rec.dofs,
        )
        h.update(repr(fields).encode())
        h.update(_coeff_bytes(rec.output.u.coeffs))
        h.update(_coeff_bytes(rec.reconstruction.coeffs))


def main():
    bench = load_bench()
    for workload in bench.WORKLOADS:
        _, ops = bench.build_inputs(workload, SEED)
        h = hashlib.sha256()
        for ladder, tol in ops:
            ladder.f_points[0] = 0
            result = bench.solve(ladder, tol)
            run_digest(h, result, ladder.f_points[0])
        print(f"{workload} runs={len(ops)} sha256={h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
