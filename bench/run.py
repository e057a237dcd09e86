#!/usr/bin/env python3
"""Blow-up benchmark for hpgalerkin: tolerance ladders to a certified T.

Usage (from the root of a checkout):

    python3 bench/run.py --workload hp-sweep --seed 1 --seconds 15 --trace 0

One operation is one adaptive run (one ``tol_star`` of a ladder); a round
is every run of the workload once, in an order drawn from the seed.  The
run repeats whole rounds until ``--seconds`` have passed, checks every
run against closed-form solutions computed here, and prints one JSON
object as the last line of standard output:

* ``--trace 0``: the end-to-end metrics (``setup_s``, ``wall_s``,
  ``peak_rss_mb``, ``rhs_evals``, ``dofs``, ``err_gmean``);
* ``--trace 1``: one untraced round, then traced rounds that wrap the
  public functions the drivers call and report per-layer counts and self
  times, plus the tracing overhead.

The program is imported from ``src/`` of the checkout; nothing is
installed.  A fuller description is in ``bench/README.md``.
"""

import time

# Timed work is measured in CPU time of this process: the program is
# single-threaded and does no I/O, and CPU time leaves out the time the
# host takes the virtual CPU away (steal), which wall time counts.
clock = time.process_time
_CPU_START = clock()

import argparse
import dataclasses
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict

# One process, one thread: pin numpy's BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "bench", "results")

WORKLOADS = ("hp-sweep", "h-sweep", "custom-scalar")
HP_TOLS = [10.0 ** (-e / 2) for e in range(4, 21)]  # 1e-2 .. 1e-10, half decades
H_TOLS = [10.0 ** (-e / 2) for e in range(4, 15)]  # 1e-2 .. 1e-7
H_DEGREES = (1, 4)  # lowest and highest degree of the paper's h experiment
SCHEMES = ("cg", "dg")
# Near blow-up the iterate must be allowed past the default cap of 1e8,
# as in the paper's hp experiment.
HP_PICARD = {"divergence_cap": 1e12}
# Set-ups measured per run, each in a fresh process.
SETUP_PROBES = 6
# On a host whose cores other tenants share, speed swings by up to 2x
# within a second and drifts by 50% over minutes (measured on a 2-vCPU
# Xeon at 2.0 GHz).  Every timed call is therefore bracketed by a fixed
# speed probe and scaled to the probe's reference time, close to its
# median there (4.95 ms over 2000 probes, Python 3.11.7, numpy 2.4.6), so
# times read as seconds on that host at its usual speed.
PROBE_ITERS = 100
PROBE_SLICES = 5
PROBE_REF_S = 0.005
# Dense check grid: Chebyshev-Lobatto points on the reference interval.
CHECK_POINTS = 401

np = None  # numpy, bound by load_program()
hg = None  # hpgalerkin
cli = None  # hpgalerkin.cli


def load_program():
    """Import numpy and hpgalerkin from this checkout's src/ directory."""
    global np, hg, cli
    if not os.path.isfile(os.path.join(SRC, "hpgalerkin", "__init__.py")):
        sys.exit(f"error: no hpgalerkin sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    np = importlib.import_module("numpy")
    hg = importlib.import_module("hpgalerkin")
    cli = importlib.import_module("hpgalerkin.cli")
    if not os.path.abspath(hg.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported hpgalerkin from {hg.__file__}, not from {SRC}")


def speed_probe():
    """CPU seconds for a fixed mix of small numpy calls and Python overhead.

    The mix resembles the program's inner loops (Legendre evaluation of a
    few coefficients at a dozen points, a small product, reductions) and
    uses no program code, so its time follows the machine's speed only.
    """
    x, c, m, v = np.linspace(-1.0, 1.0, 12), np.ones((6, 1)), np.eye(8), np.ones((8, 1))
    legval = np.polynomial.legendre.legval
    slices = []
    for _ in range(PROBE_SLICES):
        start = clock()
        for _ in range(PROBE_ITERS // PROBE_SLICES):
            peak = float(np.max(np.abs(legval(x, c))))
            np.array([peak, 1.0])
            m @ v
        slices.append(clock() - start)
    # the median slice drops a stray pause (a collection, a preemption)
    return PROBE_SLICES * statistics.median(slices)


# --------------------------------------------------------------------------
# inputs


@dataclasses.dataclass
class Ladder:
    """One (problem, scheme[, degree]) tolerance ladder."""

    name: str
    config: dict  # documented run-config keys, without tol_star
    problem: object  # hpgalerkin.Problem whose f counts evaluation points
    f_points: list  # [points at which f was evaluated]
    t_inf: float
    exact: object  # ts (n,) -> (d, n), closed form computed here
    tols: list


def _counted_builtin(config):
    """Built-in problem from the config, its f_batch wrapped to count points."""
    problem = cli.build_problem(config)
    f_points = [0]
    inner = problem.f_batch

    def f_batch(ts, us):
        f_points[0] += len(ts)
        return inner(ts, us)

    return dataclasses.replace(problem, f_batch=f_batch), f_points


def _builtin_ladders(mode):
    ladders = []
    for name in ("power2", "exp"):
        u0 = 1.0
        if name == "power2":
            t_inf, k_init = 1.0 / u0, 0.15

            def exact(ts, u0=u0):
                return (u0 / (1.0 - u0 * ts))[None, :]

        else:
            t_inf, k_init = math.exp(-u0), 0.09

            def exact(ts, u0=u0):
                return (u0 - np.log1p(-math.exp(u0) * ts))[None, :]

        for scheme in SCHEMES:
            degrees = (1,) if mode == "hp" else H_DEGREES
            for r in degrees:
                config = {
                    "problem": {"name": name, "u0": u0},
                    "scheme": scheme,
                    "mode": mode,
                    "r": r,
                    "k_init": k_init,
                }
                if mode == "hp":
                    config["picard"] = dict(HP_PICARD)
                problem, f_points = _counted_builtin(config)
                ladders.append(
                    Ladder(
                        name=f"{name}/{scheme}/{mode}" + (f"/r{r}" if mode == "h" else ""),
                        config=config,
                        problem=problem,
                        f_points=f_points,
                        t_inf=t_inf,
                        exact=exact,
                        tols=HP_TOLS if mode == "hp" else H_TOLS,
                    )
                )
    return ladders


def _custom_ladders(seed):
    """The README's custom problem in R^2, f(u) = |u| u, scalar callables only.

    The seed draws the direction and size of u0.  u(t) = c w(c t) maps
    the solution w from |u0| = 1 to |u0| = c, so k_init scales with the
    blow-up time 1/c and tol_star with c: every seed poses the same
    problem up to this symmetry and rotation, with different floats.
    """
    rng = random.Random(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    size = math.exp(rng.uniform(math.log(0.8), math.log(1.25)))
    u0 = np.array([size * math.cos(angle), size * math.sin(angle)])
    t_inf = 1.0 / size
    ladders = []
    for scheme in SCHEMES:
        f_points = [0]

        def f(t, u, f_points=f_points):
            f_points[0] += 1
            return np.linalg.norm(u) * u

        problem = hg.Problem(dim=2, u0=u0, f=f, lip=lambda t, a, b: 2.0 * max(a, b))
        ladders.append(
            Ladder(
                name=f"custom/{scheme}/hp",
                config={
                    "scheme": scheme,
                    "mode": "hp",
                    "r": 1,
                    "k_init": 0.15 * t_inf,
                    "picard": dict(HP_PICARD),
                },
                problem=problem,
                f_points=f_points,
                t_inf=t_inf,
                exact=lambda ts, u0=u0, size=size: u0[:, None] / (1.0 - size * ts)[None, :],
                tols=[size * tol for tol in HP_TOLS],
            )
        )
    return ladders


def build_inputs(workload, seed):
    """Ladders and the seed-ordered list of (ladder, tol_star) operations."""
    if workload == "hp-sweep":
        ladders = _builtin_ladders("hp")
    elif workload == "h-sweep":
        ladders = _builtin_ladders("h")
    else:
        ladders = _custom_ladders(seed)
    ops = [(ladder, tol) for ladder in ladders for tol in ladder.tols]
    random.Random(seed).shuffle(ops)
    return ladders, ops


def solve(ladder, tol):
    """One adaptive run, configured through the documented config format."""
    cfg = cli.build_adapt_config(ladder.config, tol)
    driver = hg.hp_adapt if cfg.mode is hg.Mode.HP else hg.h_adapt
    return driver(ladder.problem, cfg)


def setup(workload, seed):
    """Import the program, build the inputs and warm up every ladder once."""
    load_program()
    ladders, ops = build_inputs(workload, seed)
    for ladder in ladders:
        solve(ladder, ladder.tols[0])
    return ladders, ops


# --------------------------------------------------------------------------
# independent checks


def check_run(ladder, result):
    """Termination, 0 < T < T_inf, and bound >= dense sampled true error."""
    if result.termination.value != "delta_not_found":
        return False
    if not 0.0 < result.T < ladder.t_inf:
        return False
    xs = np.cos(np.pi * np.arange(CHECK_POINTS) / (CHECK_POINTS - 1))
    for rec in result.intervals:
        iv = rec.interval
        ts = iv.t_start + 0.5 * (iv.t_end - iv.t_start) * (xs + 1.0)
        approx = np.polynomial.legendre.legval(xs, rec.reconstruction.coeffs)
        err = float(np.max(np.sqrt(np.sum((ladder.exact(ts) - approx) ** 2, axis=0))))
        if not err <= rec.estimate.bound:
            return False
    return True


def _line_fit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(slope), 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0


def check_ladder(ladder, runs):
    """Convergence rate of |T - T_inf| against DoFs over one ladder.

    hp: log err against sqrt(DoFs) has b = slope^2 > 0 (slope < 0) and
    R^2 >= 0.9; h: log err against log DoFs has slope within 0.5 of -(r+1).
    """
    pts = [(run["dofs"], run["rel_err"] * ladder.t_inf) for run in runs if run["rel_err"] > 0]
    if len(pts) < 3:
        return False
    dofs = np.array([p[0] for p in pts], dtype=float)
    err = np.log(np.array([p[1] for p in pts]))
    if ladder.config["mode"] == "hp":
        slope, r2 = _line_fit(np.sqrt(dofs), err)
        return slope < 0.0 and r2 >= 0.9
    slope, _ = _line_fit(np.log(dofs), err)
    return abs(slope + (ladder.config["r"] + 1)) <= 0.5


# --------------------------------------------------------------------------
# measurement


def run_round(ladders, ops, solve_fn):
    """Every operation once; returns per-op records keyed by (ladder, tol)."""
    runs = {}
    speed = speed_probe()
    for ladder, tol in ops:
        ladder.f_points[0] = 0
        start = clock()
        result = solve_fn(ladder, tol)
        wall = clock() - start
        before, speed = speed, speed_probe()
        scale = PROBE_REF_S / (0.5 * (before + speed))
        runs[(ladder.name, tol)] = {
            "wall": wall,
            "scale": scale,
            "ref_wall": wall * scale,
            "T": result.T,
            "M": result.M,
            "dofs": result.dofs,
            "f_points": ladder.f_points[0],
            "rel_err": abs(result.T - ladder.t_inf) / ladder.t_inf,
            "ok": check_run(ladder, result),
        }
    for ladder in ladders:
        mine = [runs[(ladder.name, tol)] for tol in ladder.tols]
        if not check_ladder(ladder, mine):
            for run in mine:
                run["ok"] = False
    return runs


def run_rounds(ladders, ops, seconds, solve_fn=solve):
    """Whole rounds until `seconds` have passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(ladders, ops, solve_fn))
    return rounds


def _deterministic(rounds):
    """Every round produced the same outputs for every operation."""
    keys = ("T", "M", "dofs", "f_points")
    first = rounds[0]
    return all(
        all(run[op][k] == first[op][k] for k in keys) for run in rounds[1:] for op in first
    )


def end_to_end(rounds, setup_s):
    first = rounds[0]
    wall = sum(statistics.median(rnd[op]["ref_wall"] for rnd in rounds) for op in first)
    errs = [run["rel_err"] for run in first.values() if run["rel_err"] > 0]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "rhs_evals": (sum(run["f_points"] for run in first.values()), "count"),
        "dofs": (sum(run["dofs"] for run in first.values()), "count"),
        "err_gmean": (math.exp(statistics.fmean(math.log(e) for e in errs)), "1"),
    }


def measure_setup(workload, seed):
    """Median set-up time over SETUP_PROBES fresh processes.

    Each process times its own import, inputs and warm-up; this process
    brackets it with speed probes to scale it like the ladder runs.
    """
    times = []
    speed = speed_probe()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        before, speed = speed, speed_probe()
        setup_s = float(proc.stdout.strip().splitlines()[-1])
        times.append(setup_s * PROBE_REF_S / (0.5 * (before + speed)))
    return statistics.median(times)


# --------------------------------------------------------------------------
# tracing


class Tracer:
    """Wraps program functions to record calls and self time per span.

    Self time is a span's duration minus the time of the spans it called,
    so the self times of all spans and the untraced remainder add up to
    the traced wall time.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.points = defaultdict(int)
        self.picard_iters = 0
        self.step_failed = 0
        self.absent = []
        self._children = []  # child time accumulated under each open span

    def span(self, key, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            self._children.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = self._children.pop()
                self.calls[key] += 1
                self.total_s[key] += dur
                self.self_s[key] += dur - child
                if self._children:
                    self._children[-1] += dur
            if after is not None:
                after(out)
            return out

        return wrapper

    def install(self):
        """Wrap every binding of each traced function in hpgalerkin.*."""
        mods = [m for n, m in sys.modules.items() if n == "hpgalerkin" or n.startswith("hpgalerkin.")]

        def count_points(key):
            # rhs_at(p, ts, us) and lip_at(p, ts, a, b): one point per time
            def before(args):
                self.points[key] += len(args[1])

            return before

        def after_step(out):
            self.picard_iters += out.picard_iters
            self.step_failed += not out.converged

        targets = [
            ("galerkin", "step", "galerkin.step", None, after_step),
            ("galerkin", "reconstruct", "galerkin.reconstruct", None, None),
            ("estimator", "residual_estimator", "estimator.residual", None, None),
            ("estimator", "solve_delta", "estimator.delta", None, None),
            ("estimator", "reconstruction_error", "estimator.recon_error", None, None),
            ("adapt", "smoothness", "adapt.smoothness", None, None),
            ("problems", "rhs_at", "problems.rhs", count_points("problems.rhs"), None),
            ("problems", "lip_at", "problems.lip", count_points("problems.lip"), None),
            ("poly", "project_values", "poly.project", None, None),
        ]
        for module, name, key, before, after in targets:
            mod = sys.modules.get(f"hpgalerkin.{module}")
            orig = getattr(mod, name, None)
            if orig is None:
                self.absent.append(f"{module}.{name}")
                continue
            wrapped = self.span(key, orig, before, after)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)

        local_poly = getattr(sys.modules.get("hpgalerkin.poly"), "LocalPoly", None)
        if local_poly is None:
            self.absent.append("poly.LocalPoly")
            return
        if hasattr(local_poly, "linf_norm"):
            local_poly.linf_norm = self.span("poly.linf_norm", local_poly.linf_norm)
        else:
            self.absent.append("poly.LocalPoly.linf_norm")
        init = local_poly.__init__

        def counted_init(obj, *args, **kwargs):
            self.calls["poly.localpoly"] += 1
            init(obj, *args, **kwargs)

        local_poly.__init__ = counted_init


def _ladder_wall(rounds):
    return sum(sum(run["ref_wall"] for run in rnd.values()) for rnd in rounds) / len(rounds)


def per_layer(tracer, traced_rounds, untraced_rounds):
    """Per-ladder layer figures; times are scaled like wall_s."""
    n = len(traced_rounds)
    intervals = sum(run["M"] for run in traced_rounds[0].values())
    runs = [run for rnd in traced_rounds for run in rnd.values()]
    scale = sum(run["ref_wall"] for run in runs) / sum(run["wall"] for run in runs)
    c = tracer.calls
    s = defaultdict(float, {key: scale * v / n for key, v in tracer.self_s.items()})
    steps = c["galerkin.step"]
    iters = tracer.picard_iters
    step_total = scale * tracer.total_s["galerkin.step"]
    return {
        "galerkin.step_s": (s["galerkin.step"], "s"),
        "galerkin.step_us_per_iter": (1e6 * step_total / iters if iters else 0.0, "us"),
        "galerkin.step_calls": (steps / n, "count"),
        "galerkin.step_failed": (tracer.step_failed / n, "count"),
        "galerkin.picard_iters": (iters / n, "count"),
        "galerkin.reconstruct_s": (s["galerkin.reconstruct"], "s"),
        "poly.linf_norm_calls": (c["poly.linf_norm"] / n, "count"),
        "poly.linf_norm_s": (s["poly.linf_norm"], "s"),
        "poly.localpoly_count": (c["poly.localpoly"] / n, "count"),
        "poly.project_s": (s["poly.project"], "s"),
        "estimator.recon_error_s": (s["estimator.recon_error"], "s"),
        "estimator.recon_error_calls": (c["estimator.recon_error"] / n, "count"),
        "estimator.delta_s": (s["estimator.delta"], "s"),
        "estimator.delta_calls": (c["estimator.delta"] / n, "count"),
        # each phi evaluation evaluates the Lipschitz envelope once
        "estimator.phi_evals": (c["problems.lip"] / n, "count"),
        "estimator.residual_s": (s["estimator.residual"], "s"),
        "problems.rhs_s": (s["problems.rhs"], "s"),
        "problems.rhs_calls": (c["problems.rhs"] / n, "count"),
        "problems.rhs_points": (tracer.points["problems.rhs"] / n, "count"),
        "problems.lip_s": (s["problems.lip"], "s"),
        "problems.lip_points": (tracer.points["problems.lip"] / n, "count"),
        "adapt.intervals": (intervals, "count"),
        "adapt.accept_ratio": (n * intervals / steps if steps else 0.0, "1"),
        "adapt.smoothness_s": (s["adapt.smoothness"], "s"),
        "adapt.smoothness_calls": (c["adapt.smoothness"] / n, "count"),
        "adapt.self_s": (s["adapt.driver"], "s"),
        "trace.overhead_s": (_ladder_wall(traced_rounds) - _ladder_wall(untraced_rounds), "s"),
    }


# --------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    ladders, ops = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(clock() - _CPU_START))
        return 0

    if args.trace:
        start = time.perf_counter()
        untraced = run_rounds(ladders, ops, 0.0)
        tracer = Tracer()
        tracer.install()
        seconds_left = args.seconds - (time.perf_counter() - start)
        # the benchmark's call into the driver is the root span: its self
        # time is the driver loop's own
        root = tracer.span("adapt.driver", solve)
        rounds = run_rounds(ladders, ops, max(seconds_left, 0.0), root)
        metrics = per_layer(tracer, rounds, untraced)
        rounds = untraced + rounds
        if tracer.absent:
            print(f"absent (reported as 0): {', '.join(tracer.absent)}", file=sys.stderr)
    else:
        rounds = run_rounds(ladders, ops, args.seconds)
        metrics = end_to_end(rounds, measure_setup(args.workload, args.seed))

    attempted = sum(len(rnd) for rnd in rounds)
    failed = sum(not run["ok"] for rnd in rounds for run in rnd.values())
    out = {
        "correct": _deterministic(rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, tag + ".json"), "w") as fh:
        json.dump(
            {**out, "rounds": len(rounds),
             "runs": {f"{name}@{tol:.3g}": run for (name, tol), run in rounds[0].items()}},
            fh, indent=1,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
