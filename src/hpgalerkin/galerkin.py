"""Single-interval cG and dG time steps via Picard iteration.

Both schemes seek a degree-r polynomial U on the interval:

* cG: U(t_start) = u_left is imposed strongly and U' equals the degree
  r-1 L2 projection of f(t, U), so each Picard update integrates the
  projected right-hand side from the left endpoint.

* dG: the initial value enters weakly through the jump U(t_start+) -
  u_left.  In the mapped Legendre basis the weak form reduces to a small
  linear system M c = b(c) whose fixed point is the dG solution; each
  Picard update solves it with the nonlinearity frozen at the previous
  iterate.  (The r = 0 case reproduces implicit Euler.)

For a fixed degree r and Gauss-Legendre rule, one Picard update of
either scheme is affine in the Legendre coefficient array c (shape
(r+1, d)):

    c_next = a u_left^T + k G f(ts, V c),

with ts and V the mapped nodes and the Vandermonde of ``poly.basis(r)``,
whose rule has r + 6 points, and P_q the degree-q quadrature L2
projection of node values (``basis(r).proj`` and its first rows).  For
cG, G is the antiderivative from the left endpoint composed with
P_{r-1}, and a = e_0; for dG, G = M^-1 diag(1/(2j+1)) P_r and
a = M^-1 ((-1)^j).  ``picard_operator`` builds the scheme part (a, G)
once per (r, scheme), so an iteration costs one f evaluation and two
small matrix products.  Degrees above ``MAX_DEGREE`` = 58 would need a
rule beyond 64 points and are rejected.

Picard's first iterate is the constant u_left unless the caller passes
a guess.  The drivers pass the neighbouring candidate re-expanded by the
basis's exact ``shift`` and ``halve`` matrices: on a new interval the
previous accepted U continued onto it, after an accuracy halving the
rejected candidate restricted to the first half, after a degree raise
the candidate padded with a zero coefficient.  A guessed start that
fails is run again from u_left, so the guess changes the iteration
count and the last bits of the returned fixed point, never whether the
step exists.

Nonexistence of a step is a first-class outcome here: the adaptive
drivers halve the step length whenever the iteration fails to converge.
An iterate diverges when its sup norm exceeds the divergence cap, or
when f or the update leaves double range, under any cap.  The loop
holds one ``np.errstate`` and reads all of this from sum |c|, the sup
bound it computes anyway: an overflow leaves that sum inf or nan.

On the (r+1, d) arrays of a step, numpy's per-call dispatch costs more
than the arithmetic, so each iteration makes as few calls as it can
without changing a bit.  The update is formed in place as (G f) k +
a u_left^T, which rounds as a u_left^T + k G f does since IEEE * and +
commute.  The iterate is then read once as a Python list, and the
bound sum |c|, the change max |c_next - c| and the scale max |c| are
taken from it by ``sum``, ``max`` and ``abs``: on the bench workloads,
whose iterates hold 2 to 14 coefficients, one ``tolist()`` and a few
builtins cost less than five numpy calls.  The list costs more than
numpy's dispatch on large iterates (on Python 3.11 the three
reductions take about 12 against 9 us at 64 coefficients and 174
against 12 us at 1024), which no bench workload reaches.  The change
and the scale are exact in any order.  The bound is summed by Python's
``sum`` rather than in numpy's pairwise order, so it may differ in its
last bits; the loop's docstring shows why no decision can depend on
that.  The finite tests of the guess and of the lift are list tests
too (``_all_finite``).

An iterate that passed the bound test is finite and belongs to the
loop, so the returned polynomial wraps it without a copy or a second
finite test (``LocalPoly._trusted``); a failure at the first iterate
may hold the caller's guess and goes through the checked constructor,
which copies.  The caller's guess is never made read-only, aliased or
changed.

``reconstruct`` lifts a converged step to the degree r+1 polynomial
with matching left value whose derivative is the degree-r projection of
f(t, U) -- the cG update at degree r+1 applied to U -- and it is the
object the error estimator measures.  A converged step hands back the
node values of f from its last update (``StepOutput.f_vals``), taken at
the iterate before the returned one, on the very rule the lift uses;
the drivers pass them to ``reconstruct``, which then lifts them and
evaluates no f of its own.  U is then that earlier iterate.  The
estimator certifies the reconstruction from whatever U it is built, so
this costs no rigour, and it saves one f evaluation per accepted
candidate.  The lift and the last update integrate the same node
values, so the reconstruction's end value equals that of the returned
iterate up to rounding, for both schemes (the dG weak form tested with
the constant gives U(t_end) = u_left + int P_r f); lifted from f at the
returned iterate instead, the two differ by about the last coefficient
change.  The drivers start the next interval from the reconstruction's
own end value, so the global reconstruction is continuous bit for bit.
``reconstruct`` raises NumericOverflow when a coefficient leaves double
range, and otherwise wraps the lift's fresh, finite array without a
copy.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial import legendre as _leg

from .poly import MAX_DEGREE, Interval, LocalPoly, basis
from .problems import NumericOverflow, Problem, rhs_at

__all__ = [
    "Scheme",
    "StepFailure",
    "StepInput",
    "StepOutput",
    "PicardConfig",
    "MAX_DEGREE",
    "picard_operator",
    "step",
    "reconstruct",
]

# Picard stops once the largest coefficient update is at most
# FP_TOL * max(1, max|c|), or at most the caller's absolute ``atol``, and
# reports MAX_ITERS after MAX_ITERS updates.
FP_TOL = 1e-12
MAX_ITERS = 100
# A sum |c| above the largest double has overflowed, whatever the cap.
_FLOAT_MAX = float(np.finfo(float).max)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite, tested as a Python list."""
    return all(map(math.isfinite, a.ravel().tolist()))


class Scheme(enum.Enum):
    CG = "cg"
    DG = "dg"


class StepFailure(enum.Enum):
    MAX_ITERS = "max_iters"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class StepInput:
    interval: Interval
    r: int
    u_left: np.ndarray
    scheme: Scheme

    def __post_init__(self):
        u_left = np.atleast_1d(np.array(self.u_left, dtype=float))
        u_left.flags.writeable = False
        object.__setattr__(self, "u_left", u_left)
        min_r = 1 if self.scheme is Scheme.CG else 0
        if self.r < min_r:
            raise ValueError(f"{self.scheme.value} step requires degree >= {min_r}, got {self.r}")


@dataclass(frozen=True)
class PicardConfig:
    """Picard iteration control: the divergence cap.

    ``divergence_cap`` bounds the sup norm of an iterate.  The step
    first compares the sum of the absolute coefficients, a rigorous
    upper bound on the sup norm since |P_i| <= 1 on [-1, 1], and only
    when that exceeds the cap confirms it with the sampled sup norm.
    An iterate at which f, or the update, overflows diverges under any
    cap, ``math.inf`` included.

    The rest of the iteration is not a setting.  The step stops at a
    largest coefficient change of FP_TOL = 1e-12 of max(1, max|c|), a
    relative test that stays above the roundoff floor of large
    iterates, or at the absolute ``atol`` that its caller passes to
    ``step``: the drivers pass a fixed share of their running tolerance
    (``adapt.PICARD_TOL_SHARE``), direct calls default to 0.  The
    budget is MAX_ITERS = 100 updates.
    """

    divergence_cap: float = 1e8

    def __post_init__(self):
        if not self.divergence_cap > 0:
            raise ValueError("divergence_cap must be positive")


@dataclass(frozen=True)
class StepOutput:
    """The last iterate u of a step and how the iteration ended.

    ``f_vals`` (n, d), set when the step converged, holds f at the nodes
    of ``basis(r)``'s rule at the iterate before u: the values the last
    update, which produced u, was computed from.  ``reconstruct`` lifts
    them without evaluating f again.
    """

    u: LocalPoly
    picard_iters: int
    converged: bool
    failure: Optional[StepFailure] = None
    f_vals: Optional[np.ndarray] = None


@lru_cache(maxsize=None)
def picard_operator(r: int, scheme: Scheme) -> tuple[np.ndarray, np.ndarray]:
    """The scheme part (a, G) of the affine Picard update of degree r on
    ``basis(r)``'s rule: a (r+1,) carries the left value, and G (r+1, n)
    maps node values of f to coefficients per unit step length."""
    proj = basis(r).proj
    if scheme is Scheme.CG:
        # Antiderivative from x = -1 of the degree r-1 projection; the
        # reference map contributes k/2.
        L = _leg.legint(np.eye(r), m=1, k=[0.0], lbnd=-1.0, scl=0.5, axis=0)
        a = np.zeros(r + 1)
        a[0] = 1.0
        G = L @ proj[:r]
    else:
        # dG system matrix, row j tested with P_j: int P_i' P_j dx (= 2 for
        # i > j with i - j odd) plus the jump term P_i(-1) P_j(-1) = (-1)^(i+j).
        i = np.arange(r + 1)
        col, row = np.meshgrid(i, i, indexing="xy")
        M = np.where((col > row) & ((col - row) % 2 == 1), 2.0, 0.0) + (-1.0) ** (col + row)
        Minv = np.linalg.inv(M)
        a = Minv @ (-1.0) ** i
        G = Minv @ (proj / (2.0 * i + 1.0)[:, None])
    for arr in (a, G):
        arr.flags.writeable = False
    return a, G


def step(
    p: Problem,
    inp: StepInput,
    cfg: PicardConfig = PicardConfig(),
    *,
    guess: Optional[np.ndarray] = None,
    atol: float = 0.0,
) -> StepOutput:
    """Attempt one Galerkin step by Picard iteration.

    Iterates the affine update of ``picard_operator`` on the bare
    coefficient array until the sup over Legendre-coefficient updates is
    at most ``atol`` or at most FP_TOL * max(1, max|c|), with c the new
    iterate's coefficients; the relative scale keeps the test reachable
    near blow-up, where one unit of roundoff in |c| ~ 1e8 already
    exceeds an absolute 1e-12.  With the default ``atol`` = 0 only the
    relative test decides.  The drivers pass an ``atol`` tied to their
    running tolerance: the estimator certifies the reconstruction built
    from whatever iterate the step returns, so iterating far below that
    tolerance buys nothing.  Returns converged=False with a failure
    reason when the iterate diverges or the iteration budget runs out;
    the drivers treat that as "no discrete solution exists at this step
    size".  Every iterate up to the stop is the same for every ``atol``,
    so a larger one stops at the same iterate or an earlier one, and
    never makes a step fail that a smaller one solves.

    The first iterate is the constant u_left, or ``guess``, an
    (r+1, d) coefficient array, when one is given (the drivers pass a
    neighbouring candidate re-expanded onto this interval).  A guessed
    start that does not converge, or a non-finite guess, falls back to
    the constant start, so a guess never makes a step fail that the
    constant start solves; picard_iters then counts both runs.

    An iterate diverges when f overflows at it, when the update from it
    overflows, or when its sup norm exceeds ``divergence_cap``; an
    overflow is reported at the last finite iterate.  The sum of |c| is
    a rigorous sup bound, since |P_i| <= 1, so the sampled sup norm is
    computed only when that cheap bound exceeds the cap; every decision
    equals that of a sampled test on every iterate.
    """
    r, d = inp.r, inp.u_left.size
    if r > MAX_DEGREE:
        raise ValueError(f"step degree {r} is above the cap {MAX_DEGREE}")
    c0 = np.zeros((r + 1, d))
    c0[0] = inp.u_left
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != c0.shape:
            raise ValueError(f"guess has shape {guess.shape}, expected {c0.shape}")
        if _all_finite(guess):
            warm = _picard(p, inp, guess, cfg.divergence_cap, atol=atol)
            if warm.converged:
                return warm
            cold = _picard(p, inp, c0, cfg.divergence_cap, atol=atol)
            return replace(cold, picard_iters=warm.picard_iters + cold.picard_iters)
    return _picard(p, inp, c0, cfg.divergence_cap, atol=atol)


def _picard(
    p: Problem, inp: StepInput, c: np.ndarray, cap: float, *, atol: float = 0.0
) -> StepOutput:
    """The Picard loop of ``step`` from the first iterate c, stopping at
    a change of at most ``atol`` or at the relative FP_TOL test.

    One errstate covers the whole loop.  The bound sum |c_next| that the
    cap test needs reads every overflow as well: each coefficient of
    G @ f involves every node value of f, so one non-finite f value, or
    an update that overflows, leaves c_next non-finite and the bound inf
    or nan, which fails ``bound <= min(cap, float max)`` under any cap.
    Only then does the loop look at the coefficients.

    Each iterate is read once as a list ``vals``, the previous one kept
    as ``prev``, and the bound, the change max |vals - prev| and, only
    when the bound's convergence test passes, the scale max |vals| come
    from Python builtins.  The change and the scale are exact in any
    order, so the convergence test is unchanged.  The bound is summed
    by ``sum``: left to right up to Python 3.11, with Neumaier
    compensation from 3.12; numpy sums pairwise.  The two may differ in
    their last bits, and the bound steers two decisions only as a gate:

    * convergence: the bound stands in for the scale max |c| before the
      exact scale test.  A rounded sum of magnitudes is at least its
      largest term in any order.  So is the compensated sum: it adds
      to the plain one the rounding errors of its additions, each
      exact and at most the smaller operand, so rounding their own sum
      misses the exact total by far less than the other terms add.
      So the gate passes wherever the scale test does, and the scale
      test decides.
    * the cap: a bound above the cap sends the iterate to the sampled
      sup norm, which clears it when it is at most the cap.  Every
      order is within a few ulp of the exact sum |c|, so two orders can
      disagree only when the bound is within a few ulp of the cap and
      the sampled sup norm, at most the exact sum |c|, lies above it.

    ``math.fsum`` would give a correctly rounded bound, but it raises
    OverflowError where the sum leaves double range, which the loop
    must read as divergence; ``sum`` returns inf or nan there.

    Every iterate that passed the bound test, or the explicit finite
    test, is finite and the loop's own, so it is wrapped by
    ``LocalPoly._trusted``; the failure returns can hold the first
    iterate, the caller's guess, and copy it.
    """
    iv, b = inp.interval, basis(inp.r)
    a, G = picard_operator(inp.r, inp.scheme)
    k, ts, V = iv.k, iv.from_reference(b.nodes), b.V
    left = a[:, None] * inp.u_left
    limit = min(cap, _FLOAT_MAX)
    prev = c.ravel().tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, MAX_ITERS + 1):
            try:
                f_vals = rhs_at(p, ts, V @ c)
            except NumericOverflow:
                return StepOutput(LocalPoly(iv, c), it, False, StepFailure.DIVERGED)
            c_next = G @ f_vals
            c_next *= k
            c_next += left
            # sup_t |U(t)| <= sum |c| because |P_i| <= 1: sample only above the cap
            vals = c_next.ravel().tolist()
            bound = sum(map(abs, vals))
            change = max(map(abs, map(operator.sub, vals, prev)))
            if not bound <= limit:
                if not _all_finite(c_next):
                    # f or the update left double range: diverged, reported
                    # at the last finite iterate
                    return StepOutput(LocalPoly(iv, c), it, False, StepFailure.DIVERGED)
                u = LocalPoly._trusted(iv, c_next)
                if u.linf_norm() > cap:
                    return StepOutput(u, it, False, StepFailure.DIVERGED)
            c = c_next
            # max|c| <= sum|c|: the scale max|c| is needed only when the
            # bound's scale passes, and the decision is the same
            if change <= atol or (
                change <= FP_TOL * max(1.0, bound)
                and change <= FP_TOL * max(1.0, max(map(abs, vals)))
            ):
                return StepOutput(LocalPoly._trusted(iv, c), it, True, f_vals=f_vals)
            prev = vals
    return StepOutput(LocalPoly._trusted(iv, c), MAX_ITERS, False, StepFailure.MAX_ITERS)


def reconstruct(
    p: Problem, inp: StepInput, u: LocalPoly, f_vals: Optional[np.ndarray] = None
) -> LocalPoly:
    """Degree r+1 reconstruction: left value u_left, derivative = degree-r
    projection of f(t, U).

    This is one cG Picard update at degree r+1 applied to U, on the
    step's own quadrature.  ``f_vals``, when given, are node values of f
    on that rule, normally ``StepOutput.f_vals``: they are lifted as
    they are, no f is evaluated, and U is the iterate they came from,
    the one before u.  Either way the reconstruction is what the error
    estimator measures, whatever U it is built from.  Lifted from a
    step's own f values, its end value equals that of the step's
    returned iterate up to rounding; lifted from f(t, u) it differs
    from u(t_end) by about the step's last coefficient change.  No
    endpoint is assumed to coincide: the drivers start the next
    interval from the reconstruction's end value.
    """
    coeffs = _cg_lift(p, u, inp.u_left, inp.r, f_vals)
    if not _all_finite(coeffs):
        raise NumericOverflow(f"right-hand side of problem {p.name!r} overflowed")
    # a fresh array, now proven finite
    return LocalPoly._trusted(inp.interval, coeffs)


def _cg_lift(
    p: Problem, u: LocalPoly, u_left: np.ndarray, r: int, f_vals: Optional[np.ndarray] = None
) -> np.ndarray:
    """Coefficients (r+2, d) of one cG Picard update at degree r+1 applied
    to u (degree at most r) on ``basis(r)``'s rule: left value u_left and
    derivative the degree r projection of f(t, u), or of the node values
    f_vals when they are given.

    A coefficient is not finite whenever an f value is not, since each
    coefficient of lift @ f involves every node value of f, or when the
    lift itself overflows; the callers test the array they return, once.
    """
    iv, b = u.interval, basis(r)
    with np.errstate(over="ignore", invalid="ignore"):
        if f_vals is None:
            f_vals = rhs_at(p, iv.from_reference(b.nodes), b.V[:, : u.coeffs.shape[0]] @ u.coeffs)
        coeffs = iv.k * (b.lift @ f_vals)
        coeffs[0] += u_left
    return coeffs
