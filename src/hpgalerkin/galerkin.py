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

with ts and V the mapped nodes and the Vandermonde of the step's rule
(``basis(r).step_offsets`` and ``step_V``), and P_q the degree-q
quadrature L2 projection of node values (``basis(r).step_proj`` and its
first rows).  For cG, G is the antiderivative from the left endpoint
composed with P_{r-1}, and a = e_0; for dG, G = M^-1 diag(1/(2j+1)) P_r
and a = M^-1 ((-1)^j).  ``picard_operator`` builds the scheme part
(``SchemeOperator``) once per (r, scheme), so an iteration costs one f
evaluation and two small matrix products.  The rule's size and the
degree cap ``MAX_DEGREE`` are ``poly``'s (``poly.Basis``); cG steps
from degree 1 and dG from degree 0 (``_MIN_DEGREE``).  Every node is
one f value, so with a point-by-point f the node count is what a step
pays for.  A scalar f and an ``f_batch`` that computes the same values
give the same step, bit for bit.

Picard's first iterate is the constant u_left unless the caller passes
a guess; the drivers pass a Picard update formed from f values they
have already paid for (``SchemeOperator``).  A step runs at most two
sweeps (``step``), and a step that fails returns the sweep from u_left,
so the guess changes the iteration count and the last bits of the
returned fixed point, never whether the step exists.

A sweep stops on its largest coefficient change and on the ratio q of
that change to the one before.  It converges at a change of at most the
caller's ``atol`` or of FP_TOL relative to max(1, max|c|), or once a
falling change predicts an error q / (1 - q) * change of at most
``atol``, the stop of a simplified Newton iteration (Hairer & Wanner,
Solving Ordinary Differential Equations II, sec. IV.8): the estimator
certifies the reconstruction of whatever iterate the step returns.
MAX_GROWING = 3 growing changes in a row diverge; on the benchmark no
converging sweep has three.

Nonexistence of a step is a first-class outcome here: the adaptive
drivers halve the step length whenever the iteration fails to converge.
A sweep fails on rules that read no unit of u: an iterate at which f or
the update leaves double range diverges, so do MAX_GROWING growing
changes in a row, and the budget is MAX_ITERS updates.  So a solution
that leaves double range ends the march at ``k_min``.  The loop reads an
overflow from sum |c|: an overflow leaves that sum inf or nan (the
errstate rule of ``poly``).

The divergence cap (``PicardConfig.divergence_cap``) is an optional
extra stop, off by default (``math.inf``): with a finite cap, an
iterate whose sum |c|, an upper bound on its sup norm since |P_i| <= 1,
exceeds the cap diverges too.  The cap is absolute, so it reads the
units of u: a finite one turns a large but finite solution into
nonexistence.

On the (r+1, d) arrays of a step, numpy's per-call dispatch costs more
than the arithmetic, so each iteration makes as few calls as it can
without changing a bit.  Every small product on the march, here, in the
estimator, in ``LocalPoly.linf_norm`` and in the drivers' guesses, is an
``np.dot`` call rather than ``@``: on the benchmark's shapes (2 to 14
coefficients, up to 194 sample points; Python 3.11, numpy 2.4) ``np.dot``
took 0.8-1.8 us per call against 1.2-2.5 us for the matmul ufunc, and
gave the same bits in every case the tests compare.  The nodes of an
interval are mapped from the cached ``Basis.step_offsets``.
The update is formed in place as (G f) k +
a u_left^T, which rounds as a u_left^T + k G f does since IEEE * and +
commute.  The iterate is then read once as a Python list, and the
bound sum |c|, the change max |c_next - c| and the scale max |c| are
taken from it by ``math.fsum``, ``max`` and ``abs``: on the bench
workloads, whose iterates hold 2 to 14 coefficients, one ``tolist()``
and a few builtins cost less than five numpy calls.  The list costs
more than numpy's dispatch on large iterates (on Python 3.11 the three
reductions take about 12 against 9 us at 64 coefficients and 174
against 12 us at 1024), which no bench workload reaches.  The change
and the scale are exact and the bound correctly rounded, so every
decision is the same on every Python and in every summation order.
The finite tests of the guess and of the lift are list tests too
(``poly._all_finite``).

An iterate that passed the divergence test is finite and belongs to
the loop, so the returned polynomial wraps it without a copy or a
second finite test (``LocalPoly._trusted``); a divergence reports the
iterate before, which at the first update may be the caller's guess,
through the checked constructor, which copies.  The caller's guess is
never made read-only, aliased or changed.

``reconstruct`` lifts a converged step to the degree r+1 polynomial
with matching left value whose derivative is the degree-r projection of
f(t, U) -- the cG update at degree r+1 applied to U -- and it is the
object the error estimator measures.  It evaluates no f: a converged
step hands back the node values of f from its last update
(``StepOutput.f_vals``), taken at the iterate before the returned one,
on the very rule the lift uses, and ``reconstruct`` lifts them.  U is
that earlier iterate.  The estimator certifies the reconstruction from
whatever U it is built, so this costs no rigour, and it saves one f
evaluation per accepted candidate.  The lift and the last update
integrate the same node values, so the reconstruction's end value
equals that of the returned iterate up to rounding, for both schemes
(the dG weak form tested with the constant gives U(t_end) = u_left +
int P_r f).  The drivers start the next interval from the
reconstruction's own end value, so the global reconstruction is
continuous bit for bit.  ``reconstruct`` raises NumericOverflow when a
coefficient leaves double range, and otherwise wraps the lift's fresh,
finite array without a copy.
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

from .poly import MAX_DEGREE, Interval, LocalPoly, _all_finite, _cg_lift, _quiet, _time_map, basis
from .problems import NumericOverflow, Problem, _real, rhs_at

__all__ = [
    "Scheme",
    "StepFailure",
    "StepInput",
    "StepOutput",
    "PicardConfig",
    "step",
    "reconstruct",
]

# The relative stop of a Picard sweep, its budget of updates, and the
# growing changes in a row that diverge (module docstring).
FP_TOL = 1e-12
MAX_ITERS = 100
MAX_GROWING = 3


class Scheme(enum.Enum):
    # identity hash, as ``Start``'s: keys ``picard_operator``'s cache
    __hash__ = object.__hash__

    CG = "cg"
    DG = "dg"


# The lowest degree of each scheme: cG imposes the left value, so its
# degree-r step has r free coefficients per component, dG r + 1.
_MIN_DEGREE = {Scheme.CG: 1, Scheme.DG: 0}
# The lowest degree whose next-interval guesses may continue 1/f
# (``SchemeOperator``).
_RECIPROCAL_MIN_DEGREE = 3


class StepFailure(enum.Enum):
    MAX_ITERS = "max_iters"
    DIVERGED = "diverged"


class Start(enum.Enum):
    """How an attempt's first Picard iterate is formed; each is a row of
    ``SchemeOperator``, and (RAISE, m) keys the row of a raise by m > 1
    degrees."""

    # members are singletons equal only to themselves, so the identity
    # hash keys the maps of ``SchemeOperator`` as Enum's own does, at a
    # fifth of its cost (22 against 97 ns per dict lookup, Python 3.11)
    __hash__ = object.__hash__

    CONSTANT = "constant"
    NEXT = "next"
    NEXT_HALF = "next_half"
    HALVE = "halve"
    RAISE = "raise"


@dataclass(frozen=True)
class StepInput:
    """One step's interval, degree, left value and scheme.

    The copy rule, stated here only.  The constructor copies u_left
    into a read-only float array of shape (d,), so a caller's array,
    writable or not, never reaches ``inp.u_left``, and later writes to
    it change nothing.  ``StepInput._trusted`` skips that copy, and the
    degree check, for the driver's own left value, which no caller holds.
    """

    interval: Interval
    r: int
    u_left: np.ndarray
    scheme: Scheme

    def __post_init__(self):
        u_left = np.atleast_1d(np.array(self.u_left, dtype=float))
        u_left.flags.writeable = False
        object.__setattr__(self, "u_left", u_left)
        min_r = _MIN_DEGREE[self.scheme]
        if self.r < min_r:
            raise ValueError(f"{self.scheme.value} step requires degree >= {min_r}, got {self.r}")

    @classmethod
    def _trusted(
        cls, interval: Interval, r: int, u_left: np.ndarray, scheme: Scheme
    ) -> "StepInput":
        """Hold u_left itself, without the copy of ``__post_init__``.

        u_left must be a read-only float array of shape (d,) that the
        caller owns and never writes, and r at least the scheme's
        lowest degree: ``adapt._drive`` passes ``Problem.u0`` and the
        end values it made read-only itself.
        """
        inp = cls.__new__(cls)
        inp.__dict__.update(interval=interval, r=r, u_left=u_left, scheme=scheme)
        return inp


@dataclass(frozen=True)
class PicardConfig:
    """Picard iteration control: the divergence cap, an optional extra
    stop on sum |c| that is off by default (``math.inf``; module
    docstring).

    The rest of the iteration is not a setting.  The step stops at a
    largest coefficient change of FP_TOL = 1e-12 of max(1, max|c|), a
    relative test that stays above the roundoff floor of large
    iterates, or at a change or a predicted error of at most the
    absolute ``atol`` that its caller passes to ``step``: the drivers
    pass a fixed share of their running tolerance
    (``adapt.PICARD_TOL_SHARE``), direct calls default to 0.
    MAX_GROWING = 3 growing changes in a row diverge, and the budget is
    MAX_ITERS = 100 updates.
    """

    divergence_cap: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "divergence_cap", _real("divergence_cap", self.divergence_cap))
        if not self.divergence_cap > 0:
            raise ValueError("divergence_cap must be positive")


@dataclass(frozen=True)
class StepOutput:
    """The last iterate u of a step and how the iteration ended.

    ``f_vals`` (s, d), set when the step converged, holds f at the nodes
    of the step's rule (``basis(r).step_offsets``) at the iterate before
    u: the values the last update, which produced u, was computed from.
    ``reconstruct`` lifts them.
    ``picard_iters`` sums the updates of the sweeps the step ran, at
    most two (``step``).
    """

    u: LocalPoly
    picard_iters: int
    converged: bool
    failure: Optional[StepFailure] = None
    f_vals: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SchemeOperator:
    """The scheme part of the affine Picard update of degree r; every
    array is read-only.

    a (r+1, 1): carries the left value, as a column: a * u_left is the
    (r+1, d) term a u_left^T.
    G (r+1, s): maps node values of f on the step's rule
    (``basis(r).step_*``) to coefficients per unit step length.
    ``adapt._drive`` looks the operator up once per change of r and
    hands it to the first-iterate helpers.

    The first iterates, stated here only.  ``adapt._drive`` starts each
    attempt from the ``Start`` that what came before it selects, one row
    each:
    CONSTANT: the constant u_left, for the run's first attempt, one after
    a failed step or a candidate that left double range, and one after a
    pole halving on the first half of an interval (below);
    NEXT: the first attempt on the interval after an accepted one, of
    equal length;
    NEXT_HALF: the first attempt on the first half of that interval,
    after a predicted halving or a pole halving on all of it;
    HALVE: the attempt after an accuracy halving, on the first half of
    the rejected candidate's interval;
    RAISE: the attempt at degree r after a raise from r - 1, on the same
    interval; next to it, (RAISE, m) for 2 <= m < r, the attempt after
    a raise by m degrees from r - m (``adapt._raise_by``).
    Every start but CONSTANT is a u_left^T + k H[start] @ f_res
    (``adapt._first_iterate``), unless the reciprocal continuation below
    applies: the Picard update of degree r, on an interval of length k
    from u_left, computed from the node values f_res of f on the
    residual's rule of the last candidate, accepted or rejected, which
    the drivers have already evaluated, so no f is evaluated for a
    guess.  Each H[start], (r+1, n) for the n points of f_res, is G
    applied to the values, at the step's nodes mapped into the interval
    of f_res, of a fit P @ f_res of degree q: G @ legvander(map(nodes),
    q) @ P, with the row's P and map:
    NEXT: P the degree r+2 projection of node values on the residual's
    rule of the degree r+1 reconstruction (``basis(r + 1).res_*``, n
    points), continued onto the next interval (x -> x + 2);
    NEXT_HALF: the same P, continued onto its first half (x -> (x + 3) /
    2);
    HALVE: the full interpolant on the same rule, restricted to the first
    half of its own interval (x -> (x - 1) / 2);
    RAISE and (RAISE, m): the full interpolant on the residual's rule of
    the rejected candidate's reconstruction, of degree r - m + 1
    (``basis(r - m + 1).res_*``, m = 1 for RAISE), at the step's own
    nodes (x -> x).
    The continued ones keep degree r + 2: continuing the fit past its
    interval multiplies its rounding by up to |P_q| there (|P_q(3)| on
    the next interval), which grows fast with q.  The restarts stay
    within [-1, 1], where |P_q| <= 1, so they use the whole interpolant.

    The reciprocal continuation, stated here only.  Near a blow-up at T,
    f grows like a pole, (T - t)^-m, and 1/f vanishes like (T - t)^m: a
    quadratic for u^2 and |u| u (m = 2), a line for e^u (m = 1); Berger
    & Kohn (CPAM 41, 1988) rescale toward the singularity in the same
    coordinate.  So from degree 3 (``_RECIPROCAL_MIN_DEGREE``) the NEXT
    and NEXT_HALF starts are a u_left^T + G (k / (R[start] @ (1 /
    f_res))) (``adapt._reciprocal_iterate``), with R[start] (s, n) =
    legvander(map(nodes), 2) @ P, the map that of H[start] and P the
    degree 2 projection on the rule of NEXT; R is empty below degree 3.
    Degree 2 amplifies the fit's rounding by at most |P_2(3)| = 13 on the
    next interval, against |P_{r+2}(3)| for H[NEXT] (321 at r = 2, 8989
    at r = 4), and continues the exact 1/f of both built-in blow-ups
    exactly.  At degrees 1 and 2 the step's own discretisation, not the
    continuation, sets how far Picard has to go: on the seed-1 benchmark
    a next-interval step took as many updates from either guess
    (polynomial/reciprocal: 2.33/2.34 at r = 1 on ``h-sweep``, 7.48/7.55
    at r = 1 and 12.91/12.72 at r = 2 on ``hp-sweep``), so the dearer
    guess would buy nothing there.
    The continuation applies only where every component of f_res keeps
    one strict sign at every node and its L = log|f| looks like a pole,
    L = c - m log(T - t).  At the residual nodes x0, xq, x1, x2 (the
    first, index n // 4, the middle, index n // 2, and the last), with
    l0 = L(xq) - L(x0), l1 = L(x1) - L(x0) and l2 = L(x2) - L(x1), each
    the log of a quotient of f values, three tests must pass:
    L' = (l1 + l2) / (x2 - x0), the chord slope, is positive, as |f|
    grows toward the blow-up;
    L'' / L'^2 lies in [1/4, 5/4], L'' = 2 (l2 / (x2 - x1) - l1 / (x1 -
    x0)) / (x2 - x0) the three-point second derivative: the ratio is 1/m
    on a pole of order m and 0 on an exponential, whose 1/f is no
    polynomial; u blows up only where f is not integrable, m >= 1, and
    on the rules from degree 3 the three-point ratio reads at most 1.026
    on m = 1, so 5/4 bounds it with a margin, while near a positive
    minimum of |f| L' vanishes and the ratio has no bound;
    the third divided difference of L on x0, xq, x1, x2 is positive, as
    every divided difference of -m log(T - t) is, while past a minimum
    of |f| such as that of 1 + t^2 or 2 + cos t it is not.
    pole = (n // 4, n // 2, (c1, c2), (w0, w1, w2)), with c1 = 8 (x2 -
    x0) / (x1 - x0) and c2 = 8 (x2 - x0) / (x2 - x1), holds the second
    test as (l1 + l2)^2 <= c2 l2 - c1 l1 <= 5 (l1 + l2)^2, and the third
    as w0 l0 + w1 l1 + w2 l2 > 0, a positive multiple of that divided
    difference.  Where the test fails, or the guess is not finite, the
    guess is the row's H.  Where the fit R[start] @ (1 / f_res) changes
    a component's sign at a step node, the continued 1/f vanishes on the
    step, which puts the blow-up it predicts inside it: no guess is
    built, and the driver halves k before the attempt (a pole halving),
    which then starts from NEXT_HALF after a pole on NEXT and from
    CONSTANT after one on NEXT_HALF.  A quotient of f values and a
    reciprocal are exact under a power-of-two scaling of f, so a scaled
    march takes the same guesses.  The continuation changes the first
    iterate and, through the pole halving, only which attempts are
    made: every attempt that is made goes through the same tests, so no
    certificate depends on it.
    """

    a: np.ndarray
    G: np.ndarray
    pole: tuple[int, int, tuple[float, float], tuple[float, float, float]]
    H: dict[Start | tuple[Start, int], np.ndarray]
    R: dict[Start, np.ndarray]


def _scheme_matrices(r: int, scheme: Scheme, proj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, G) of the update on a rule whose degree-r projection is proj."""
    if scheme is Scheme.CG:
        # Antiderivative from x = -1 of the degree r-1 projection; the
        # reference map contributes k/2.
        L = _leg.legint(np.eye(r), m=1, k=[0.0], lbnd=-1.0, scl=0.5, axis=0)
        a = np.zeros((r + 1, 1))
        a[0] = 1.0
        return a, L @ proj[:r]
    # dG system matrix, row j tested with P_j: int P_i' P_j dx (= 2 for
    # i > j with i - j odd) plus the jump term P_i(-1) P_j(-1) = (-1)^(i+j).
    i = np.arange(r + 1)
    col, row = np.meshgrid(i, i, indexing="xy")
    M = np.where((col > row) & ((col - row) % 2 == 1), 2.0, 0.0) + (-1.0) ** (col + row)
    Minv = np.linalg.inv(M)
    return (Minv @ (-1.0) ** i)[:, None], Minv @ (proj / (2.0 * i + 1.0)[:, None])


@lru_cache(maxsize=None)
def picard_operator(r: int, scheme: Scheme) -> SchemeOperator:
    """The cached ``SchemeOperator`` of degree r on the step's rule."""
    b, nxt = basis(r), basis(r + 1).res_proj
    a, G = _scheme_matrices(r, scheme, b.step_proj)
    nodes = _leg.leggauss(b.step_offsets.size)[0]

    # each start's row (``SchemeOperator``): the projection P (q+1, n)
    # that fits f_res, and the step's nodes x mapped into the interval of
    # f_res, where the fit's values are legvander(x, q) @ P @ f_res
    rows = {
        Start.NEXT: (nxt[: r + 3], nodes + 2.0),
        Start.NEXT_HALF: (nxt[: r + 3], 0.5 * (nodes + 3.0)),
        Start.HALVE: (nxt, 0.5 * (nodes - 1.0)),
        Start.RAISE: (b.res_proj, nodes),
    }
    # a raise by m > 1 from degree r - m >= 1
    rows.update({(Start.RAISE, m): (basis(r - m + 1).res_proj, nodes) for m in range(2, r)})
    H = {start: G @ (_leg.legvander(x, P.shape[0] - 1) @ P) for start, (P, x) in rows.items()}
    continued = (Start.NEXT, Start.NEXT_HALF) if r >= _RECIPROCAL_MIN_DEGREE else ()
    R = {start: _leg.legvander(rows[start][1], 2) @ nxt[:3] for start in continued}
    for arr in (a, G, *H.values(), *R.values()):
        arr.flags.writeable = False
    x = _leg.leggauss(nxt.shape[1])[0].tolist()
    q, mid = len(x) // 4, len(x) // 2
    x0, xq, x1, x2 = x[0], x[q], x[mid], x[-1]
    # the third divided difference on x0, xq, x1, x2 of the L whose
    # differences are l0, l1 and l2 (``SchemeOperator``)
    e1, e2 = 1.0 / (x1 - x0), 1.0 / (x2 - xq)
    b = (e1 + e2) / (x1 - xq)
    third = (b + e1 / (xq - x0), -b, e2 / (x2 - x1))
    pole = (q, mid, (8.0 * (x2 - x0) / (x1 - x0), 8.0 * (x2 - x0) / (x2 - x1)), third)
    return SchemeOperator(a, G, pole, H, R)


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
    coefficient array until the sup over Legendre-coefficient updates,
    the change, is at most ``atol`` or at most FP_TOL * max(1, max|c|),
    with c the new iterate's coefficients, or until a change below the
    one before, at ratio q, predicts an error q / (1 - q) * change of at
    most ``atol``.  The relative scale keeps the test reachable near
    blow-up, where one unit of roundoff in |c| ~ 1e8 already exceeds an
    absolute 1e-12.  With the default ``atol`` = 0 only the relative
    test decides.  The drivers pass an ``atol`` tied to their running
    tolerance: the estimator certifies the reconstruction built from
    whatever iterate the step returns, so iterating far below that
    tolerance buys nothing.  Returns converged=False with a failure
    reason when the iterate diverges, the change grows MAX_GROWING
    times in a row or the iteration budget runs out; the drivers treat
    that as "no discrete solution exists at this step size".  Every
    iterate up to the stop is the same for every ``atol``, and only the
    convergence tests read it, so a larger one stops at the same iterate
    or an earlier one, and never makes a step fail that a smaller one
    solves.

    The start is ``guess``, an (r+1, d) coefficient array, when one is
    given and finite (the drivers pass a prediction from the
    neighbouring candidate), else the constant u_left.  Sweeps are
    ordered here only: one sweep (``_sweep``) from the start and, only
    when that fails and did not start at the constant, one from the
    constant.  So a step fails only where the sweep from the constant
    fails, and returns that sweep: a guess never makes a step fail that
    the constant start solves.  picard_iters sums the updates of the
    sweeps run; a lone sweep is returned as it is.

    An iterate diverges when f overflows at it or when the update from
    it overflows, and, under a finite ``divergence_cap`` (module
    docstring), when its sum |c| exceeds the cap; a divergence is
    reported at the last iterate that passed, which after MAX_GROWING
    growing changes is the newest.
    """
    r, cap = inp.r, cfg.divergence_cap
    if r > MAX_DEGREE:
        raise ValueError(f"step degree {r} is above the cap {MAX_DEGREE}")
    shape = (r + 1, inp.u_left.size)
    first = None
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != shape:
            raise ValueError(f"guess has shape {guess.shape}, expected {shape}")
        if _all_finite(guess):
            first = _sweep(p, inp, guess, cap, atol)
            if first.converged:
                return first
    # the constant start, built only for the sweep that runs from it
    c0 = np.zeros(shape)
    c0[0] = inp.u_left
    last = _sweep(p, inp, c0, cap, atol)
    if first is None:
        return last
    return replace(last, picard_iters=first.picard_iters + last.picard_iters)


def _sweep(p: Problem, inp: StepInput, c: np.ndarray, cap: float, atol: float) -> StepOutput:
    """The Picard loop on the step's rule from the first iterate c, with
    a budget of MAX_ITERS updates; picard_iters counts this sweep's
    updates only, and ``step`` sums those of the sweeps it runs.

    Each change is kept as ``last`` for the next.  The sweep converges at
    a change of at most ``atol``, at the relative FP_TOL test, or at a
    change that did not grow, at ratio q = change / last, with
    q * change <= atol * (1 - q).  Formed from the ratio, the test stays
    in range wherever the change does (change**2 overflows near 1e154),
    so a sweep scaled by a power of two makes every decision of the
    unscaled one.  A growing change counts towards MAX_GROWING, any
    other starts the count again; at MAX_GROWING the sweep diverges at
    its newest iterate, which passed the divergence test.

    One errstate covers the whole loop (``poly._quiet``).  The bound
    sum |c_next| reads every overflow: each coefficient of G @ f
    involves every node value of f, so one non-finite f value, or an
    update that overflows, leaves c_next non-finite and the bound inf or
    nan.  Such an iterate diverges when the bound exceeds the cap, which
    only a finite cap (module docstring) can decide, or when the bound
    and c_next are not finite: a sum |c| of finite coefficients may
    overflow, and a finite bound has finite terms.

    Each iterate is read once as a list ``vals``, the previous one kept
    as ``prev``, and the bound, the change max |vals - prev| and, only
    when the bound's convergence test passes, the scale max |vals| come
    from Python builtins.  The bound is ``math.fsum``, correctly rounded
    in any order, with the OverflowError of a finite sum past double
    range read as inf; so a cap decides the same on every Python.  A
    correctly rounded sum of magnitudes is at least its largest term, so
    the bound's gate before the exact scale test passes wherever that
    test does, and the scale test decides convergence.

    Every iterate that passed the divergence test is finite and the
    loop's own, so it is wrapped by ``LocalPoly._trusted``; the
    divergence return can hold the first iterate, the caller's guess,
    and copies it.
    """
    b, op = basis(inp.r), picard_operator(inp.r, inp.scheme)
    V, G = b.step_V, op.G
    iv = inp.interval
    k = iv.k
    ts = _time_map(iv.t_start, k, b.step_offsets)
    left = op.a * inp.u_left
    prev, last, growing = c.ravel().tolist(), math.inf, 0
    with _quiet():
        for it in range(1, MAX_ITERS + 1):
            try:
                f_vals = rhs_at(p, ts, np.dot(V, c))
            except NumericOverflow:
                return StepOutput(LocalPoly(iv, c), it, False, StepFailure.DIVERGED)
            c_next = np.dot(G, f_vals)
            c_next *= k
            c_next += left
            vals = c_next.ravel().tolist()
            try:
                bound = math.fsum(map(abs, vals))
            except OverflowError:
                bound = math.inf
            change = max(map(abs, map(operator.sub, vals, prev)))
            # above the cap, or out of double range: reported at the last
            # iterate that passed
            if bound > cap or (not bound < math.inf and not _all_finite(c_next)):
                return StepOutput(LocalPoly(iv, c), it, False, StepFailure.DIVERGED)
            c = c_next
            # max|c| <= sum|c|: the scale max|c| is needed only when the
            # bound's scale passes, and the decision is the same
            if change <= atol or (
                change <= FP_TOL * max(1.0, bound)
                and change <= FP_TOL * max(1.0, max(map(abs, vals)))
            ):
                return StepOutput(LocalPoly._trusted(iv, c), it, True, f_vals=f_vals)
            if change > last:
                growing += 1
                if growing == MAX_GROWING:
                    return StepOutput(LocalPoly._trusted(iv, c), it, False, StepFailure.DIVERGED)
            else:
                growing = 0
                # the first change, and one after a change past double
                # range, has no ratio; last > 0, as a change of 0 has
                # converged
                if last < math.inf:
                    q = change / last
                    if q * change <= atol * (1.0 - q):
                        return StepOutput(LocalPoly._trusted(iv, c), it, True, f_vals=f_vals)
            prev, last = vals, change
    return StepOutput(LocalPoly._trusted(iv, c), MAX_ITERS, False, StepFailure.MAX_ITERS)


def reconstruct(p: Problem, inp: StepInput, f_vals: np.ndarray) -> LocalPoly:
    """Degree r+1 reconstruction: left value u_left, derivative = degree-r
    projection of f(t, U).

    This is one cG Picard update at degree r+1 applied to U, on the
    step's own rule (``basis(r).step_*``).  ``f_vals`` (s, d) are the
    node values of f on that rule, normally ``StepOutput.f_vals``: they
    are lifted as they are, no f is evaluated, and U is the iterate they
    came from, the one before the step's returned iterate.  The
    reconstruction is what the error estimator measures, whatever U it
    is built from, and its end value equals that of the step's returned
    iterate up to rounding.  No endpoint is assumed to coincide: the
    drivers start the next interval from the reconstruction's end value.
    """
    with _quiet():
        coeffs = _cg_lift(inp.interval.k, inp.u_left, basis(inp.r).step_lift, f_vals)
    if not _all_finite(coeffs):
        raise NumericOverflow(f"right-hand side of problem {p.name!r} overflowed")
    # a fresh array, now proven finite
    return LocalPoly._trusted(inp.interval, coeffs)
