"""Adaptive time-stepping drivers that march toward blow-up.

Both drivers march with one loop, one attempt per pass, which makes
every decision on k and r:

    1. prediction: on an interval's first attempt, extrapolate the
       last two accepted residual estimators geometrically,
       eta_M * (eta_M / eta_{M-1}), with the growth normalised to the
       carried k under eta ~ k^(r+2) when the last interval halved k
       once, and silent after a degree raise or two halvings; after
       three intervals of equal k and r, also by the change of the
       growth.  A prediction above the running tolerance halves k
       before the attempt (HP mode: only where a rejection would halve
       k rather than raise r; ``_predicts_rejection``);
    2. existence: a Picard iteration that does not converge, or a
       candidate that leaves double range, halves k; so does, before
       the attempt, a continued 1/f that vanishes on the step (a pole
       halving, below);
    3. accuracy: a residual estimator above the running tolerance
       refines (H mode halves k; HP mode raises the degree when r is
       below r_max and the current candidate looks smooth, else halves
       k; the indicator is computed only below r_max).  A raise adds as
       many degrees as the decay of the candidate's top Legendre
       coefficients predicts it needs, at most up to r_max
       (``_raise_by``), where the paper raises by one;
    4. acceptance: update psi and solve for the growth factor delta
       with a warm start at the previous value;
    5. scale the tolerance by delta (early intervals must be resolved
       more accurately than later ones, since their estimator
       contribution is amplified by every subsequent delta), carry the
       accepted step length, degree and solution forward, and advance.

Each attempt starts Picard from a guess formed from the f values of
the last candidate's residual, except the run's first attempt and one
after a failed step or an overflow, which start from the constant left
value.  Near a blow-up a new interval may continue 1/f rather than f,
and where that continuation predicts the blow-up inside the step, k is
halved before the attempt.  Which start follows which decision, and the
pole test, are stated in ``galerkin.SchemeOperator``.

The march ends when no growth factor exists below the scan ceiling --
the blow-up signal, with the final uncertified candidate discarded --
or when a safety guard trips (k below k_min or too short to move t,
interval cap).  The sum T of accepted step lengths is the blow-up time
estimate.

Smoothness for the HP refinement decision is classified through the
constant in the embedding of H^1 into the sup norm, applied to the
(r-1)-th derivative of the candidate: values near 1 mean the leading
Legendre modes dominate and raising the degree pays off.  A candidate
counts as smooth at theta >= THETA_STAR = 0.85.  The indicator reads
only the top two coefficient rows, 2 x d numbers, so it computes on
Python floats rather than numpy arrays, whose per-call dispatch costs
more than the arithmetic at that size.  It applies the IEEE operations
of the array form in the same order, so its theta has the same bits for
d <= 3, where each of its sums has fewer than 8 terms and numpy's
``.sum()`` adds them left to right too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .estimator import (
    DeltaNotFound,
    StepEstimate,
    _residual_f_vals,
    psi_update,
    reconstruction_error,
    residual_estimator,
    solve_delta,
)
from .galerkin import (
    _MIN_DEGREE,
    PicardConfig,
    Scheme,
    SchemeOperator,
    Start,
    StepInput,
    StepOutput,
    picard_operator,
    reconstruct,
    step,
)
from .poly import _TINY, MAX_DEGREE, Interval, LocalPoly, _all_finite, _marching
from .problems import NumericOverflow, Problem, _integer, _real

__all__ = [
    "Mode",
    "Termination",
    "AdaptConfig",
    "IntervalRecord",
    "RunResult",
    "smoothness",
    "h_adapt",
    "hp_adapt",
    "run_errors",
]

THETA_STAR = 0.85
# Picard stops once its largest coefficient change, or the error its
# contraction predicts, is at most this share of the running tolerance:
# the estimator certifies the reconstruction of whatever iterate it
# returns.  On the 190 seed-1 benchmark runs 1e-3 keeps every T of the
# 1e-12 relative stop alone and every DoF count but one (194 -> 193, same
# T), with 39-43% fewer f points; 1e-2 moves T or DoFs in 11 runs.
PICARD_TOL_SHARE = 1e-3
_ZERO_POLY_RTOL = 1e-14


class Mode(enum.Enum):
    __hash__ = object.__hash__  # identity hash, as ``galerkin.Start``'s

    H = "h"
    HP = "hp"


class Termination(enum.Enum):
    DELTA_NOT_FOUND = "delta_not_found"
    K_MIN_REACHED = "k_min_reached"
    MAX_INTERVALS = "max_intervals"


@dataclass(frozen=True)
class AdaptConfig:
    scheme: Scheme
    mode: Mode
    r_init: int
    k_init: float
    tol_star: float
    r_max: int = 30
    k_min: float = 1e-14
    max_intervals: int = 1_000_000
    picard: PicardConfig = field(default_factory=PicardConfig)

    def __post_init__(self):
        for key in ("r_init", "r_max", "max_intervals"):
            object.__setattr__(self, key, _integer(key, getattr(self, key)))
        # r_max steers only the HP driver's degree raises
        for key in ("r_init", "r_max") if self.mode is Mode.HP else ("r_init",):
            value = getattr(self, key)
            if value > MAX_DEGREE:
                raise ValueError(f"{key} = {value} is above the degree cap {MAX_DEGREE}")
        if self.mode is Mode.HP:
            if self.r_init < 1:
                raise ValueError("HP mode needs r_init >= 1 for the smoothness indicator")
            if self.r_max < self.r_init:
                raise ValueError("r_max must be >= r_init")
        elif self.r_init < (min_r := _MIN_DEGREE[self.scheme]):
            raise ValueError(f"H mode with the {self.scheme.value} scheme needs r_init >= {min_r}")
        for key in ("k_init", "tol_star", "k_min"):
            value = _real(key, getattr(self, key))
            if not 0 < value < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {value}")
            object.__setattr__(self, key, value)
        if self.max_intervals < 1:
            raise ValueError("max_intervals must be >= 1")


@dataclass(frozen=True)
class IntervalRecord:
    interval: Interval
    r: int
    output: StepOutput
    reconstruction: LocalPoly
    estimate: StepEstimate
    attempts: int
    decisions: tuple[str, ...]
    dofs: int

    @property
    def theta(self) -> Optional[float]:
        """Smoothness score theta of the accepted step's iterate, a float
        (``smoothness``), None at degree 0.

        Computed on access, so the drivers do not pay for it on every
        accepted interval: in HP mode only ``_predicts_rejection`` reads
        it, and only for a last accepted step below r_max whose
        prediction exceeds the running tolerance.
        """
        return smoothness(self.output.u, self.r) if self.r >= 1 else None


@dataclass(frozen=True)
class RunResult:
    intervals: tuple[IntervalRecord, ...]
    T: float
    M: int
    dofs: int
    termination: Termination
    tol_trace: tuple[float, ...]


def smoothness(u: LocalPoly, r: int) -> float:
    """Embedding-constant smoothness score of the (r-1)-th derivative.

    theta = ||w||_inf / (k^{-1/2} ||w||_2 + k^{1/2} ||w'||_2 / sqrt(2))
    clamped to [0, 1], with theta = 1 for a (numerically) vanishing w.
    u has degree at most r, so w is affine and every norm has a closed
    form: Parseval on its two Legendre coefficients gives the L2 norms,
    and the sup of the convex |w| is attained at an endpoint.  The
    drivers count the candidate as smooth when theta >= THETA_STAR.  A w
    that leaves double range gives theta = 0, not smooth.

    k cancels from both terms of the denominator: k^{-1/2} ||w||_2 =
    (|w_0|^2 + |w_1|^2 / 3)^{1/2} and k^{1/2} ||w'||_2 / sqrt(2) =
    sqrt(2) |w_1|, with w_0, w_1 the two coefficient rows of w and |.|
    the Euclidean norm.  Each term is formed with k, as the array form
    did, while its square sum is in range; otherwise, on an interval so
    short that (w_1 2/k)^2 overflows (k below about 1e-154) or k |w|^2
    is not a normal double (k below about 1e-307), from the closed form
    (``math.hypot``).  So theta is finite wherever w is.

    Legendre differentiation (legder) maps the top two coefficients c_j
    to (2j-1) c_j and touches them with nothing else, so the two that
    survive r-1 derivatives are rounded exactly as r-1 legder calls,
    each scaled by the map's 2/k, round them.  w holds at most 2 x d
    numbers, so the arithmetic runs on Python floats, read once with
    ``tolist()``: on arrays that small numpy's per-call dispatch costs
    more than the operations.  Every operation is the IEEE operation of
    the array form, and each sum adds its terms left to right in row
    order, as numpy's ``.sum()`` does below 8 terms (the builtin ``sum``
    does not: it compensates its rounding from Python 3.12 on); so theta
    has the bits of the array form for d <= 3.  From 8 terms on numpy
    sums pairwise, and the two can differ in the last bits.  An entry of
    w that is inf or nan (nan only where 2/k is inf) reads as inf,
    as it did through numpy's max: theta = 0.
    """
    if r < 1:
        raise ValueError(f"smoothness indicator needs degree >= 1, got {r}")
    if u.degree > r:
        raise ValueError(f"smoothness indicator needs degree <= r = {r}, got {u.degree}")
    k, d, c = u.interval.k, u.coeffs.shape[1], u.coeffs.ravel().tolist()
    q, w = 2.0 / k, c[(r - 1) * d :]  # w: rows r-1 and r, scaled as r-1 legder calls do
    for n, x in enumerate(w):
        j = r - 1 + n // d
        for f in range(2 * j - 1, 2 * (j - r) + 1, -2):  # 2(j - s) - 1, s < r - 1
            x = f * x * q
        w[n] = x
    size = list(map(abs, w))
    w_max = max(size, default=0.0) if all(map(math.isfinite, size)) else math.inf
    if w_max <= _ZERO_POLY_RTOL * max(max(c), -min(c)):
        return 1.0
    if not w_max < math.inf:
        return 0.0
    e = -math.frexp(w_max)[1]  # a power of two: exact on the norms, theta unmoved
    w0, w1 = [math.ldexp(x, e) for x in w[:d]], [math.ldexp(x, e) for x in w[d:]]
    l2 = h1_semi = lo = hi = 0.0  # squared norms, each summed in row order
    for x0, x1 in zip(w0, w1 or [0.0] * d):
        y, minus, plus = x1 * q, x0 - x1, x0 + x1  # w(-1), w(1)
        l2, h1_semi = l2 + k * (x0 * x0), h1_semi + k * (y * y)
        lo, hi = lo + minus * minus, hi + plus * plus
    for x1 in w1:
        l2 += k / 3.0 * (x1 * x1)  # ||P_i||^2 = 2 / (2i + 1): k / 1 on row 0, k / 3 here
    # k cancels from both terms; out of range they are formed without it
    if _TINY <= l2 < math.inf:
        l2_term = math.sqrt(l2) / math.sqrt(k)
    else:
        l2_term = math.hypot(*w0, *[x / math.sqrt(3.0) for x in w1])
    if h1_semi < math.inf:
        h1_term = math.sqrt(k) * math.sqrt(h1_semi) / math.sqrt(2.0)
    else:
        h1_term = math.sqrt(2.0) * math.hypot(*w1)
    return min(max(math.sqrt(max(lo, hi)) / (l2_term + h1_term), 0.0), 1.0)


def _interval_dofs(p: Problem, scheme: Scheme, r: int) -> int:
    return p.dim * (r + 1 - _MIN_DEGREE[scheme])


def _predicts_rejection(cfg: AdaptConfig, records: list[IntervalRecord], tol: float) -> bool:
    """Whether the next interval's first attempt, at the carried k and r,
    is predicted to fail the accuracy test in a way that halves k.

    eta_res is the sup of an integral over the step of a pointwise
    residual of order k^(r+1), so the model is eta = C k^(r+2) with C
    growing from interval to interval.  The last two accepted intervals'
    estimators e0, e1 predict the next as e1 times C's growth: e1 / e0,
    scaled by 2^(r+2) when the last interval halved k once on its way
    (any halving: predicted, pole, existence, overflow or accuracy).  A
    power of two rounds nothing, and a prediction past double range
    reads inf.  The rule is silent after a degree raise, since C changes
    with r by a factor no model of k gives, and after two halvings: over
    a factor 4 of k the model overstated the growth at degrees 5 and 6,
    where eta falls more slowly than k^(r+2), and halved steps that
    would have passed (at 1.06 to 3.7 tol) in 7 of the benchmark's 190
    seed-1 runs; after one halving at most, it halves no step of the
    march on seeds 1-5 that a rejection would not halve.  Where the
    last three intervals share k and r (the last two carry no decision),
    the change of the growth extrapolates too: e1 (e1 / e0) (e1 / e0) /
    (e0 / ea).  Near a blow-up the growth itself grows, and the geometric
    prediction lags it by one interval; the larger prediction counts, so
    this term only adds halvings.  The attempt is predicted to fail when
    a prediction exceeds tol.  None is formed from e0 = 0, the curvature
    term is 0 when ea is, and no square or ratio divides by zero or
    leaves double range on the way.

    An HP rejection raises r instead when the candidate is smooth and
    r < r_max, so in HP mode the prediction also needs the last accepted
    step to be non-smooth, or r at r_max; its smoothness,
    ``IntervalRecord.theta``, is computed only then.  The rule only ever
    halves k, and the halved attempt goes through the same tests as any
    other, so every accepted interval keeps its certificate.  Error-based
    step-size control of the error-per-step kind (Gustafsson, Lundh &
    Soderlind, BIT 28, 1988; Soderlind, ACM TOMS 29, 2003), restricted to
    the halvings the drivers make.
    """
    if len(records) < 2:
        return False
    last = records[-1]
    halvings = len(last.decisions)
    if halvings > 1 or "raise_r" in last.decisions:
        return False
    e0, e1 = records[-2].estimate.eta_res, last.estimate.eta_res
    if e0 == 0.0:
        return False
    growth = e1 / e0
    predicted = e1 * growth * 2.0 ** (halvings * (last.r + 2))
    if not predicted > tol and len(records) >= 3 and not (last.decisions or records[-2].decisions):
        predicted = e1 * growth * (growth * records[-3].estimate.eta_res / e0)
    if not predicted > tol:
        return False
    return cfg.mode is Mode.H or last.r >= cfg.r_max or not last.theta >= THETA_STAR


def _raise_by(u_hat: LocalPoly, eta: float, tol: float, room: int) -> int:
    """How many degrees an HP raise adds to the rejected candidate whose
    reconstruction is u_hat, residual estimator eta > tol, with at most
    room = r_max - r of them left.

    Legendre coefficients of a smooth function decay geometrically, |c_j|
    ~ C rho^j, and hp smoothness estimation fits rho from the top
    coefficients (Mavriplis, CMAME 116, 1994; Houston & Suli, CMAME 194,
    2005).  With rho = |c_{r+1}| / |c_r|, the Euclidean norms of the top
    two coefficient rows of u_hat, a raise by m divides the error by
    about rho^-m, so m = ceil(log(tol / eta) / log(rho)) degrees bring
    eta to tol, clamped to [1, room].  One degree where the fit says
    nothing: rho outside (0, 1), a zero or non-finite row, or a
    non-finite eta.  The logarithms are taken apart, log(eta) - log(tol),
    so no quotient underflows to 0.
    """
    d = u_hat.coeffs.shape[1]
    c = u_hat.coeffs[-2:].ravel().tolist()
    below = math.hypot(*c[:d])
    rho = math.hypot(*c[d:]) / below if 0.0 < below < math.inf else math.nan
    if not (0.0 < rho < 1.0 and eta < math.inf):
        return 1
    m = (math.log(eta) - math.log(tol)) / -math.log(rho)
    return min(max(math.ceil(m), 1), room)


def _first_iterate(
    inp: StepInput, op: SchemeOperator, start: Start | tuple[Start, int], f_res: np.ndarray
) -> object:
    """The first iterate of the attempt inp from ``start``
    (``galerkin.SchemeOperator``), with op its ``SchemeOperator`` and
    f_res the f values of the last candidate's residual, unread for the
    constant start: None for that start; the reciprocal continuation
    where op.R has the start, or ``_POLE`` (``_reciprocal_iterate``);
    else a u_left^T + k H @ f_res, with H = op.H[start] and k and u_left
    those of inp.  A guess that leaves double range is not finite, and
    ``step`` ignores it."""
    H, R = op.H.get(start), op.R.get(start)
    if H is None:  # the constant start
        return None
    if R is not None and (guess := _reciprocal_iterate(inp, op, R, f_res)) is not None:
        return guess
    guess = np.dot(H, f_res)
    k = inp.interval.k
    if _all_finite(guess):
        guess *= k
    else:
        # the product overflowed before k scaled it: form it from f
        # scaled by a power of two, which rounds as the product
        e = math.frexp(float(np.max(np.abs(f_res))))[1]
        guess = np.ldexp(np.dot(H, np.ldexp(f_res, -e)) * k, e)
    guess += op.a * inp.u_left
    return guess


# what ``_reciprocal_iterate`` returns for a pole on the step
_POLE = object()


def _reciprocal_iterate(
    inp: StepInput, op: SchemeOperator, R: np.ndarray, f_res: np.ndarray
) -> object:
    """a u_left^T + G (k / (R @ (1 / f_res))), the reciprocal
    continuation of ``galerkin.SchemeOperator`` with R an entry of its
    R, k and u_left those of inp; None where its test fails or
    the guess is not finite, and ``_POLE``, with no guess built, where
    the fit changes a component's sign at a step node: the continued 1/f
    vanishes on the step, so the blow-up it predicts lies inside it.

    The tests read each array once, as Python floats: the sign and pole
    test reads f_res before its reciprocal is formed, and the sign test
    of the fit reads the fit before k is divided by it, so no division
    meets a zero.
    """
    q, mid, (c1, c2), (w0, w1, w2) = op.pole
    positive = []
    for col in f_res.T.tolist():
        if not (min(col) > 0.0 or max(col) < 0.0):
            return None
        try:
            l0, l1 = math.log(col[q] / col[0]), math.log(col[mid] / col[0])
            l2 = math.log(col[-1] / col[mid])
        except ValueError:  # a quotient that underflowed to 0
            return None
        slope2, curvature = (l1 + l2) * (l1 + l2), c2 * l2 - c1 * l1
        if not (
            l1 + l2 > 0.0
            and slope2 <= curvature <= 5.0 * slope2
            and w0 * l0 + w1 * l1 + w2 * l2 > 0.0
        ):
            return None
        positive.append(col[0] > 0.0)
    fit = np.dot(R, np.reciprocal(f_res))
    for col, pos in zip(fit.T.tolist(), positive):
        if not (min(col) > 0.0 if pos else max(col) < 0.0):
            return _POLE
    guess = np.dot(op.G, np.divide(inp.interval.k, fit))
    guess += op.a * inp.u_left
    return guess if _all_finite(guess) else None


def _drive(p: Problem, cfg: AdaptConfig) -> RunResult:
    """March interval by interval, one attempt per pass of the loop (the
    skeleton of the module docstring); every change of k and r is made
    here.  The march ends with K_MIN_REACHED once k falls below k_min or
    no longer moves t.

    A raise is recorded as one "raise_r" however many degrees it adds,
    so each rejected attempt makes one decision.  A predicted halving is
    recorded as "halve_k_predicted" and not counted in the interval's
    attempts.  Nor is a pole halving, "halve_k_pole", made before any
    sweep runs where ``_first_iterate`` returns ``_POLE``; an interval
    has at most two (the starts of ``galerkin.SchemeOperator``).  The prediction is made on an
    interval's first pass only, before any halving, and the k_min guard
    sees every halving.

    Every step stops Picard at a coefficient change, or a predicted
    error, of PICARD_TOL_SHARE * tol, unless the relative test stops it
    earlier, and the reconstruction lifts the f values of the step's
    last update rather than evaluating f again.  A candidate whose
    reconstruction, residual or end value leaves double range halves k
    as an overflow.  The accepted end value, where the next interval
    starts, is the reconstruction's end value, so the global
    reconstruction has no jump for psi to miss. Every attempt's
    ``StepInput`` holds that left value, ``Problem.u0`` on the first
    interval and an end value made read-only here on every later one,
    without a copy (the copy rule of ``galerkin.StepInput``).

    The residual's f values f_res are evaluated here, once per
    candidate (``estimator._residual_f_vals``), and passed to
    ``residual_estimator``.  The f values also seed the Picard
    iteration of the next attempt, from the ``Start`` that what came
    before it selects (``_first_iterate``).  The operator of degree r is
    looked up once per change of r.

    The loop holds the march's errstate (``poly._marching``, the
    errstate rule of ``poly``).
    """
    records: list[IntervalRecord] = []
    tol_trace: list[float] = []
    tol = cfg.tol_star
    t, k, r = 0.0, cfg.k_init, cfg.r_init
    u_left = p.u0
    prev_estimate: Optional[StepEstimate] = None
    delta_hat = 1.0
    termination = Termination.MAX_INTERVALS
    # the operator of degree r, looked up on each change of r; the next
    # attempt's start and the f values it reads
    op = picard_operator(r, cfg.scheme)
    start, f_res = Start.CONSTANT, None
    attempts, decisions = 0, []

    with _marching():
        while len(records) < cfg.max_intervals:
            if not decisions and _predicts_rejection(cfg, records, tol):
                k *= 0.5
                decisions.append("halve_k_predicted")
                start = Start.NEXT_HALF
            if k < cfg.k_min or not t + k > t:
                termination = Termination.K_MIN_REACHED
                break
            inp = StepInput._trusted(Interval(t, t + k), r, u_left, cfg.scheme)
            guess = _first_iterate(inp, op, start, f_res)
            if guess is _POLE:
                k *= 0.5
                decisions.append("halve_k_pole")
                start = Start.NEXT_HALF if start is Start.NEXT else Start.CONSTANT
                continue
            attempts += 1
            out = step(p, inp, cfg.picard, guess=guess, atol=PICARD_TOL_SHARE * tol)
            start = Start.CONSTANT
            if not out.converged:
                k *= 0.5
                decisions.append("halve_k_existence")
                continue
            try:
                u_hat = reconstruct(p, inp, out.f_vals)
                f_res = _residual_f_vals(p, u_hat)
                eta = residual_estimator(p, u_hat, inp.u_left, f_res)
                if eta <= tol:
                    u_end = np.add.reduce(u_hat.coeffs, 0)  # uhat(t_end), as P_i(1) = 1
                    if not _all_finite(u_end):
                        raise NumericOverflow("end value overflowed")
                    u_end.flags.writeable = False
            except NumericOverflow:
                # the candidate exists but leaves double range: treat it
                # like nonexistence and shorten the step
                k *= 0.5
                decisions.append("halve_k_overflow")
                continue
            if not eta <= tol:
                if cfg.mode is Mode.HP and r < cfg.r_max and smoothness(out.u, r) >= THETA_STAR:
                    m = _raise_by(u_hat, eta, tol, cfg.r_max - r)
                    r += m
                    decisions.append("raise_r")
                    op = picard_operator(r, cfg.scheme)
                    start = Start.RAISE if m == 1 else (Start.RAISE, m)
                else:
                    k *= 0.5
                    decisions.append("halve_k")
                    start = Start.HALVE
                continue

            iv = inp.interval
            psi = psi_update(prev_estimate, eta)
            prev_delta = prev_estimate.delta if prev_estimate is not None else None
            delta = solve_delta(p, iv, u_hat, psi, prev_delta=prev_delta)
            if isinstance(delta, DeltaNotFound):
                termination = Termination.DELTA_NOT_FOUND
                break
            delta_hat *= delta
            prev_estimate = StepEstimate(
                eta_res=eta, psi=psi, delta=delta, bound=delta * psi, delta_hat=delta_hat
            )
            records.append(
                IntervalRecord(
                    interval=iv,
                    r=r,
                    output=out,
                    reconstruction=u_hat,
                    estimate=prev_estimate,
                    attempts=attempts,
                    decisions=tuple(decisions),
                    dofs=_interval_dofs(p, cfg.scheme, r),
                )
            )
            tol *= delta
            tol_trace.append(tol)
            # the next interval's first attempt carries this one's k and r
            t, k, u_left = iv.t_end, iv.k, u_end
            start = Start.NEXT
            attempts, decisions = 0, []

    return RunResult(
        intervals=tuple(records),
        T=records[-1].interval.t_end if records else 0.0,
        M=len(records),
        dofs=sum(rec.dofs for rec in records),
        termination=termination,
        tol_trace=tuple(tol_trace),
    )


def h_adapt(p: Problem, cfg: AdaptConfig) -> RunResult:
    """Fixed-degree driver: all refinement is step-length halving."""
    if cfg.mode is not Mode.H:
        raise ValueError("h_adapt requires mode == Mode.H")
    return _drive(p, cfg)


def hp_adapt(p: Problem, cfg: AdaptConfig) -> RunResult:
    """Degree-raising driver: accuracy refinement consults the
    smoothness indicator; existence refinement still halves k."""
    if cfg.mode is not Mode.HP:
        raise ValueError("hp_adapt requires mode == Mode.HP")
    return _drive(p, cfg)


def run_errors(
    p: Problem, result: RunResult
) -> tuple[tuple[Optional[float], ...], tuple[Optional[float], ...]]:
    """True reconstruction errors and effectivities of a finished run.

    One entry each per accepted interval: ``reconstruction_error`` of
    its reconstruction, and its bound divided by the largest of those
    errors so far (inf while that is 0, None once it is inf, where the
    ratio would read 0 and measure nothing).  Both are all None when
    p.exact is None.  No refinement decision reads either value.
    """
    if p.exact is None:
        none = (None,) * result.M
        return none, none
    errors, effectivities, worst = [], [], 0.0
    for rec in result.intervals:
        errors.append(reconstruction_error(p, rec.reconstruction))
        worst = max(worst, errors[-1])
        if worst == math.inf:
            effectivities.append(None)
        else:
            effectivities.append(rec.estimate.bound / worst if worst > 0.0 else math.inf)
    return tuple(errors), tuple(effectivities)
