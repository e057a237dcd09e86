"""Adaptive time-stepping drivers that march toward blow-up.

Both drivers march with one loop, one attempt per pass, which makes
every decision on k and r:

    1. prediction: on an interval's first attempt, when the last two
       accepted intervals share the k and r the next one carries,
       extrapolate their residual estimators geometrically,
       eta_M * (eta_M / eta_{M-1}); a prediction above the running
       tolerance halves k before the attempt (HP mode: only where a
       rejection would halve k rather than raise r);
    2. existence: a Picard iteration that does not converge, or a
       candidate that leaves double range, halves k;
    3. accuracy: a residual estimator above the running tolerance
       refines (H mode halves k; HP mode raises the degree when r is
       below r_max and the current candidate looks smooth, else halves
       k; the indicator is computed only below r_max);
    4. acceptance: update psi and solve for the growth factor delta
       with a warm start at the previous value;
    5. scale the tolerance by delta (early intervals must be resolved
       more accurately than later ones, since their estimator
       contribution is amplified by every subsequent delta), carry the
       accepted step length, degree and solution forward, and advance.

Each attempt starts Picard from a guess formed from the f values of
the last candidate's residual, except the run's first attempt and one
after a failed step, which start from the constant left value
(``galerkin.SchemeOperator``).

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

    Only when the last accepted interval took the k and r of the one
    before it (no decision: every decision changes k or r), so both
    carry the next interval's k and r.  Their residual estimators e0, e1
    predict e1 * (e1 / e0), formed so that no square leaves double range
    (none when e0 is 0); the attempt is predicted to fail when that
    exceeds tol.  An HP rejection raises r instead when the candidate is
    smooth and r < r_max, so in HP mode the prediction also needs the
    last accepted step to be non-smooth, or r at r_max; its smoothness,
    ``IntervalRecord.theta``, is computed only then.  The rule only ever
    halves k, and the halved attempt goes through the same tests as any
    other, so every accepted interval keeps its certificate.  A one-step
    form of error-based step-size control (Gustafsson, Lundh & Soderlind,
    BIT 28, 1988).
    """
    if len(records) < 2 or records[-1].decisions:
        return False
    last = records[-1]
    e0, e1 = records[-2].estimate.eta_res, last.estimate.eta_res
    if e0 == 0.0 or not e1 * (e1 / e0) > tol:
        return False
    return cfg.mode is Mode.H or last.r >= cfg.r_max or not last.theta >= THETA_STAR


def _first_iterate(inp: StepInput, H: np.ndarray, f_res: np.ndarray) -> np.ndarray:
    """a u_left^T + k H @ f_res (``galerkin.SchemeOperator``), with k,
    u_left and the a of ``SchemeOperator`` those of inp.  A guess that
    leaves double range is not finite, and ``step`` ignores it."""
    guess = np.dot(H, f_res)
    k = inp.interval.k
    if _all_finite(guess):
        guess *= k
    else:
        # the product overflowed before k scaled it: form it from f
        # scaled by a power of two, which rounds as the product
        e = math.frexp(float(np.max(np.abs(f_res))))[1]
        guess = np.ldexp(np.dot(H, np.ldexp(f_res, -e)) * k, e)
    guess += picard_operator(inp.r, inp.scheme).a * inp.u_left
    return guess


def _drive(p: Problem, cfg: AdaptConfig) -> RunResult:
    """March interval by interval, one attempt per pass of the loop (the
    skeleton of the module docstring); every change of k and r is made
    here.  The march ends with K_MIN_REACHED once k falls below k_min or
    no longer moves t.

    A predicted halving is recorded as "halve_k_predicted" and not
    counted in the interval's attempts.  Every step stops Picard at a
    coefficient change, or a predicted error, of PICARD_TOL_SHARE * tol,
    unless the relative test stops it earlier, and the reconstruction
    lifts the f values of the step's last update rather than evaluating
    f again.  A candidate whose reconstruction, residual or end value
    leaves double range halves k as an overflow.  The accepted end
    value, where the next interval starts, is the reconstruction's end
    value, so the global reconstruction has no jump for psi to miss.

    The residual's f values f_res are evaluated here, once per
    candidate (``estimator._residual_f_vals``), and passed to
    ``residual_estimator``; the nodes they were evaluated at go to
    ``solve_delta`` (``nodes``).  The f values also seed the Picard
    iteration of the next attempt (``_first_iterate``), with the H of
    ``galerkin.SchemeOperator`` that what came before it selects.

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
    # the next attempt's first iterate: its H (None for the constant
    # start) and the f values it reads
    H, f_res = None, None
    attempts, decisions = 0, []

    with _marching():
        while len(records) < cfg.max_intervals:
            if not attempts and _predicts_rejection(cfg, records, tol):
                k *= 0.5
                decisions.append("halve_k_predicted")
                H = picard_operator(r, cfg.scheme).predict_half
            if k < cfg.k_min or not t + k > t:
                termination = Termination.K_MIN_REACHED
                break
            inp = StepInput(Interval(t, t + k), r, u_left, cfg.scheme)
            attempts += 1
            guess = None if H is None else _first_iterate(inp, H, f_res)
            out = step(p, inp, cfg.picard, guess=guess, atol=PICARD_TOL_SHARE * tol)
            H = None
            if not out.converged:
                k *= 0.5
                decisions.append("halve_k_existence")
                continue
            try:
                u_hat = reconstruct(p, inp, out.f_vals)
                nodes, f_res = _residual_f_vals(p, u_hat)
                eta = residual_estimator(p, u_hat, inp.u_left, f_res)
                if eta <= tol:
                    u_end = np.add.reduce(u_hat.coeffs, 0)  # uhat(t_end), as P_i(1) = 1
                    if not _all_finite(u_end):
                        raise NumericOverflow("end value overflowed")
            except NumericOverflow:
                # the candidate exists but leaves double range: treat it
                # like nonexistence and shorten the step
                k *= 0.5
                decisions.append("halve_k_overflow")
                continue
            if not eta <= tol:
                if cfg.mode is Mode.HP and r < cfg.r_max and smoothness(out.u, r) >= THETA_STAR:
                    r += 1
                    decisions.append("raise_r")
                    H = picard_operator(r, cfg.scheme).raised
                else:
                    k *= 0.5
                    decisions.append("halve_k")
                    H = picard_operator(r, cfg.scheme).halve
                continue

            iv = inp.interval
            psi = psi_update(prev_estimate, eta)
            prev_delta = prev_estimate.delta if prev_estimate is not None else None
            delta = solve_delta(p, iv, u_hat, psi, prev_delta=prev_delta, nodes=nodes)
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
            H = picard_operator(r, cfg.scheme).predict
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
