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
       refines (H mode halves k; HP mode raises the degree when the
       current candidate looks smooth, else halves k);
    4. acceptance: update psi and solve for the growth factor delta
       with a warm start at the previous value;
    5. scale the tolerance by delta (early intervals must be resolved
       more accurately than later ones, since their estimator
       contribution is amplified by every subsequent delta), carry the
       accepted step length, degree and solution forward (the f values
       its residual integrated predict the next interval's first Picard
       iterate), and advance.

The march ends when no growth factor exists below the scan ceiling --
the blow-up signal, with the final uncertified candidate discarded --
or when a safety guard trips (k below k_min or too short to move t,
interval cap).  The sum T of accepted step lengths is the blow-up time
estimate.

Smoothness for the HP refinement decision is classified through the
constant in the embedding of H^1 into the sup norm, applied to the
(r-1)-th derivative of the candidate: values near 1 mean the leading
Legendre modes dominate and raising the degree pays off.  A candidate
counts as smooth at theta >= THETA_STAR = 0.85.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
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
    PicardConfig,
    Scheme,
    StepInput,
    StepOutput,
    picard_operator,
    reconstruct,
    step,
)
from .poly import MAX_DEGREE, Interval, LocalPoly, _all_finite, basis
from .problems import NumericOverflow, Problem

__all__ = [
    "Mode",
    "Termination",
    "AdaptConfig",
    "SmoothnessReport",
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
_ENDPOINTS = np.array([-1.0, 1.0])
_TWO_I_PLUS_ONE = np.array([[1.0], [3.0]])  # ||P_i||^2 = 2 / (2i + 1), i = 0, 1


class Mode(enum.Enum):
    H = "h"
    HP = "hp"


class Termination(enum.Enum):
    DELTA_NOT_FOUND = "delta_not_found"
    K_MIN_REACHED = "k_min_reached"
    MAX_INTERVALS = "max_intervals"


@dataclass(frozen=True)
class SmoothnessReport:
    theta: float
    smooth: bool


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
        # a bool passes operator.index, but numpy sizes reject it
        for key in ("r_init", "r_max", "max_intervals"):
            value = getattr(self, key)
            try:
                if isinstance(value, bool):
                    raise TypeError
                operator.index(value)
            except TypeError:
                raise ValueError(f"{key} must be an integer, got {value!r}") from None
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
        else:
            min_r = 1 if self.scheme is Scheme.CG else 0
            if self.r_init < min_r:
                raise ValueError(
                    f"H mode with the {self.scheme.value} scheme needs r_init >= {min_r}"
                )
        for key in ("k_init", "tol_star", "k_min"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{key} must be a real number, got {value!r}")
            if not 0 < value < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {value}")
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
        """Smoothness score of the accepted step, None at degree 0.

        Computed on access: no refinement decision reads it, so the
        drivers do not pay for it on every accepted interval.
        """
        return smoothness(self.output.u, self.r).theta if self.r >= 1 else None


@dataclass(frozen=True)
class RunResult:
    intervals: tuple[IntervalRecord, ...]
    T: float
    M: int
    dofs: int
    termination: Termination
    tol_trace: tuple[float, ...]


def smoothness(u: LocalPoly, r: int) -> SmoothnessReport:
    """Embedding-constant smoothness score of the (r-1)-th derivative.

    theta = ||w||_inf / (k^{-1/2} ||w||_2 + k^{1/2} ||w'||_2 / sqrt(2))
    clamped to [0, 1], with theta = 1 for a (numerically) vanishing w.
    u has degree at most r, so w is affine and every norm has a closed
    form: Parseval on its two Legendre coefficients gives the L2 norms,
    and the sup of the convex |w| is attained at an endpoint.  The
    candidate is smooth when theta >= THETA_STAR.  A w that leaves
    double range gives theta = 0, not smooth.
    """
    if r < 1:
        raise ValueError(f"smoothness indicator needs degree >= 1, got {r}")
    if u.degree > r:
        raise ValueError(f"smoothness indicator needs degree <= r = {r}, got {u.degree}")
    # Legendre differentiation (legder) maps the top two coefficients
    # c_j to (2j-1) c_j and touches them with nothing else, so the two
    # that survive r-1 derivatives are rounded exactly as r-1 legder
    # calls, each scaled by the map's 2/k, round them.
    k = u.interval.k
    w = u.coeffs[r - 1 :]
    j = np.arange(r - 1, u.degree + 1, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(r - 1):
            w = (2.0 * (j - s) - 1.0) * w * (2.0 / k)
    if w.size == 0 or (w_max := abs(w).max()) <= _ZERO_POLY_RTOL * abs(u.coeffs).max():
        return SmoothnessReport(theta=1.0, smooth=True)
    if not w_max < math.inf:
        return SmoothnessReport(theta=0.0, smooth=False)
    # a power of two scales every norm below exactly and theta not at
    # all, and keeps the squares away from overflow and underflow
    w = np.ldexp(w, -math.frexp(w_max)[1])
    w1 = w[1] if w.shape[0] == 2 else np.zeros_like(w[0])
    l2 = math.sqrt(((k / _TWO_I_PLUS_ONE[: w.shape[0]]) * w**2).sum())
    h1_semi = math.sqrt((k * (w1 * (2.0 / k)) ** 2).sum())
    ends = w[0][:, None] + w1[:, None] * _ENDPOINTS  # (d, 2): w(-1), w(1)
    linf = math.sqrt((ends**2).sum(axis=0).max())
    denom = l2 / math.sqrt(k) + math.sqrt(k) * h1_semi / math.sqrt(2.0)
    theta = min(max(linf / denom, 0.0), 1.0)
    return SmoothnessReport(theta=theta, smooth=theta >= THETA_STAR)


def _interval_dofs(p: Problem, scheme: Scheme, r: int) -> int:
    per_component = r if scheme is Scheme.CG else r + 1
    return p.dim * per_component


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
    last accepted step to be non-smooth, or r at r_max; its smoothness
    is computed only then.  The rule only ever halves k, and the halved
    attempt goes through the same tests as any other, so every accepted
    interval keeps its certificate.  A one-step form of error-based
    step-size control (Gustafsson, Lundh & Soderlind, BIT 28, 1988).
    """
    if len(records) < 2 or records[-1].decisions:
        return False
    last = records[-1]
    e0, e1 = records[-2].estimate.eta_res, last.estimate.eta_res
    if e0 == 0.0 or not e1 * (e1 / e0) > tol:
        return False
    return cfg.mode is Mode.H or last.r >= cfg.r_max or not smoothness(last.output.u, last.r).smooth


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

    The residual's f values are evaluated here, once per candidate
    (``estimator._residual_f_vals``), and passed to
    ``residual_estimator``.  The guess seeds the Picard iteration of an
    attempt.  An interval's first attempt starts from its Picard update
    computed from those f values of the reconstruction accepted before
    it, projected to degree r + 2 and continued onto it
    (``SchemeOperator.predict``): a u_end^T + k predict @ f_vals, with
    no f evaluated.  After a predicted halving that guess is restricted
    to the first half of the interval (the first r + 1 columns of
    ``Basis.first_half``, exact for its degree r).  After an accuracy
    refinement the next attempt starts from the rejected candidate's
    reconstruction, the best polynomial the loop holds: restricted to
    the first half of its interval and projected to degree r after a
    halving, as it is after a degree raise, since it already has degree
    r + 1.  The run's first attempt, and an attempt after a failed one,
    start from the constant left value.  The guesses and the end value
    are formed under the one errstate that spans the loop, and the
    callees hold their own: ``step`` ignores a non-finite guess, and the
    end value is tested for finiteness.
    """
    records: list[IntervalRecord] = []
    tol_trace: list[float] = []
    tol = cfg.tol_star
    t, k, r = 0.0, cfg.k_init, cfg.r_init
    u_left = p.u0
    prev_estimate: Optional[StepEstimate] = None
    delta_hat = 1.0
    termination = Termination.MAX_INTERVALS
    guess = None
    attempts, decisions = 0, []

    with np.errstate(over="ignore", invalid="ignore"):
        while len(records) < cfg.max_intervals:
            if not attempts and _predicts_rejection(cfg, records, tol):
                k *= 0.5
                decisions.append("halve_k_predicted")
                guess = np.dot(basis(r).first_half[:, : r + 1], guess)
            if k < cfg.k_min or not t + k > t:
                termination = Termination.K_MIN_REACHED
                break
            inp = StepInput(Interval(t, t + k), r, u_left, cfg.scheme)
            attempts += 1
            out = step(p, inp, cfg.picard, guess=guess, atol=PICARD_TOL_SHARE * tol)
            guess = None
            if not out.converged:
                k *= 0.5
                decisions.append("halve_k_existence")
                continue
            try:
                u_hat = reconstruct(p, inp, out.u, out.f_vals)
                f_res = _residual_f_vals(p, u_hat)
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
                if cfg.mode is Mode.HP and smoothness(out.u, r).smooth and r < cfg.r_max:
                    r += 1
                    decisions.append("raise_r")
                    guess = u_hat.coeffs
                else:
                    k *= 0.5
                    decisions.append("halve_k")
                    guess = np.dot(basis(r).first_half, u_hat.coeffs)
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
            op = picard_operator(r, cfg.scheme)
            guess = np.dot(op.predict, f_res)
            if _all_finite(guess):
                guess *= k
            else:
                # the product overflowed before k scaled it: form it from
                # f scaled by a power of two, which rounds as the product
                e = math.frexp(float(np.max(np.abs(f_res))))[1]
                guess = np.ldexp(np.dot(op.predict, np.ldexp(f_res, -e)) * k, e)
            guess += op.a * u_end
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
