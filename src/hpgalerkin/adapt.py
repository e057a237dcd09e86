"""Adaptive time-stepping drivers that march toward blow-up.

Both drivers march interval by interval with the same skeleton:

    1. prediction: when the last two accepted intervals share the k and
       r the next one carries, extrapolate their residual estimators
       geometrically, eta_M * (eta_M / eta_{M-1}); a prediction above
       the running tolerance halves k before the first attempt (HP mode:
       only where a rejection would halve k rather than raise r);
    2. existence loop: halve k until the Picard iteration converges;
    3. accuracy loop: refine until the residual estimator is below the
       running tolerance (H mode halves k; HP mode raises the degree
       when the current candidate looks smooth, else halves k);
    4. accept the interval, update psi, and solve for the growth
       factor delta with a warm start at the previous value;
    5. scale the tolerance by delta (early intervals must be resolved
       more accurately than later ones, since their estimator
       contribution is amplified by every subsequent delta), carry the
       accepted step length, degree and solution forward (its f values
       predict the next interval's first Picard iterate), and advance.

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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .estimator import (
    DeltaNotFound,
    StepEstimate,
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
    _all_finite,
    picard_operator,
    reconstruct,
    step,
)
from .poly import MAX_DEGREE, Interval, LocalPoly, basis
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
# Picard stops once its largest coefficient change is at most this share
# of the running tolerance: the estimator certifies the reconstruction of
# whatever iterate it returns.  On the benchmark ladders 1e-3 keeps every
# T and DoF count of the 1e-12 relative stop alone; 1e-2 moves both.
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
    # Legendre differentiation maps the top two coefficients c_j to
    # (2j-1) c_j and touches them with nothing else, so the two that
    # survive r-1 derivatives are rounded exactly as LocalPoly.derivative()
    # rounds them.
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


@dataclass
class _Candidate:
    inp: StepInput
    output: StepOutput
    reconstruction: LocalPoly
    eta_res: float
    u_end: np.ndarray
    next_guess: np.ndarray
    attempts: int
    decisions: list[str]


def _interval_dofs(p: Problem, scheme: Scheme, r: int) -> int:
    per_component = r if scheme is Scheme.CG else r + 1
    return p.dim * per_component


def _refine(
    p: Problem,
    cfg: AdaptConfig,
    t_start: float,
    k: float,
    r: int,
    u_left: np.ndarray,
    tol: float,
    guess: Optional[np.ndarray],
) -> Optional[_Candidate]:
    """Existence + accuracy loops for one interval; None when k falls
    below k_min or no longer moves t_start.

    Every step stops Picard at a coefficient change of
    PICARD_TOL_SHARE * tol, unless the relative test stops it earlier,
    and the reconstruction lifts the f values of the step's last update
    rather than evaluating f again.  The candidate's end value, where
    the next interval starts, is the reconstruction's end value, so the
    global reconstruction has no jump for psi to miss.

    guess seeds the Picard iteration of the first attempt: the previous
    interval's next_guess, or, when ``_drive`` has halved k on the
    prediction, its restriction to the first half.  After an
    accuracy refinement the next attempt starts from the rejected
    candidate's reconstruction, the best polynomial the loop holds:
    restricted to the first half of its interval and projected to degree
    r after a halving (``Basis.first_half``), as it is after a degree
    raise, since it already has degree r + 1.  An attempt after a failed
    one starts from the constant left value.  next_guess, the first
    iterate of the next interval, is that interval's Picard update
    computed from the accepted step's own f values, continued onto it
    (``SchemeOperator.predict``): a u_end^T + k predict @ f_vals, with
    no f evaluated.  A candidate whose reconstruction, residual or end
    value leaves double range halves k as an overflow.  The guesses are
    formed under an errstate: ``step`` ignores a non-finite one.
    """
    attempts = 0
    decisions: list[str] = []
    while True:
        if k < cfg.k_min or not t_start + k > t_start:
            return None
        inp = StepInput(Interval(t_start, t_start + k), r, u_left, cfg.scheme)
        attempts += 1
        out = step(p, inp, cfg.picard, guess=guess, atol=PICARD_TOL_SHARE * tol)
        guess = None
        if not out.converged:
            k *= 0.5
            decisions.append("halve_k_existence")
            continue
        try:
            u_hat = reconstruct(p, inp, out.u, out.f_vals)
            eta = residual_estimator(p, u_hat, inp.u_left)
            if eta <= tol:
                # uhat(t_end), as P_i(1) = 1, and the next interval's Picard
                # update from this one's f values continued onto it: its
                # first attempt has the same k and r, unless _drive halves
                # k on the prediction
                op = picard_operator(r, cfg.scheme)
                with np.errstate(over="ignore", invalid="ignore"):
                    u_end = np.add.reduce(u_hat.coeffs, 0)
                    next_guess = np.dot(op.predict, out.f_vals)
                    next_guess *= inp.interval.k
                    next_guess += op.a * u_end
                if not _all_finite(u_end):
                    raise NumericOverflow("end value overflowed")
                return _Candidate(inp, out, u_hat, eta, u_end, next_guess, attempts, decisions)
        except NumericOverflow:
            # Candidate exists but leaves double range; treat like
            # nonexistence and shorten the step.
            k *= 0.5
            decisions.append("halve_k_overflow")
            continue
        if cfg.mode is Mode.HP and smoothness(out.u, r).smooth and r < cfg.r_max:
            r += 1
            decisions.append("raise_r")
            guess = u_hat.coeffs
        else:
            k *= 0.5
            decisions.append("halve_k")
            with np.errstate(over="ignore", invalid="ignore"):
                guess = np.dot(basis(r).first_half, u_hat.coeffs)


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
    """March interval by interval (the skeleton of the module docstring).

    Before each interval ``_predicts_rejection`` may halve the carried k.
    The halved attempt starts from the carried next_guess restricted to
    the first half of its interval (``Basis.first_half`` on next_guess
    padded by a zero row, exact for its degree r), and the interval's
    decisions start with "halve_k_predicted"; the skipped attempt is not
    counted in its attempts.
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

    while len(records) < cfg.max_intervals:
        predicted: tuple[str, ...] = ()
        if _predicts_rejection(cfg, records, tol):
            k *= 0.5
            predicted = ("halve_k_predicted",)
            with np.errstate(over="ignore", invalid="ignore"):
                guess = np.dot(basis(r).first_half, np.vstack((guess, np.zeros_like(guess[:1]))))
        candidate = _refine(p, cfg, t, k, r, u_left, tol, guess)
        if candidate is None:
            termination = Termination.K_MIN_REACHED
            break
        iv, r = candidate.inp.interval, candidate.inp.r
        psi = psi_update(prev_estimate, candidate.eta_res)
        prev_delta = prev_estimate.delta if prev_estimate is not None else None
        delta = solve_delta(p, iv, candidate.reconstruction, psi, prev_delta=prev_delta)
        if isinstance(delta, DeltaNotFound):
            termination = Termination.DELTA_NOT_FOUND
            break

        delta_hat *= delta
        estimate = StepEstimate(
            eta_res=candidate.eta_res,
            psi=psi,
            delta=delta,
            bound=delta * psi,
            delta_hat=delta_hat,
        )
        records.append(
            IntervalRecord(
                interval=iv,
                r=r,
                output=candidate.output,
                reconstruction=candidate.reconstruction,
                estimate=estimate,
                attempts=candidate.attempts,
                decisions=predicted + tuple(candidate.decisions),
                dofs=_interval_dofs(p, cfg.scheme, r),
            )
        )
        tol *= delta
        tol_trace.append(tol)
        prev_estimate = estimate
        t = iv.t_end
        k = iv.k
        u_left, guess = candidate.u_end, candidate.next_guess

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
