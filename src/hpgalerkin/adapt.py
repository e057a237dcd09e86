"""Adaptive time-stepping drivers that march toward blow-up.

Both drivers march interval by interval with the same skeleton:

    1. existence loop: halve k until the Picard iteration converges;
    2. accuracy loop: refine until the residual estimator is below the
       running tolerance (H mode halves k; HP mode raises the degree
       when the current candidate looks smooth, else halves k);
    3. accept the interval, update psi, and solve for the growth
       factor delta with a warm start at the previous value;
    4. scale the tolerance by delta (early intervals must be resolved
       more accurately than later ones, since their estimator
       contribution is amplified by every subsequent delta), carry the
       accepted step length and degree forward, and advance.

The march ends when no growth factor exists below the scan ceiling --
the blow-up signal, with the final uncertified candidate discarded --
or when a safety guard trips (k below k_min, interval cap).  The sum T
of accepted step lengths is the blow-up time estimate.

Smoothness for the HP refinement decision is classified through the
constant in the embedding of H^1 into the sup norm, applied to the
(r-1)-th derivative of the candidate: values near 1 mean the leading
Legendre modes dominate and raising the degree pays off.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .estimator import (
    DeltaNotFound,
    DeltaSolverConfig,
    StepEstimate,
    projection_estimator,
    psi_update,
    reconstruction_error,
    residual_estimator,
    solve_delta,
)
from .galerkin import PicardConfig, Scheme, StepInput, StepOutput, reconstruct, step
from .poly import Interval, LocalPoly
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
]

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
    theta_star: float = 0.85
    k_min: float = 1e-14
    max_intervals: int = 1_000_000
    picard: PicardConfig = field(default_factory=PicardConfig)
    delta: DeltaSolverConfig = field(default_factory=DeltaSolverConfig)

    def __post_init__(self):
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
        if not (self.k_init > 0 and self.tol_star > 0 and self.k_min > 0):
            raise ValueError("k_init, tol_star and k_min must be positive")
        if not 0.0 < self.theta_star < 1.0:
            raise ValueError("theta_star must lie in (0, 1)")
        if self.max_intervals < 1:
            raise ValueError("max_intervals must be >= 1")


@dataclass(frozen=True)
class IntervalRecord:
    interval: Interval
    r: int
    output: StepOutput
    reconstruction: LocalPoly
    estimate: StepEstimate
    theta: Optional[float]
    attempts: int
    decisions: tuple[str, ...]
    recon_error: Optional[float]
    dofs: int


@dataclass(frozen=True)
class RunResult:
    intervals: tuple[IntervalRecord, ...]
    T: float
    M: int
    dofs: int
    termination: Termination
    tol_trace: tuple[float, ...]


def smoothness(u: LocalPoly, r: int, theta_star: float = 0.85) -> SmoothnessReport:
    """Embedding-constant smoothness score of the (r-1)-th derivative.

    theta = ||w||_inf / (k^{-1/2} ||w||_2 + k^{1/2} ||w'||_2 / sqrt(2))
    clamped to [0, 1], with theta = 1 for a (numerically) vanishing w.
    u has degree at most r, so w is affine and every norm has a closed
    form: Parseval on its two Legendre coefficients gives the L2 norms,
    and the sup of the convex |w| is attained at an endpoint.
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
    for s in range(r - 1):
        w = (2.0 * (j - s) - 1.0) * w * (2.0 / k)
    if w.size == 0 or abs(w).max() <= _ZERO_POLY_RTOL * abs(u.coeffs).max():
        return SmoothnessReport(theta=1.0, smooth=True)
    w1 = w[1] if w.shape[0] == 2 else np.zeros_like(w[0])
    l2 = math.sqrt(((k / _TWO_I_PLUS_ONE[: w.shape[0]]) * w**2).sum())
    h1_semi = math.sqrt((k * (w1 * (2.0 / k)) ** 2).sum())
    ends = w[0][:, None] + w1[:, None] * _ENDPOINTS  # (d, 2): w(-1), w(1)
    linf = math.sqrt((ends**2).sum(axis=0).max())
    denom = l2 / math.sqrt(k) + math.sqrt(k) * h1_semi / math.sqrt(2.0)
    theta = min(max(linf / denom, 0.0), 1.0)
    return SmoothnessReport(theta=theta, smooth=theta >= theta_star)


@dataclass
class _Candidate:
    inp: StepInput
    output: StepOutput
    reconstruction: LocalPoly
    eta_res: float
    attempts: int
    decisions: list[str]


def _interval_dofs(p: Problem, scheme: Scheme, r: int) -> int:
    per_component = r if scheme is Scheme.CG else r + 1
    return p.dim * per_component


def _refine(
    p: Problem, cfg: AdaptConfig, t_start: float, k: float, r: int, u_left: np.ndarray, tol: float
) -> Optional[_Candidate]:
    """Existence + accuracy loops for one interval; None when k underflows."""
    attempts = 0
    decisions: list[str] = []
    while True:
        if k < cfg.k_min:
            return None
        inp = StepInput(Interval(t_start, t_start + k), r, u_left, cfg.scheme)
        attempts += 1
        out = step(p, inp, cfg.picard)
        if not out.converged:
            k *= 0.5
            decisions.append("halve_k_existence")
            continue
        try:
            u_hat = reconstruct(p, inp, out.u)
            eta = residual_estimator(p, u_hat, inp.u_left)
        except NumericOverflow:
            # Candidate exists but its reconstruction leaves double
            # range; treat like nonexistence and shorten the step.
            k *= 0.5
            decisions.append("halve_k_overflow")
            continue
        if eta <= tol:
            return _Candidate(inp, out, u_hat, eta, attempts, decisions)
        if cfg.mode is Mode.H:
            k *= 0.5
            decisions.append("halve_k")
        else:
            report = smoothness(out.u, r, cfg.theta_star)
            if report.smooth and r < cfg.r_max:
                r += 1
                decisions.append("raise_r")
            else:
                k *= 0.5
                decisions.append("halve_k")


def _drive(p: Problem, cfg: AdaptConfig) -> RunResult:
    records: list[IntervalRecord] = []
    tol_trace: list[float] = []
    tol = cfg.tol_star
    t, k, r = 0.0, cfg.k_init, cfg.r_init
    u_left = p.u0
    prev_estimate: Optional[StepEstimate] = None
    delta_hat = 1.0
    worst_recon_error = 0.0
    termination = Termination.MAX_INTERVALS

    while len(records) < cfg.max_intervals:
        candidate = _refine(p, cfg, t, k, r, u_left, tol)
        if candidate is None:
            termination = Termination.K_MIN_REACHED
            break
        iv, r = candidate.inp.interval, candidate.inp.r
        eta_proj_prev = projection_estimator(u_left)
        psi = psi_update(prev_estimate, eta_proj_prev, candidate.eta_res)
        guess = prev_estimate.delta if prev_estimate is not None else None
        delta = solve_delta(
            p, iv, candidate.reconstruction, psi, prev_delta=guess, cfg=cfg.delta
        )
        if isinstance(delta, DeltaNotFound):
            termination = Termination.DELTA_NOT_FOUND
            break

        delta_hat *= delta
        bound = delta * psi
        recon_err = None
        eff = None
        if p.exact is not None:
            recon_err = reconstruction_error(p, candidate.reconstruction)
            worst_recon_error = max(worst_recon_error, recon_err)
            eff = bound / worst_recon_error if worst_recon_error > 0.0 else math.inf
        estimate = StepEstimate(
            eta_res=candidate.eta_res,
            eta_proj=eta_proj_prev,
            psi=psi,
            delta=delta,
            bound=bound,
            delta_hat=delta_hat,
            effectivity=eff,
        )
        theta = smoothness(candidate.output.u, r, cfg.theta_star).theta if r >= 1 else None
        records.append(
            IntervalRecord(
                interval=iv,
                r=r,
                output=candidate.output,
                reconstruction=candidate.reconstruction,
                estimate=estimate,
                theta=theta,
                attempts=candidate.attempts,
                decisions=tuple(candidate.decisions),
                recon_error=recon_err,
                dofs=_interval_dofs(p, cfg.scheme, r),
            )
        )
        tol *= delta
        tol_trace.append(tol)
        prev_estimate = estimate
        t = iv.t_end
        k = iv.k
        u_left = candidate.output.u(iv.t_end)

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

