"""Per-interval a posteriori error machinery.

For each accepted interval the drivers assemble a ``StepEstimate``:

* ``eta_res``: sup norm of the integral residual of the reconstruction,
  R(t) = int_{t_start}^{t} f(s, uhat) ds - (uhat(t) - uhat(t_start)).
* ``eta_proj``: distance of the nodal value to the next trial space.
  The state space here is all of R^d, so it is identically zero; the
  term is kept so the psi recursion stays term-for-term intact.
* ``psi``: recursive accumulator, eta_proj + eta_res on the first
  interval and delta_prev * psi_prev + eta_proj + eta_res afterwards.
* ``delta``: leftmost root > 1 of phi(d) = exp(int lip(s, d*psi +
  |uhat|, |uhat|) ds) - d.  When it exists, delta * psi bounds the sup
  norm of the reconstruction error on the interval; when phi stays
  positive over the whole scan range, no such certificate exists and
  the drivers read that as proximity to blow-up.
* ``delta_hat``: running product of all deltas, the accumulated growth
  factor of the certified bound.

``solve_delta`` runs a finite-difference Newton iteration warm-started
from the previous interval's delta, verifies it landed on the leftmost
downward crossing, and falls back to a geometric scan plus bisection
when Newton fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .galerkin import Scheme, picard_operator
from .poly import Interval, LocalPoly, QuadRule, _linf_sample_points, gauss_legendre
from .problems import NumericOverflow, Problem, lip_at, rhs_at

__all__ = [
    "StepEstimate",
    "DeltaSolverConfig",
    "DeltaNotFound",
    "residual_estimator",
    "projection_estimator",
    "psi_update",
    "phi",
    "solve_delta",
    "error_bound",
    "reconstruction_error",
    "effectivity",
]

# Extra Legendre degrees used to resolve the non-polynomial residual
# integrand f(s, uhat); validated against a brute-force oracle in tests.
_RESIDUAL_EXTRA_DEGREE = 4


@dataclass(frozen=True)
class StepEstimate:
    eta_res: float
    eta_proj: float
    psi: float
    delta: Optional[float]
    bound: Optional[float]
    delta_hat: float
    effectivity: Optional[float] = None


@dataclass(frozen=True)
class DeltaSolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 50
    fd_step: float = 1e-7
    delta_max: float = 1e6
    scan_points: int = 200
    verify_eps: float = 1e-8

    def __post_init__(self):
        if not all(
            v > 0
            for v in (
                self.newton_tol,
                self.max_newton,
                self.fd_step,
                self.delta_max,
                self.scan_points,
                self.verify_eps,
            )
        ):
            raise ValueError("delta solver configuration values must be positive")


@dataclass(frozen=True)
class DeltaNotFound:
    """phi stayed positive over the scanned range: no growth certificate.

    min_phi/argmin record where phi came closest to crossing, for
    diagnosis; this is the blow-up termination signal, not an error.
    """

    min_phi: float
    argmin: float


def residual_estimator(
    p: Problem, u_hat: LocalPoly, u_left: np.ndarray, quad: QuadRule | None = None
) -> float:
    """Sampled sup norm of the integral residual of the reconstruction.

    The residual is represented as a polynomial by projecting
    f(s, uhat) onto degree deg(uhat) + 4 and integrating from the left
    endpoint -- the cG Picard update at degree deg(uhat) + 5 -- then
    subtracting uhat.
    """
    iv = u_hat.interval
    r_q = u_hat.degree + _RESIDUAL_EXTRA_DEGREE
    if quad is None:
        quad = gauss_legendre(min(r_q + 6, 64))
    op = picard_operator(r_q + 1, Scheme.CG, quad)
    m = u_hat.coeffs.shape[0]
    f_vals = rhs_at(p, iv.from_reference(quad.nodes), op.V[:, :m] @ u_hat.coeffs)
    res_coeffs = op.apply(np.atleast_1d(np.asarray(u_left, dtype=float)), iv.k, f_vals)
    res_coeffs[:m] -= u_hat.coeffs
    return LocalPoly(iv, res_coeffs).linf_norm()


def projection_estimator(u_right_minus: np.ndarray, projector=None) -> float:
    """Distance of a nodal value to the next interval's state space.

    With the identity projector used throughout this package the result
    is 0; a non-trivial projector yields ||v - P v||.
    """
    v = np.atleast_1d(np.asarray(u_right_minus, dtype=float))
    if projector is None:
        return 0.0
    return float(np.linalg.norm(v - projector(v)))


def psi_update(prev: Optional[StepEstimate], eta_proj_prev: float, eta_res: float) -> float:
    """Recursive estimator update; the first interval has no inherited term."""
    if prev is None:
        return eta_proj_prev + eta_res
    if prev.delta is None:
        raise ValueError("previous estimate has no delta; interval was never certified")
    return prev.delta * prev.psi + eta_proj_prev + eta_res


def _phi_factory(
    p: Problem,
    iv: Interval,
    u_hat: LocalPoly,
    psi: float,
    quad: QuadRule | None,
) -> Callable[[float], float]:
    """Build phi(delta) with the reconstruction norms precomputed."""
    if quad is None:
        quad = gauss_legendre(min(u_hat.degree + 6, 64))
    ts = iv.from_reference(quad.nodes)
    u_norms = np.sqrt(np.sum(u_hat.at_reference(quad.nodes) ** 2, axis=0))
    w = 0.5 * iv.k * quad.weights

    def phi_of(delta: float) -> float:
        try:
            vals = lip_at(p, ts, delta * psi + u_norms, u_norms)
        except NumericOverflow:
            return math.inf
        try:
            return math.exp(float(np.dot(w, vals))) - delta
        except OverflowError:
            return math.inf

    return phi_of


def phi(
    p: Problem,
    iv: Interval,
    u_hat: LocalPoly,
    psi: float,
    delta: float,
    quad: QuadRule | None = None,
) -> float:
    """exp(int_I lip(s, delta*psi + |uhat|, |uhat|) ds) - delta.

    Overflow in the envelope or the exponential yields +inf.
    """
    if delta < 1.0:
        raise ValueError(f"phi is defined for delta >= 1, got {delta}")
    return _phi_factory(p, iv, u_hat, psi, quad)(delta)


def _verified_crossing(phi_of, delta: float, eps: float) -> bool:
    """Check delta sits on a downward sign change of phi."""
    if not phi_of(delta * (1.0 + eps)) < 0.0:
        return False
    lower = delta * (1.0 - eps)
    return lower < 1.0 or phi_of(lower) > 0.0


def solve_delta(
    p: Problem,
    iv: Interval,
    u_hat: LocalPoly,
    psi: float,
    prev_delta: Optional[float] = None,
    cfg: DeltaSolverConfig = DeltaSolverConfig(),
    quad: QuadRule | None = None,
) -> Union[float, DeltaNotFound]:
    """Leftmost delta > 1 with phi(delta) < 0, or DeltaNotFound.

    Newton with a finite-difference derivative, warm-started near 1 on
    the first interval and at the previous delta afterwards; the result
    is accepted only if phi vanishes within newton_tol and the point
    verifies as a downward crossing.  Otherwise a geometric scan over
    [1, delta_max] brackets the first sign change and bisects it.
    """
    phi_of = _phi_factory(p, iv, u_hat, psi, quad)
    phi_at_one = phi_of(1.0)
    if not (phi_at_one >= -1e-12):
        raise ArithmeticError(f"phi(1) = {phi_at_one} < 0; estimator state is inconsistent")

    delta = prev_delta if prev_delta is not None else 1.0 + 1e-6
    delta = min(max(delta, 1.0), cfg.delta_max)
    for _ in range(cfg.max_newton):
        fv = phi_of(delta)
        if not math.isfinite(fv):
            break
        if abs(fv) <= cfg.newton_tol:
            if _verified_crossing(phi_of, delta, cfg.verify_eps):
                return delta
            break
        h = cfg.fd_step * max(delta, 1.0)
        dfv = (phi_of(delta + h) - fv) / h
        if not math.isfinite(dfv) or dfv == 0.0:
            break
        new_delta = min(max(delta - fv / dfv, 1.0), cfg.delta_max)
        if new_delta == delta:
            break
        delta = new_delta

    return _scan_and_bisect(phi_of, cfg)


def _scan_and_bisect(phi_of, cfg: DeltaSolverConfig) -> Union[float, DeltaNotFound]:
    grid = np.geomspace(1.0, cfg.delta_max, cfg.scan_points)
    min_phi, argmin = math.inf, 1.0
    lo = 1.0
    bracket = None
    for g in grid[1:]:
        fg = phi_of(g)
        if fg < min_phi:
            min_phi, argmin = fg, float(g)
        if fg < 0.0:
            bracket = (lo, float(g))
            break
        lo = float(g)
    if bracket is None:
        return DeltaNotFound(min_phi=min_phi, argmin=argmin)

    lo, hi = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = phi_of(mid)
        if abs(fm) <= cfg.newton_tol:
            return mid
        if fm < 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 4.0 * np.finfo(float).eps * hi:
            break
    # phi is too steep to pin |phi| below tol in double precision; the
    # bracket still certifies the crossing.
    return hi


def error_bound(delta: float, psi: float, reconstruction_gap: float = 0.0) -> float:
    """Certified sup-norm bound delta*psi, plus the solution-to-
    reconstruction gap when bounding the error of U itself."""
    if delta < 1.0:
        raise ValueError(f"growth factor must be >= 1, got {delta}")
    return delta * psi + reconstruction_gap


def reconstruction_error(p: Problem, u_hat: LocalPoly) -> float:
    """Sampled sup norm of exact(t) - uhat(t) over the interval.

    ``p.exact`` is called once, on the array ts (n,) of sample times,
    and must return shape (d, n), e.g. ``lambda t: np.exp(t)[None]``
    for u' = u, u(0) = 1; any other shape raises ValueError.
    """
    if p.exact is None:
        raise ValueError(f"problem {p.name!r} has no exact solution")
    iv = u_hat.interval
    xs = _linf_sample_points(u_hat.degree)
    ts = iv.from_reference(xs)
    uh = u_hat.at_reference(xs)
    try:
        ex = np.asarray(p.exact(ts), dtype=float)
    except TypeError as exc:
        raise ValueError(
            f"exact must map times of shape {ts.shape} to shape {uh.shape}: {exc}"
        ) from exc
    if ex.shape != uh.shape:
        raise ValueError(
            f"exact returned shape {ex.shape} for times of shape {ts.shape}, "
            f"expected (d, n) = {uh.shape}"
        )
    return float(np.max(np.sqrt(np.sum((ex - uh) ** 2, axis=0))))


def effectivity(bound: float, p: Problem, reconstructions: Sequence[LocalPoly]) -> float:
    """bound / max over the given reconstructions of the true sup error.

    A zero denominator (exactly reproduced solution) reports +inf.
    """
    if p.exact is None:
        raise ValueError(f"problem {p.name!r} has no exact solution")
    worst = max(reconstruction_error(p, u_hat) for u_hat in reconstructions)
    if worst == 0.0:
        return math.inf
    return bound / worst
