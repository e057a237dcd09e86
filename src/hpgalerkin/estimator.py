"""Per-interval a posteriori error machinery.

For each accepted interval the drivers assemble a ``StepEstimate``:

* ``eta_res``: sup norm of the integral residual of the reconstruction,
  R(t) = int_{t_start}^{t} f(s, uhat) ds - (uhat(t) - uhat(t_start)).
* ``psi``: recursive accumulator, eta_res on the first interval and
  delta_prev * psi_prev + eta_res afterwards.  The state space is all
  of R^d, so no projection term enters between intervals.
* ``delta``: leftmost root > 1 of phi(d) = exp(int lip(s, d*psi +
  |uhat|, |uhat|) ds) - d.  When it exists, delta * psi bounds the sup
  norm of the reconstruction error on the interval; when phi stays
  positive over the whole scan range, no such certificate exists and
  the drivers read that as proximity to blow-up.
* ``delta_hat``: running product of all deltas, the accumulated growth
  factor of the certified bound.

``solve_delta`` runs a finite-difference Newton iteration warm-started
from the previous interval's delta and accepts its root only if phi
changes sign downward across it: phi < 0 at delta*(1 + VERIFY_EPS) and
phi > 0 at delta*(1 - VERIFY_EPS) (or that point lies below 1).  This
local check does not rule out a crossing further left.  When
Newton fails it falls back to a geometric scan plus bisection.  The
scan skips ahead: phi(d) = E(d) - d with the growth E(d) = exp(int
lip(s, d*psi + |uhat|, |uhat|) ds), and E is nondecreasing in d because
the ``Problem`` contract makes lip nondecreasing in its magnitude
arguments, so phi > 0 at every grid point below E(g) of an evaluated
g.  The scan therefore evaluates next the first grid point at or above
E(g); it brackets the same sign change as a scan of every grid point,
and a scan that finds none ends after a few evaluations.

Each ``solve_delta`` holds one ``np.errstate`` for all its envelope
evaluations.  An envelope that overflows, to inf or nan, gives the
growth E = +inf, so phi > 0 there: no certificate at that delta.

The controls of ``solve_delta`` are fixed: Newton stops at
|phi| <= NEWTON_TOL = 1e-10 within MAX_NEWTON = 50 iterations, with
difference step FD_STEP = 1e-7 relative to max(delta, 1); a root is
verified by the sign of phi at a relative offset VERIFY_EPS = 1e-8 on
either side; the scan covers [1, DELTA_MAX = 1e6] at SCAN_POINTS = 200
geometric points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .galerkin import Scheme, _cg_lift, _rule_size, picard_operator
from .poly import Interval, LocalPoly, _linf_sample_points, gauss_legendre
from .problems import NumericOverflow, Problem, lip_at

__all__ = [
    "StepEstimate",
    "DeltaNotFound",
    "residual_estimator",
    "psi_update",
    "solve_delta",
    "reconstruction_error",
]

# Extra Legendre degrees used to resolve the non-polynomial residual
# integrand f(s, uhat); validated against a brute-force oracle in tests.
_RESIDUAL_EXTRA_DEGREE = 4

# solve_delta controls, described in the module docstring
NEWTON_TOL = 1e-10
MAX_NEWTON = 50
FD_STEP = 1e-7
DELTA_MAX = 1e6
SCAN_POINTS = 200
VERIFY_EPS = 1e-8


@dataclass(frozen=True)
class StepEstimate:
    eta_res: float
    psi: float
    delta: float
    bound: float
    delta_hat: float
    effectivity: Optional[float] = None


@dataclass(frozen=True)
class DeltaNotFound:
    """phi stayed positive over the scanned range: no growth certificate.

    min_phi/argmin record where phi came closest to crossing among the
    grid points the scan evaluated (it skips points where phi is known
    to be positive), for diagnosis; this is the blow-up termination
    signal, not an error.
    """

    min_phi: float
    argmin: float


def residual_estimator(p: Problem, u_hat: LocalPoly, u_left: np.ndarray) -> float:
    """Sampled sup norm of the integral residual of the reconstruction.

    The residual is represented as a polynomial by projecting
    f(s, uhat) onto degree deg(uhat) + 4 and integrating from the left
    endpoint -- the cG Picard update at degree deg(uhat) + 5 -- then
    subtracting uhat.
    """
    r_q = u_hat.degree + _RESIDUAL_EXTRA_DEGREE
    u_left = np.atleast_1d(np.asarray(u_left, dtype=float))
    res_coeffs = _cg_lift(p, u_hat, u_left, r_q + 1, _rule_size(r_q))
    res_coeffs[: u_hat.coeffs.shape[0]] -= u_hat.coeffs
    return LocalPoly(u_hat.interval, res_coeffs).linf_norm()


def psi_update(prev: Optional[StepEstimate], eta_res: float) -> float:
    """Recursive estimator update; the first interval has no inherited term."""
    if prev is None:
        return eta_res
    return prev.delta * prev.psi + eta_res


def _growth_factory(
    p: Problem, iv: Interval, u_hat: LocalPoly, psi: float
) -> Callable[[float], float]:
    """Build the growth E(delta) = exp(int_I lip(s, delta*psi + |uhat|, |uhat|) ds)
    with the reconstruction norms precomputed; phi(delta) = E(delta) - delta.

    Overflow in the envelope or the exponential yields +inf, whether it
    shows as a non-finite value or as NumericOverflow or OverflowError
    raised by a scalar lip (which receives Python floats).  The weights w
    are positive, so the exponent dot(w, vals) is finite exactly when
    every envelope value is, unless the sum itself overflows, which also
    means +inf; the caller holds the errstate.
    """
    n = _rule_size(u_hat.degree)
    # Every scheme's operator carries the same node Vandermonde V; the
    # dG one exists for every degree, 0 included.
    op = picard_operator(u_hat.degree, Scheme.DG, n)
    ts = iv.from_reference(op.nodes)
    u_norms = np.sqrt(np.sum((op.V @ u_hat.coeffs) ** 2, axis=1))
    w = 0.5 * iv.k * gauss_legendre(n).weights

    def growth(delta: float) -> float:
        try:
            exponent = float(np.dot(w, lip_at(p, ts, delta * psi + u_norms, u_norms)))
            return math.exp(exponent) if math.isfinite(exponent) else math.inf
        except (NumericOverflow, OverflowError):
            return math.inf

    return growth


def _verified_crossing(phi_of, delta: float) -> bool:
    """Check delta sits on a downward sign change of phi."""
    if not phi_of(delta * (1.0 + VERIFY_EPS)) < 0.0:
        return False
    lower = delta * (1.0 - VERIFY_EPS)
    return lower < 1.0 or phi_of(lower) > 0.0


def solve_delta(
    p: Problem,
    iv: Interval,
    u_hat: LocalPoly,
    psi: float,
    prev_delta: Optional[float] = None,
) -> Union[float, DeltaNotFound]:
    """Leftmost delta > 1 with phi(delta) < 0, or DeltaNotFound.

    Newton with a finite-difference derivative, warm-started near 1 on
    the first interval and at the previous delta afterwards; the result
    is accepted only if phi vanishes within NEWTON_TOL and the point
    verifies as a downward crossing.  Otherwise a geometric scan over
    [1, DELTA_MAX] brackets the first sign change and bisects it.
    """
    # one errstate for every envelope evaluation of the solve; growth
    # reads overflow from its exponent
    with np.errstate(over="ignore", invalid="ignore"):
        growth = _growth_factory(p, iv, u_hat, psi)

        def phi_of(delta: float) -> float:
            return growth(delta) - delta

        phi_at_one = phi_of(1.0)
        if not (phi_at_one >= -1e-12):
            raise ArithmeticError(f"phi(1) = {phi_at_one} < 0; estimator state is inconsistent")

        delta = prev_delta if prev_delta is not None else 1.0 + 1e-6
        delta = min(max(delta, 1.0), DELTA_MAX)
        for _ in range(MAX_NEWTON):
            fv = phi_of(delta)
            if not math.isfinite(fv):
                break
            if abs(fv) <= NEWTON_TOL:
                if _verified_crossing(phi_of, delta):
                    return delta
                break
            h = FD_STEP * max(delta, 1.0)
            dfv = (phi_of(delta + h) - fv) / h
            if not math.isfinite(dfv) or dfv == 0.0:
                break
            new_delta = min(max(delta - fv / dfv, 1.0), DELTA_MAX)
            if new_delta == delta:
                break
            delta = new_delta

        return _scan_and_bisect(growth)


def _scan_and_bisect(growth) -> Union[float, DeltaNotFound]:
    """Bracket the first grid point with phi < 0 and bisect it.

    E is nondecreasing in delta because lip is nondecreasing in its
    magnitude arguments, so every grid point g' < E(g) has phi(g') > 0
    and is skipped: the scan evaluates only the first grid point at or
    above E(g) next, and brackets the same sign change as a full scan.
    """
    grid = np.geomspace(1.0, DELTA_MAX, SCAN_POINTS)
    min_phi, argmin = math.inf, 1.0
    bracket = None
    i = 1
    while i < SCAN_POINTS:
        g = float(grid[i])
        e = growth(g)
        fg = e - g
        if fg < min_phi:
            min_phi, argmin = fg, g
        if fg < 0.0:
            bracket = (float(grid[i - 1]), g)
            break
        # resume at the first grid point >= E(g)
        i = max(i + 1, int(np.searchsorted(grid, e))) if fg > 0.0 else i + 1
    if bracket is None:
        return DeltaNotFound(min_phi=min_phi, argmin=argmin)

    lo, hi = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = growth(mid) - mid
        if abs(fm) <= NEWTON_TOL:
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


def reconstruction_error(p: Problem, u_hat: LocalPoly) -> float:
    """Sampled sup norm of exact(t) - uhat(t) over the interval.

    The samples are those of ``LocalPoly.linf_norm``: uhat is evaluated
    there by one product with the degree's cached Vandermonde matrix.
    ``p.exact`` is called once, on the array ts (n,) of sample times,
    and must return shape (d, n), e.g. ``lambda t: np.exp(t)[None]``
    for u' = u, u(0) = 1; any other shape raises ValueError.
    """
    if p.exact is None:
        raise ValueError(f"problem {p.name!r} has no exact solution")
    iv = u_hat.interval
    xs, V = _linf_sample_points(u_hat.degree)
    ts = iv.from_reference(xs)
    uh = (V @ u_hat.coeffs).T
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
    return math.sqrt(((ex - uh) ** 2).sum(axis=0).max())
