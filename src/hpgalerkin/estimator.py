"""Per-interval a posteriori error machinery.

For each accepted interval the drivers assemble a ``StepEstimate``:

* ``eta_res``: sup norm of the integral residual of the reconstruction,
  R(t) = int_{t_start}^{t} f(s, uhat) ds - (uhat(t) - uhat(t_start)).
  The integral interpolates f(s, uhat) on the residual's Gauss-Legendre
  rule of ``poly.basis(deg)``, deg the reconstruction's degree; the
  drivers evaluate those node values once per candidate
  (``_residual_f_vals``), pass them in, and form the next attempt's
  first Picard iterate from them (``galerkin.SchemeOperator``).  The
  sampled sup of that residual polynomial is scaled by the
  Ehlich-Zeller factor of its samples (``poly.Basis.sup_factor``), and
  the interpolant's own estimate of what it drops, from its top two
  coefficients, is added (``residual_estimator``).  The delta solve
  integrates lip on a rule of its own, the growth rule, whose nodes it
  forms itself, so only for an accepted candidate (``_growth_factory``).
* ``psi``: recursive accumulator, eta_res on the first interval and
  delta_prev * psi_prev + eta_res afterwards.  The state space is all
  of R^d, so no projection term enters between intervals.
* ``delta``: leftmost root > 1 of phi(d) = exp(int lip(s, d*psi +
  |uhat|, |uhat|) ds) - d.  When it exists, delta * psi bounds the sup
  norm of the reconstruction error on the interval; when phi stays
  positive over the whole search range, no such certificate exists and
  the drivers read that as proximity to blow-up.
* ``delta_hat``: running product of all deltas, the accumulated growth
  factor of the certified bound.

``solve_delta`` finds delta in one bracketed loop, described in its
docstring.  phi(d) = E(d) - d with the growth E(d) = exp(int lip(s,
d*psi + |uhat|, |uhat|) ds).  E is nondecreasing in d because the
``Problem`` contract makes lip nondecreasing in its magnitude
arguments, so no root above a point lo lies below E(lo).  The returned
delta has phi(delta) < 0, the condition under which delta * psi is a
bound.

``residual_estimator``, ``solve_delta`` and ``reconstruction_error``
each hold one errstate (``poly._quiet``, the errstate rule of
``poly``).  An envelope that overflows, to inf or nan, gives the growth
E = +inf, so phi > 0 there: no certificate at that delta.

The controls of ``solve_delta`` are fixed: it stops at |phi| <= PHI_TOL
= 1e-10 or at a bracket 4 ulp wide within [1, DELTA_MAX = 1e6], and its
scan step SCAN_RATIO = DELTA_MAX ** (1/199) is the ratio of a 200-point
geometric grid over that range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .poly import Interval, LocalPoly, _all_finite, _cg_lift, _norms, _quiet, _sup_norm
from .poly import _time_map, basis
from .problems import NumericOverflow, Problem, lip_at, rhs_at

__all__ = [
    "StepEstimate",
    "DeltaNotFound",
    "residual_estimator",
    "psi_update",
    "solve_delta",
    "reconstruction_error",
]

# solve_delta controls, described in the module docstring
PHI_TOL = 1e-10
DELTA_MAX = 1e6
SCAN_RATIO = DELTA_MAX ** (1.0 / 199)
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class StepEstimate:
    eta_res: float
    psi: float
    delta: float
    bound: float
    delta_hat: float


@dataclass(frozen=True)
class DeltaNotFound:
    """phi showed no sign change on [1, DELTA_MAX]: no growth certificate.

    min_phi/argmin record where phi came closest to crossing among the
    points the solve evaluated (it skips points where phi is known to be
    positive), for diagnosis; this is the blow-up termination signal,
    not an error.
    """

    min_phi: float
    argmin: float


def residual_estimator(
    p: Problem, u_hat: LocalPoly, u_left: np.ndarray, f_vals: np.ndarray
) -> float:
    """Sup norm of the integral residual of the reconstruction, bounded
    from its samples, plus the interpolant's estimate of what it drops.

    The residual is represented as a polynomial by interpolating
    f(s, uhat) on the n = deg + 4 points (at most 64) of the residual's
    rule of ``basis(deg)``, deg = deg(uhat), so at degree q = n - 1, and
    integrating from the left endpoint -- the cG Picard update at degree
    n -- then subtracting uhat.
    ``f_vals`` (n, d) are those node values, normally from
    ``_residual_f_vals``: they are lifted as they are and no f is
    evaluated.

    eta_res = c sup + tail.  sup is the residual polynomial's sampled
    sup, on the samples of ``LocalPoly.linf_norm`` and by its product and
    norm, and c the Ehlich-Zeller factor of its
    samples (``poly.Basis.sup_factor``), so c sup bounds the sup of that
    polynomial between its samples as well.  tail = k (|F_{q-1}| /
    (2q - 1) + |F_q| / (2q + 1)), with F_j row j of res_proj @ f_vals,
    the interpolant's top two Legendre coefficients: 2 / (2j + 1) bounds
    the antiderivative of P_j from -1, and the map contributes k / 2.
    It estimates what the interpolant leaves out of f, as the
    Clenshaw-Curtis and Gauss-Kronrod error estimates do (Piessens et
    al., QUADPACK, 1983); it is an estimate, not a bound.  The lift's
    last two rows (``poly.Basis.res_lift``) give k F_j / (2j + 1) in the
    same product as the residual.  On the benchmark's runs of seeds 1-4,
    eta_res reads at least 0.13% above the residual's sup by a dense
    integral (8 Gauss points on each of 1000 panels;
    ``tests/certificate_audit.py``, ``tests/test_estimator.py``), where
    the sampled sup alone on deg + 7 points read up to 0.055% below it.

    Raises NumericOverflow when the lift or the subtraction leaves
    double range, so that ``adapt`` halves the step as it does for an
    overflowing reconstruction.  One errstate covers the lift, the
    subtraction and the sup (``poly._quiet``), and one finite test, after
    the subtraction, covers both: a non-finite lift coefficient stays
    non-finite when a finite uhat is subtracted.  Otherwise the fresh,
    finite coefficient rows are sampled as they are, with no
    ``LocalPoly`` built around them, and the residual's ``basis`` is
    looked up once, for its samples and its factor.
    """
    # a float array, itself when it is one; += broadcasts it into row 0
    u_left = np.asarray(u_left, dtype=float)
    iv = u_hat.interval
    with _quiet():
        lifted = _cg_lift(iv.k, u_left, basis(u_hat.degree).res_lift, f_vals)
        lifted[: u_hat.coeffs.shape[0]] -= u_hat.coeffs
        if not _all_finite(lifted):
            raise NumericOverflow(f"residual of problem {p.name!r} overflowed")
        b = basis(lifted.shape[0] - 3)  # of the residual, rows :-2
        top, last = lifted[-2:].tolist()
        sup = _sup_norm(np.dot(b.samples_V, lifted[:-2]), 1) * b.sup_factor[len(top) > 1]
    return sup + (math.hypot(*top) + math.hypot(*last))


def _residual_f_vals(p: Problem, u_hat: LocalPoly) -> np.ndarray:
    """f at the nodes of the residual's rule of ``basis(deg(uhat))`` on
    u_hat's interval, (n, d) as f gives them, which
    ``residual_estimator`` integrates."""
    b, iv = basis(u_hat.degree), u_hat.interval
    return rhs_at(p, _time_map(iv.t_start, iv.k, b.res_offsets), np.dot(b.res_V, u_hat.coeffs))


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

    The integral runs on the g nodes of the growth rule of
    ``basis(deg(uhat))`` (exact for lip of degree 2g - 1 in s), with the
    weights k grow_w = k w_q / 2.
    Overflow in the envelope or the exponential yields +inf, whether it
    shows as a non-finite value or as NumericOverflow or OverflowError
    raised by a scalar lip (which receives Python floats).  The weights w
    are positive, so the exponent dot(w, vals) is finite exactly when
    every envelope value is, unless the sum itself overflows, which also
    means +inf.  The node norms |uhat| are ``poly._norms`` of the node
    values, finite wherever those are.
    """
    b = basis(u_hat.degree)
    ts = _time_map(iv.t_start, iv.k, b.grow_offsets)
    u_norms = _norms(np.dot(b.grow_V, u_hat.coeffs), 1)
    w = iv.k * b.grow_w

    def growth(delta: float) -> float:
        try:
            exponent = float(np.dot(w, lip_at(p, ts, delta * psi + u_norms, u_norms)))
            return math.exp(exponent) if math.isfinite(exponent) else math.inf
        except (NumericOverflow, OverflowError):
            return math.inf

    return growth


def _secant_root(x0: float, f0: float, x1: float, f1: float) -> float:
    """Where the line through (x0, f0) and (x1, f1) reaches -4 eps x1, a
    few roundoffs below 0, so that a step onto the root of a straight phi
    lands where phi < 0; nan where the line is flat."""
    if f1 == f0 or not math.isfinite(f1 - f0):
        return math.nan
    return x1 - (f1 + 4.0 * _EPS * x1) * (x1 - x0) / (f1 - f0)


def solve_delta(
    p: Problem,
    iv: Interval,
    u_hat: LocalPoly,
    psi: float,
    prev_delta: Optional[float] = None,
) -> Union[float, DeltaNotFound]:
    """Leftmost delta > 1 with phi(delta) < 0, or DeltaNotFound.

    The loop keeps lo, with phi(lo) >= 0 (1 at first); floor =
    max(E(lo), the float after lo), as phi >= 0 on [lo, floor); and hi,
    the last point with phi(hi) < 0.  It starts at max(prev_delta,
    E(1)).  Each next point is s, the secant root (``_secant_root``)
    through the last two points, at least floor:

    * without hi, a probe goes to s when s > lo and the last point
      moved lo (twice as far from lo after a scan step: a secant through
      two points with phi >= 0 falls short of the root of a convex
      phi); otherwise, and after every probe that found phi >= 0, a
      scan step goes to max(floor, lo * SCAN_RATIO);
    * with hi, the step goes to s, or to the midpoint of [lo, hi] when
      s >= hi or the last secant step did not halve hi - lo, and never
      past max(floor, lo * SCAN_RATIO).

    A point with phi >= 0 becomes lo only up to max(floor, lo *
    SCAN_RATIO), so no sign change is passed over by more than one scan
    step.  The loop returns hi, a float, once |phi(hi)| <= PHI_TOL or
    hi - floor <= 4 eps hi, and DeltaNotFound, with min_phi/argmin over
    the points evaluated, once floor > DELTA_MAX.

    It ends without a budget.  A scan step that finds phi >= 0
    multiplies lo by SCAN_RATIO, at most 200 times below DELTA_MAX, and
    follows at most one probe.  With hi, a bisection halves hi - lo (at
    most 70 times from 1e6 to 4 eps) or is such a scan step, and any
    other step is followed by a bisection.  With phi(1) and the first
    point, phi is evaluated at most 2 + (2 * 200 + 2) + (2 * 70 + 1) =
    545 times.
    """
    # one errstate for every envelope evaluation of the solve; growth
    # reads overflow from its exponent
    with _quiet():
        growth = _growth_factory(p, iv, u_hat, psi)
        e_one = growth(1.0)
        if not (e_one - 1.0 >= -1e-12):
            raise ArithmeticError(f"phi(1) = {e_one - 1.0} < 0; estimator state is inconsistent")

        lo, floor, hi = 1.0, max(e_one, math.nextafter(1.0, math.inf)), math.inf
        x_last, f_last = 1.0, e_one - 1.0
        min_phi, argmin = f_last, 1.0
        x = min(max(floor, float(prev_delta or 1.0)), DELTA_MAX)
        step, width = "warm", math.inf
        while True:
            e = growth(x)
            fx = e - x
            if fx < min_phi:
                min_phi, argmin = fx, x
            moved = False
            if fx < 0.0:
                hi = x
                if fx >= -PHI_TOL:
                    return hi
            elif x <= max(floor, lo * SCAN_RATIO):
                lo, floor, moved = x, max(floor, e, math.nextafter(x, math.inf)), True
            if hi == math.inf:
                if floor > DELTA_MAX:
                    return DeltaNotFound(min_phi=min_phi, argmin=argmin)
            elif hi - floor <= 4.0 * _EPS * hi:
                return hi

            s = _secant_root(x_last, f_last, x, fx)
            x_last, f_last = x, fx
            cap = min(max(floor, lo * SCAN_RATIO), DELTA_MAX)
            if hi == math.inf:
                if s > lo and moved and step != "probe":
                    s = max(s, floor)
                    x = min(lo + 2.0 * (s - lo) if step == "scan" else s, DELTA_MAX)
                    step = "probe"
                else:
                    x, step = cap, "scan"
            else:
                s = s if s > floor else floor
                if not s < hi or (step == "secant" and hi - lo > 0.5 * width):
                    s, step = max(0.5 * (lo + hi), floor), "bisect"
                else:
                    step = "secant"
                width = hi - lo
                x = min(s, cap)


def reconstruction_error(p: Problem, u_hat: LocalPoly) -> float:
    """Sampled sup norm of exact(t) - uhat(t) over the interval.

    The samples are those of ``LocalPoly.linf_norm``, and so is the
    norm (``poly._sup_norm``): uhat is evaluated there by one product
    with the degree's cached ``basis(r).samples_V``.  uhat, exact and
    their difference are evaluated under one errstate
    (``poly._quiet``): a value that leaves double range gives inf,
    without a warning.
    ``p.exact`` is called once, on the array ts (n,) of sample times,
    and must return shape (d, n), e.g. ``lambda t: np.exp(t)[None]``
    for u' = u, u(0) = 1; any other shape raises ValueError.
    """
    if p.exact is None:
        raise ValueError(f"problem {p.name!r} has no exact solution")
    b = basis(u_hat.degree)
    ts = u_hat.interval.from_reference(b.samples)
    with _quiet():
        uh = np.dot(b.samples_V, u_hat.coeffs).T
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
        return _sup_norm(ex - uh, 0)
