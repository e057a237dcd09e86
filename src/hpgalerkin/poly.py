"""Vector-valued Legendre polynomials on time intervals.

A ``LocalPoly`` stores, for one interval ``(t_start, t_end)``, the
coefficients of a polynomial with values in R^d in the Legendre basis
mapped affinely from the reference interval [-1, 1].  The orthogonality
of the basis gives exact L2 norms (Parseval), cheap projections, and
stable evaluation at high degree.

``basis(r)`` caches, once per degree r, two Gauss-Legendre rules, the
Picard step's and the residual's, and the matrices the solver evaluates
a degree-r polynomial with, and no others.  ``Basis`` states the rule
sizes and the degree cap ``MAX_DEGREE``, for the whole package.

The package's numeric primitives live here too, so that each has one
definition: ``_norms`` gives the Euclidean norm of every point of an
array of values, overflow-safe (``_sup_norm`` takes their largest and
``estimator`` the node norms of its growth integral), ``_all_finite``
is the one finite test of a coefficient array, ``_time_map`` maps a
rule's reference offsets into an interval, and ``_cg_lift`` is the one
cG lift of node values of f, behind both ``galerkin.reconstruct`` and
``estimator.residual_estimator``.

The one-component rule, stated here only.  For values with one
component (d = 1, as for ``power2``, ``exp`` and a scalar ``linear``)
``_norms`` returns |x| and ``_sup_norm`` the largest |x|, squaring
nothing.  These are the bits of the general formula: in binary64 with
round-to-nearest, sqrt(x x) = |x| wherever x x neither overflows nor
underflows, and the scaled fallback, which takes every other value,
returns |x| as well.  A nan stays a nan; only its sign bit may differ,
which no caller reads.

The ``LocalPoly`` constructor copies its coefficients, checks that they
are finite (``_all_finite``) and makes the copy read-only.
``LocalPoly._trusted`` skips the copy and the check for an array the
caller owns and has already proven finite: it makes that array itself
read-only and wraps it, so the caller must not write to it afterwards.
The solver uses it for the Picard iterates that passed its overflow
test, for the lift inside ``galerkin.reconstruct`` and for the residual
inside ``estimator.residual_estimator``; everything else, the caller's
own arrays included, goes through the constructor.

The errstate rule, stated here only.  The solver reads overflow from
values it computes anyway, an inf or nan in a sum or a coefficient
array, never from a floating-point warning, so it runs with over and
invalid ignored.  f and lip are evaluated as given and leave the error
state alone (``problems.rhs_at``).  A march holds one ``np.errstate``
with that setting around its whole loop (``_marching``, entered by
``adapt._drive``).  Every numeric callee, the Picard sweep,
``reconstruct``, ``residual_estimator``, ``solve_delta``,
``reconstruction_error`` and ``LocalPoly.linf_norm``, enters the same
setting through ``_quiet()``, which returns a shared null context while
a march holds its errstate, so that on a march the callee runs under
the march's, and ``np.errstate`` otherwise, so that a direct call holds
its own.  The flag is a ``contextvars.ContextVar``, local to its thread
and context as numpy's errstate is, so a march in one thread leaves a
direct call in another to its own errstate.  The helpers that take no
errstate of their own (``_cg_lift``, ``_sup_norm``, ``_norms`` and the
drivers' guesses) run under their caller's.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as _leg

__all__ = ["Interval", "LocalPoly"]

# Sampling density for sup-norm estimation: 24*(degree+2) Chebyshev
# points plus the two endpoints.  At this density the sampled value
# stays within 0.1% of a 10x denser grid on random degree-8 inputs.
_LINF_SAMPLES_PER_DEGREE = 24

# The rule sizes and the degree cap (``Basis``)
_STEP_EXTRA_POINTS = 1
_RESIDUAL_EXTRA_POINTS = 7
_MAX_QUAD_POINTS = 64
MAX_DEGREE = 58

# The smallest normal double: a square sum below it has lost bits.
_TINY = sys.float_info.min

# Set while a march holds its errstate (``_marching``); read by ``_quiet``.
_MARCHING = contextvars.ContextVar("hpgalerkin_marching", default=False)
_HELD = contextlib.nullcontext()


def _quiet():
    """The errstate of the solver, over and invalid ignored, or a shared
    null context while a march holds it (module docstring)."""
    return _HELD if _MARCHING.get() else np.errstate(over="ignore", invalid="ignore")


@contextlib.contextmanager
def _marching():
    """The errstate of a march (``_quiet``).  While it is held, the flag
    is set, in this context only, and every ``_quiet`` returns the null
    context; every exit unsets it, an exception's included."""
    with _quiet():
        token = _MARCHING.set(True)
        try:
            yield
        finally:
            _MARCHING.reset(token)


@dataclass(frozen=True)
class Interval:
    """Open time interval (t_start, t_end) with positive, finite length.

    ``k``, the length t_end - t_start, is computed once, at
    construction, and stored; it takes no part in equality, hashing or
    repr, which read the two endpoints only.
    """

    t_start: float
    t_end: float
    k: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("interval endpoints must be finite")
        if not self.t_end > self.t_start:
            raise ValueError(
                f"interval must have positive length, got ({self.t_start}, {self.t_end})"
            )
        k = self.t_end - self.t_start
        if not math.isfinite(k):
            raise ValueError(f"interval length overflows, got ({self.t_start}, {self.t_end})")
        object.__setattr__(self, "k", k)

    def to_reference(self, t):
        """Map time(s) t in [t_start, t_end] to x in [-1, 1].

        Anchored at t_start so both endpoints map exactly even when
        k is many orders of magnitude smaller than the times.
        """
        return 2.0 * (t - self.t_start) / self.k - 1.0

    def from_reference(self, x):
        """Map reference coordinate(s) x in [-1, 1] to time."""
        return _time_map(self.t_start, self.k, x + 1.0)


def _time_map(t_start: float, k: float, offsets):
    """Times t_start + 0.5 k (x + 1) of the reference offsets x + 1.

    The one formula of the time map: ``Interval.from_reference`` forms
    the offsets itself, the solver passes a basis's cached
    ``Basis.step_offsets`` or ``Basis.res_offsets``.  0.5 k is formed
    first, so the product rounds as the map always has.
    """
    return t_start + 0.5 * k * offsets


class LocalPoly:
    """Polynomial of degree r on one interval with values in R^d.

    Coefficients are stored as an array of shape (r+1, d); row i holds the
    coefficient vector of the i-th mapped Legendre polynomial.
    """

    __slots__ = ("interval", "coeffs")

    def __init__(self, interval: Interval, coeffs: np.ndarray):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None]
        if coeffs.ndim != 2 or coeffs.shape[0] < 1 or coeffs.shape[1] < 1:
            raise ValueError("coeffs must have shape (r+1, d)")
        if not _all_finite(coeffs):
            raise ValueError("coefficients must be finite")
        coeffs.flags.writeable = False
        self.interval = interval
        self.coeffs = coeffs

    @classmethod
    def _trusted(cls, interval: Interval, coeffs: np.ndarray) -> "LocalPoly":
        """Wrap coeffs without the copy and the finite test of ``__init__``.

        The caller must own coeffs, a float array of shape (r+1, d) that
        it has proven finite, and must not write to it afterwards: the
        array itself is made read-only and becomes ``self.coeffs``.
        """
        coeffs.flags.writeable = False
        obj = cls.__new__(cls)
        obj.interval = interval
        obj.coeffs = coeffs
        return obj

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, t) -> np.ndarray:
        """Evaluate at time(s) t within the closed interval.

        Returns shape (d,) for scalar t, (d, len(t)) for array t.
        """
        x = self.interval.to_reference(np.asarray(t, dtype=float))
        # Tolerate endpoint roundoff from accumulated time arithmetic.
        slack = 4.0 * np.finfo(float).eps
        if np.any(np.abs(x) > 1.0 + slack):
            raise ValueError(
                f"evaluation time {t} outside closed interval "
                f"[{self.interval.t_start}, {self.interval.t_end}]"
            )
        x = np.clip(x, -1.0, 1.0)
        return _leg.legval(x, self.coeffs)

    def linf_norm(self) -> float:
        """Sampled sup over the interval of the pointwise Euclidean norm.

        The samples are the degree's ``basis(r).samples``, evaluated by
        one product with their cached Vandermonde matrix, and measured by
        ``_sup_norm``, so the norm is finite wherever it is a double.
        A norm past double range reads inf, which the callers handle,
        without a warning (``_quiet``); a direct call ignores invalid as
        well as over, as a call on a march does.
        """
        with _quiet():
            return _sup_norm(np.dot(basis(self.degree).samples_V, self.coeffs), 1)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite, tested as a Python list."""
    return all(map(math.isfinite, a.ravel().tolist()))


def _cg_lift(k: float, u_left: np.ndarray, lift: np.ndarray, f_vals: np.ndarray) -> np.ndarray:
    """Coefficients (q+2, d) of one cG Picard update at degree q+1 on an
    interval of length k: left value u_left and derivative the degree q
    projection of the node values f_vals, lifted by the ``lift`` (q+2, n)
    of a rule of ``Basis``.

    A coefficient is not finite whenever an f value is not, since each
    coefficient of lift @ f involves every node value of f, or when the
    lift itself overflows; the callers test the array they return, once,
    under their errstate.
    """
    coeffs = k * np.dot(lift, f_vals)
    coeffs[0] += u_left
    return coeffs


def _sup_norm(vals: np.ndarray, axis: int) -> float:
    """Largest Euclidean norm along ``axis`` of vals: from the plain
    square sums when the largest is a normal double, otherwise, and for
    one component (module docstring), the largest of ``_norms``."""
    if vals.shape[axis] > 1:
        sq = np.maximum.reduce(np.add.reduce(vals * vals, axis))
        if _TINY <= sq < math.inf:
            return math.sqrt(sq)
    return float(np.maximum.reduce(_norms(vals, axis)))


def _norms(vals: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean norm along ``axis`` of every point of vals.

    From the plain square sums when every sum is a normal double;
    otherwise (a square overflowed or underflowed, or a point is 0) each
    point's values are squared scaled by the power of two of their
    largest magnitude, which rounds nothing, and its norm is scaled
    back.  So a norm is finite wherever it is a double, and inf past the
    largest one.  For one component the norm is |x| (module docstring).
    """
    if vals.shape[axis] == 1:
        return np.abs(vals.ravel())
    sq = np.add.reduce(vals * vals, axis)
    # a list is the cheapest way to the min and max of a few values
    listed = sq.tolist()
    if _TINY <= min(listed) and max(listed) < math.inf:
        return np.sqrt(sq)
    e = np.frexp(np.maximum.reduce(np.abs(vals), axis, keepdims=True))[1]
    return np.ldexp(np.sqrt(np.add.reduce(np.ldexp(vals, -e) ** 2, axis)), np.squeeze(e, axis))


@dataclass(frozen=True)
class Basis:
    """The Legendre basis of degree r with its two Gauss-Legendre rules;
    every array is read-only.

    samples (m,), samples_V (m, r+1): the sup-norm sample points,
    24 (r+2) Chebyshev points plus the two endpoints, and their
    Vandermonde.
    step_offsets (s,), step_V (s, r+1), step_proj (r+1, s), step_lift
    (r+2, s): the Picard step's rule of s = min(r + 1, 64) points.  The
    offsets are its nodes + 1, the reference offsets of the time map:
    the nodes of an interval are ``_time_map(t_start, k, step_offsets)``,
    bit for bit ``from_reference(nodes)``; step_V @ c is the (s, d)
    array of values of the coefficient array c (r+1, d) at the nodes.
    The rule has the fewest points whose projection reproduces
    degree r exactly (exact for integrands of degree 2r + 1, so for f
    of degree r + 1 against every P_i, i <= r); its quadrature L2
    projection onto degree r, row i (2i+1)/2 w_q P_i(x_q), so
    step_proj @ step_V c = c; and its lift, the antiderivative from
    x = -1 of step_proj per unit step length (the reference map
    contributes k/2): k step_lift @ f are the coefficients of the
    degree r+1 integral of the projected node values f, zero at the left
    endpoint.  The step iterates on it and the reconstruction lifts the
    step's node values with step_lift; the estimator integrates on the
    residual's rule.
    res_offsets (n,), res_V (n, r+1), res_proj (q+1, n), res_lift
    (q+2, n): offsets, V, proj and lift for the residual's rule of
    n = min(r + 7, 64) points, with q = n - 1, so that res_proj
    interpolates the node values: the residual of a degree-r
    reconstruction integrates f on it at degree q = min(r + 6, 63),
    and the drivers form every first Picard iterate from the same node
    values (``galerkin.SchemeOperator``).  The estimator's growth
    integral runs on it too, with the Gauss weights 2 res_proj[0].

    The sizes are ``_STEP_EXTRA_POINTS`` = 1 and
    ``_RESIDUAL_EXTRA_POINTS`` = 7 points beyond the degree served, up
    to ``_MAX_QUAD_POINTS`` = 64.  Step degrees stop at MAX_DEGREE = 58:
    the reconstruction of a step is one degree higher, and at degree 59
    the 64 points of the largest rule still interpolate its residual at
    degree 63 = deg + 4.
    """

    samples: np.ndarray
    samples_V: np.ndarray
    step_offsets: np.ndarray
    step_V: np.ndarray
    step_proj: np.ndarray
    step_lift: np.ndarray
    res_offsets: np.ndarray
    res_V: np.ndarray
    res_proj: np.ndarray
    res_lift: np.ndarray


def _rule(n: int, r: int, q: int) -> tuple[np.ndarray, ...]:
    """The n-point Gauss-Legendre rule's offsets (nodes + 1), its
    Vandermonde (n, r+1), quadrature L2 projection (q+1, n) onto degree
    q, and lift (q+2, n), the antiderivative of that projection."""
    nodes, weights = _leg.leggauss(n)
    V = _leg.legvander(nodes, r)
    Vq = V if q == r else _leg.legvander(nodes, q)
    proj = (np.arange(q + 1) + 0.5)[:, None] * (Vq.T * weights)
    lift = _leg.legint(np.eye(q + 1), m=1, k=[0.0], lbnd=-1.0, scl=0.5, axis=0) @ proj
    return nodes + 1.0, V, proj, lift


@lru_cache(maxsize=None)
def basis(r: int) -> Basis:
    """The cached ``Basis`` of degree r >= 0."""
    m = _LINF_SAMPLES_PER_DEGREE * (r + 2)
    cheb = np.cos(np.pi * (2.0 * np.arange(m) + 1.0) / (2.0 * m))
    samples = np.concatenate(([-1.0], cheb[::-1], [1.0]))
    samples_V = _leg.legvander(samples, r)
    step = _rule(min(r + _STEP_EXTRA_POINTS, _MAX_QUAD_POINTS), r, r)
    n = min(r + _RESIDUAL_EXTRA_POINTS, _MAX_QUAD_POINTS)
    res = _rule(n, r, n - 1)
    arrays = (samples, samples_V, *step, *res)
    for arr in arrays:
        arr.flags.writeable = False
    return Basis(*arrays)
