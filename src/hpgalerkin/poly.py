"""Vector-valued Legendre polynomials on time intervals.

A ``LocalPoly`` stores, for one interval ``(t_start, t_end)``, the
coefficients of a polynomial with values in R^d in the Legendre basis
mapped affinely from the reference interval [-1, 1].  The orthogonality
of the basis gives exact L2 norms (Parseval), cheap projections, and
stable evaluation at high degree.

``basis(r)`` caches, once per degree r, the Gauss-Legendre rule with
min(r + 6, 64) points and every matrix the solver evaluates a degree-r
polynomial with (see ``Basis``), so the rule size is decided here only.
A step needs its r + 6 points, so step degrees stop at MAX_DEGREE = 58.

The ``LocalPoly`` constructor copies its coefficients, checks that they
are finite and makes the copy read-only.  ``LocalPoly._trusted`` skips
the copy and the check for an array the caller owns and has already
proven finite: it makes that array itself read-only and wraps it, so
the caller must not write to it afterwards.  The solver uses it for the
Picard iterates that passed its overflow test, for the lift inside
``galerkin.reconstruct`` and for the residual inside
``estimator.residual_estimator``; everything else, the caller's own
arrays included, goes through the constructor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as _leg

__all__ = [
    "MAX_DEGREE",
    "Basis",
    "Interval",
    "LocalPoly",
    "basis",
]

# Sampling density for sup-norm estimation: 24*(degree+2) Chebyshev
# points plus the two endpoints.  At this density the sampled value
# stays within 0.1% of a 10x denser grid on random degree-8 inputs.
_LINF_SAMPLES_PER_DEGREE = 24

# Every rule carries 6 points beyond the degree it serves, up to 64 points.
_EXTRA_POINTS = 6
_MAX_QUAD_POINTS = 64
MAX_DEGREE = _MAX_QUAD_POINTS - _EXTRA_POINTS

# The smallest normal double: a square sum below it has lost bits.
_TINY = sys.float_info.min


@dataclass(frozen=True)
class Interval:
    """Open time interval (t_start, t_end) with positive length."""

    t_start: float
    t_end: float

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("interval endpoints must be finite")
        if not self.t_end > self.t_start:
            raise ValueError(
                f"interval must have positive length, got ({self.t_start}, {self.t_end})"
            )

    @property
    def k(self) -> float:
        """Interval length t_end - t_start."""
        return self.t_end - self.t_start

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
    ``Basis.offsets``.  0.5 k is formed first, so the product rounds as
    the map always has.
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
        if not np.all(np.isfinite(coeffs)):
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

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

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
        one product with their cached Vandermonde matrix.  When the
        largest square sum is not a normal double (its squares overflowed
        or underflowed) the values are squared again scaled by the power
        of two of their largest magnitude, which rounds nothing, so the
        norm is finite wherever the sampled values are.
        """
        # Divergence probes evaluate wildly growing iterates; an inf here
        # just means "beyond any cap", so don't warn.
        with np.errstate(over="ignore"):
            return _sup_norm(np.dot(basis(self.degree).samples_V, self.coeffs), 1)


def _sup_norm(vals: np.ndarray, axis: int) -> float:
    """Largest Euclidean norm along ``axis`` of vals: from the plain
    square sums when the largest is a normal double, otherwise from
    ``_scaled_sup_norm``.  The caller holds the errstate."""
    sq = np.maximum.reduce(np.add.reduce(vals * vals, axis))
    if _TINY <= sq < math.inf:
        return math.sqrt(sq)
    return _scaled_sup_norm(vals, axis)


def _scaled_sup_norm(vals: np.ndarray, axis: int) -> float:
    """Largest Euclidean norm along ``axis`` of vals, with the values
    squared scaled by the power of two of their largest magnitude.

    The scaling rounds nothing, so the result is finite wherever it is
    a double, and inf past the largest one.
    """
    e = math.frexp(np.abs(vals).max())[1]
    norm = math.sqrt((np.ldexp(vals, -e) ** 2).sum(axis=axis).max())
    try:
        return math.ldexp(norm, e)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Basis:
    """The Legendre basis of degree r with its Gauss-Legendre rules; every
    array is read-only.

    nodes, weights (n,): the rule on [-1, 1], n = min(r + 6, 64).
    offsets (n,): nodes + 1, the reference offsets of the time map: the
    nodes of an interval are ``_time_map(t_start, k, offsets)``, bit for
    bit ``from_reference(nodes)``.
    V (n, r+1): V @ c is the (n, d) array of values of the coefficient
    array c (r+1, d) at the nodes.
    proj (r+1, n): the quadrature L2 projection onto degree r; row i is
    (2i+1)/2 w_q P_i(x_q), so proj @ V c = c while n >= r + 1.
    lift (r+2, n): the antiderivative from x = -1 of proj, per unit step
    length (the reference map contributes k/2): k lift @ f are the
    coefficients of the degree r+1 integral of the projected node values
    f, zero at the left endpoint.
    samples (m,), samples_V (m, r+1): the sup-norm sample points,
    24 (r+2) Chebyshev points plus the two endpoints, and their
    Vandermonde.
    coarse_offsets (m,), coarse_V (m, r+1), coarse_proj (r+1, m): the
    same three arrays for the (r+1)-point Gauss rule (m = min(r + 1,
    64)), the fewest points whose projection still reproduces degree r
    exactly.  The Picard step sweeps on it first when f is evaluated
    point by point.
    first_half (r+1, r+2): first_half @ c is the degree-r projection of
    the degree r+1 polynomial c restricted to the first half of its
    interval (x -> (x - 1) / 2), rounded once; exact for a c of degree
    at most r.
    """

    nodes: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    V: np.ndarray
    proj: np.ndarray
    lift: np.ndarray
    samples: np.ndarray
    samples_V: np.ndarray
    coarse_offsets: np.ndarray
    coarse_V: np.ndarray
    coarse_proj: np.ndarray
    first_half: np.ndarray


def _projection(nodes: np.ndarray, weights: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The Vandermonde (n, r+1) of the rule's nodes and its quadrature L2
    projection (r+1, n) onto degree r."""
    V = _leg.legvander(nodes, r)
    return V, (np.arange(r + 1) + 0.5)[:, None] * (V.T * weights)


@lru_cache(maxsize=None)
def basis(r: int) -> Basis:
    """The cached ``Basis`` of degree r >= 0."""
    nodes, weights = _leg.leggauss(min(r + _EXTRA_POINTS, _MAX_QUAD_POINTS))
    offsets = nodes + 1.0
    V, proj = _projection(nodes, weights, r)
    lift = _leg.legint(np.eye(r + 1), m=1, k=[0.0], lbnd=-1.0, scl=0.5, axis=0) @ proj
    m = _LINF_SAMPLES_PER_DEGREE * (r + 2)
    cheb = np.cos(np.pi * (2.0 * np.arange(m) + 1.0) / (2.0 * m))
    samples = np.concatenate(([-1.0], cheb[::-1], [1.0]))
    samples_V = _leg.legvander(samples, r)
    coarse_nodes, coarse_weights = _leg.leggauss(min(r + 1, _MAX_QUAD_POINTS))
    coarse_offsets = coarse_nodes + 1.0
    coarse_V, coarse_proj = _projection(coarse_nodes, coarse_weights, r)
    first_half = proj @ _leg.legvander(0.5 * (nodes - 1.0), r + 1)
    arrays = (
        nodes, weights, offsets, V, proj, lift, samples, samples_V,
        coarse_offsets, coarse_V, coarse_proj, first_half,
    )
    for arr in arrays:
        arr.flags.writeable = False
    return Basis(*arrays)
