"""Vector-valued Legendre polynomials on time intervals.

A ``LocalPoly`` stores, for one interval ``(t_start, t_end)``, the
coefficients of a polynomial with values in R^d in the Legendre basis
mapped affinely from the reference interval [-1, 1].  The orthogonality
of the basis gives exact L2 norms (Parseval), cheap projections, and
stable evaluation at high degree.

The module also provides Gauss-Legendre quadrature rules and the
quadrature-discrete L2 projection of arbitrary functions onto the
mapped Legendre basis, which together realize every integral needed by
the time-stepping schemes and their error estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import legendre as _leg

__all__ = [
    "Interval",
    "LocalPoly",
    "QuadRule",
    "gauss_legendre",
    "l2_project",
]

# Sampling density for sup-norm estimation: 24*(degree+2) Chebyshev
# points plus the two endpoints.  At this density the sampled value
# stays within 0.1% of a 10x denser grid on random degree-8 inputs.
_LINF_SAMPLES_PER_DEGREE = 24

_MAX_QUAD_POINTS = 64


@dataclass(frozen=True)
class Interval:
    """Open time interval (t_start, t_end) with positive length."""

    t_start: float
    t_end: float

    def __post_init__(self):
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)):
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
        return self.t_start + 0.5 * self.k * (x + 1.0)


@dataclass(frozen=True)
class QuadRule:
    """Quadrature nodes and positive weights on the reference interval [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.nodes.size

    def integrate(self, iv: Interval, values: np.ndarray) -> np.ndarray:
        """Integrate over iv given values sampled at the mapped nodes.

        values has shape (n,) or (n, d); the leading axis matches nodes.
        """
        return 0.5 * iv.k * np.tensordot(self.weights, values, axes=(0, 0))


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadRule:
    """n-point Gauss-Legendre rule on [-1, 1], exact for degree <= 2n-1."""
    if not (1 <= n <= _MAX_QUAD_POINTS):
        raise ValueError(f"quadrature size must be in [1, {_MAX_QUAD_POINTS}], got {n}")
    nodes, weights = _leg.leggauss(n)
    return QuadRule(nodes, weights)


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

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @classmethod
    def constant(cls, interval: Interval, value: np.ndarray, degree: int = 0) -> "LocalPoly":
        """Constant polynomial, optionally padded to a higher degree."""
        value = np.atleast_1d(np.asarray(value, dtype=float))
        coeffs = np.zeros((degree + 1, value.size))
        coeffs[0] = value
        return cls(interval, coeffs)

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

    def at_reference(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at reference coordinates x in [-1, 1]; shape (d, n)."""
        return _leg.legval(x, self.coeffs)

    def derivative(self) -> "LocalPoly":
        """Exact derivative; the reference map contributes a factor 2/k."""
        if self.degree == 0:
            return LocalPoly(self.interval, np.zeros_like(self.coeffs))
        dc = _leg.legder(self.coeffs, axis=0) * (2.0 / self.interval.k)
        return LocalPoly(self.interval, dc)

    def antiderivative(self, left_value: np.ndarray) -> "LocalPoly":
        """Degree r+1 polynomial q with q' = self and q(t_start) = left_value."""
        left_value = np.atleast_1d(np.asarray(left_value, dtype=float))
        if left_value.shape != (self.dim,):
            raise ValueError(f"left_value must have shape ({self.dim},)")
        ic = _leg.legint(self.coeffs, m=1, k=[0.0], lbnd=-1.0, scl=0.5 * self.interval.k, axis=0)
        ic[0] += left_value
        return LocalPoly(self.interval, ic)

    def l2_norm(self) -> float:
        """Exact ||.||_{L2(I)} via interval-scaled Legendre orthogonality."""
        i = np.arange(self.coeffs.shape[0])
        weights = 0.5 * self.interval.k * 2.0 / (2.0 * i + 1.0)
        return float(np.sqrt(np.sum(weights[:, None] * self.coeffs**2)))

    def linf_norm(self) -> float:
        """Sampled sup over the interval of the pointwise Euclidean norm."""
        vals = self.at_reference(_linf_sample_points(self.degree))
        # Divergence probes evaluate wildly growing iterates; an inf here
        # just means "beyond any cap", so don't warn.
        with np.errstate(over="ignore"):
            return float(np.max(np.sqrt(np.sum(vals**2, axis=0))))


@lru_cache(maxsize=None)
def _linf_sample_points(degree: int) -> np.ndarray:
    n = _LINF_SAMPLES_PER_DEGREE * (degree + 2)
    cheb = np.cos(np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n))
    pts = np.concatenate(([-1.0], cheb[::-1], [1.0]))
    pts.flags.writeable = False
    return pts


def project_values(values: np.ndarray, iv: Interval, r: int, quad: QuadRule) -> LocalPoly:
    """L2 projection onto degree r from values sampled at quad's mapped nodes.

    values has shape (n, d).  Coefficient i is
    (2i+1)/2 * sum_q w_q values[q] P_i(x_q), which reproduces any
    polynomial of degree <= r sampled exactly (requires n >= r+1).
    """
    if quad.n < r + 1:
        raise ValueError(
            f"quadrature with {quad.n} points cannot project onto degree {r}; need n >= {r + 1}"
        )
    V = _leg.legvander(quad.nodes, r)
    scale = 0.5 * (2.0 * np.arange(r + 1) + 1.0)
    coeffs = scale[:, None] * (V.T @ (quad.weights[:, None] * values))
    return LocalPoly(iv, coeffs)


def l2_project(
    f: Callable[[float], np.ndarray], iv: Interval, r: int, quad: QuadRule | None = None
) -> LocalPoly:
    """Quadrature-discrete L2 projection of f onto degree r on iv.

    f maps a time to a value vector (scalars are treated as dimension 1).
    """
    if quad is None:
        quad = gauss_legendre(r + 6)
    ts = iv.from_reference(quad.nodes)
    values = np.stack([np.atleast_1d(np.asarray(f(t), dtype=float)) for t in ts])
    return project_values(values, iv, r, quad)
