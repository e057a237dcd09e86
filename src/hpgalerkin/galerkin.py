"""Single-interval cG and dG time steps via Picard iteration.

Both schemes seek a degree-r polynomial U on the interval:

* cG: U(t_start) = u_left is imposed strongly and U' equals the degree
  r-1 L2 projection of f(t, U), so each Picard update integrates the
  projected right-hand side from the left endpoint.

* dG: the initial value enters weakly through the jump U(t_start+) -
  u_left.  In the mapped Legendre basis the weak form reduces to a small
  linear system M c = b(c) whose fixed point is the dG solution; each
  Picard update solves it with the nonlinearity frozen at the previous
  iterate.  (The r = 0 case reproduces implicit Euler.)

For a fixed degree r and quadrature rule, one Picard update of either
scheme is affine in the Legendre coefficient array c (shape (r+1, d)):

    c_next = a u_left^T + k G f(ts, V c),

with V the (n, r+1) Vandermonde of the rule's nodes and P_q the
degree-q quadrature L2 projection of node values.  For cG, G is the
antiderivative from the left endpoint composed with P_{r-1}, and
a = e_0; for dG, G = M^-1 diag(1/(2j+1)) P_r and a = M^-1 ((-1)^j).
``picard_operator`` builds (V, a, G) once per (r, rule, scheme), so an
iteration costs one f evaluation and two small matrix products.

Nonexistence of a step is a first-class outcome here: the adaptive
drivers halve the step length whenever the iteration fails to converge.

``reconstruct`` lifts a converged step to the degree r+1 polynomial
with matching left value whose derivative is the degree-r projection of
f(t, U) -- the cG update at degree r+1 applied to U; its endpoint value
coincides with U(t_end) for both schemes, and it is the object the
error estimator measures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial import legendre as _leg

from .poly import Interval, LocalPoly, QuadRule, gauss_legendre
from .problems import NumericOverflow, Problem, rhs_at

__all__ = [
    "Scheme",
    "StepFailure",
    "StepInput",
    "StepOutput",
    "PicardConfig",
    "PicardOperator",
    "picard_operator",
    "step",
    "reconstruct",
]


class Scheme(enum.Enum):
    CG = "cg"
    DG = "dg"


class StepFailure(enum.Enum):
    MAX_ITERS = "max_iters"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class StepInput:
    interval: Interval
    r: int
    u_left: np.ndarray
    scheme: Scheme

    def __post_init__(self):
        u_left = np.atleast_1d(np.array(self.u_left, dtype=float))
        u_left.flags.writeable = False
        object.__setattr__(self, "u_left", u_left)
        min_r = 1 if self.scheme is Scheme.CG else 0
        if self.r < min_r:
            raise ValueError(f"{self.scheme.value} step requires degree >= {min_r}, got {self.r}")


@dataclass(frozen=True)
class PicardConfig:
    """Picard iteration controls.

    ``fp_tol`` is relative: a step has converged once the largest
    Legendre-coefficient update is at most ``fp_tol * max(1, max|c|)``,
    so the test stays above the roundoff floor of large iterates.

    ``divergence_cap`` bounds the sup norm of an iterate.  The step
    first compares the sum of the absolute coefficients, a rigorous
    upper bound on the sup norm since |P_i| <= 1 on [-1, 1], and only
    when that exceeds the cap confirms it with the sampled sup norm.
    """

    fp_tol: float = 1e-12
    max_iters: int = 100
    divergence_cap: float = 1e8

    def __post_init__(self):
        if not (self.fp_tol > 0 and self.max_iters > 0 and self.divergence_cap > 0):
            raise ValueError("Picard configuration values must be positive")


@dataclass(frozen=True)
class StepOutput:
    u: Optional[LocalPoly]
    picard_iters: int
    converged: bool
    failure: Optional[StepFailure] = None


@dataclass(frozen=True)
class PicardOperator:
    """Affine Picard update c_next = a u_left^T + k G f for one degree,
    quadrature rule and scheme.

    V (n, r+1) evaluates a coefficient array at the rule's nodes, a
    (r+1,) carries the left value, and G (r+1, n) maps node values of f
    to coefficients per unit step length.
    """

    V: np.ndarray
    a: np.ndarray
    G: np.ndarray

    def apply(self, u_left: np.ndarray, k: float, f_vals: np.ndarray) -> np.ndarray:
        """Coefficients (r+1, d) of the update for f values f_vals (n, d)."""
        return np.outer(self.a, u_left) + k * (self.G @ f_vals)


def _build_operator(r: int, scheme: Scheme, quad: QuadRule) -> PicardOperator:
    proj_degree = r - 1 if scheme is Scheme.CG else r
    if quad.n < proj_degree + 1:
        raise ValueError(
            f"quadrature with {quad.n} points cannot project onto degree {proj_degree}; "
            f"need n >= {proj_degree + 1}"
        )
    V = _leg.legvander(quad.nodes, r)
    # Quadrature L2 projection onto degree proj_degree: coefficient i is
    # (2i+1)/2 * sum_q w_q f_q P_i(x_q).
    i = np.arange(proj_degree + 1)
    P = (0.5 * (2.0 * i + 1.0))[:, None] * (V[:, : proj_degree + 1].T * quad.weights)
    if scheme is Scheme.CG:
        # Antiderivative from x = -1; the reference map contributes k/2.
        L = _leg.legint(np.eye(proj_degree + 1), m=1, k=[0.0], lbnd=-1.0, scl=0.5, axis=0)
        a = np.zeros(r + 1)
        a[0] = 1.0
        G = L @ P
    else:
        # dG system matrix, row j tested with P_j: int P_i' P_j dx (= 2 for
        # i > j with i - j odd) plus the jump term P_i(-1) P_j(-1) = (-1)^(i+j).
        col, row = np.meshgrid(i, i, indexing="xy")
        M = np.where((col > row) & ((col - row) % 2 == 1), 2.0, 0.0) + (-1.0) ** (col + row)
        Minv = np.linalg.inv(M)
        a = Minv @ (-1.0) ** i
        G = Minv @ (P / (2.0 * i + 1.0)[:, None])
    for arr in (V, a, G):
        arr.flags.writeable = False
    return PicardOperator(V, a, G)


@lru_cache(maxsize=None)
def _gauss_operator(r: int, n: int, scheme: Scheme) -> PicardOperator:
    return _build_operator(r, scheme, gauss_legendre(n))


def picard_operator(r: int, scheme: Scheme, quad: QuadRule) -> PicardOperator:
    """The affine Picard update of degree r on quad; cached for the
    Gauss-Legendre rules of ``gauss_legendre``."""
    if quad is gauss_legendre(quad.n):
        return _gauss_operator(r, quad.n, scheme)
    return _build_operator(r, scheme, quad)


def step(
    p: Problem,
    inp: StepInput,
    cfg: PicardConfig = PicardConfig(),
    quad: QuadRule | None = None,
) -> StepOutput:
    """Attempt one Galerkin step by Picard iteration.

    Iterates the affine update of ``picard_operator`` on the bare
    coefficient array until the sup over Legendre-coefficient updates is
    at most fp_tol * max(1, max|c|), with c the new iterate's
    coefficients; the scale keeps the test reachable near blow-up, where
    one unit of roundoff in |c| ~ 1e8 already exceeds an absolute 1e-12.
    Returns converged=False with a failure reason when the iterate
    diverges or the iteration budget runs out; the drivers treat that as
    "no discrete solution exists at this step size".

    An iterate diverges when f overflows at it or its sup norm exceeds
    ``divergence_cap``.  The sum of |c| is a rigorous sup bound, since
    |P_i| <= 1, so the sampled sup norm is computed only when that cheap
    bound exceeds the cap; every decision equals that of a sampled test
    on every iterate.
    """
    r, iv, d = inp.r, inp.interval, inp.u_left.size
    if quad is None:
        quad = gauss_legendre(min(r + 6, 64))
    if quad.n < r + 6:
        raise ValueError(f"step at degree {r} needs a quadrature with >= {r + 6} points")
    op = picard_operator(r, inp.scheme, quad)
    ts = iv.from_reference(quad.nodes)

    left = np.outer(op.a, inp.u_left)
    c = np.zeros((r + 1, d))
    c[0] = inp.u_left
    # An overflowing update is caught below (inf bound, then LocalPoly
    # rejects the non-finite iterate), so don't warn.
    with np.errstate(over="ignore"):
        for it in range(1, cfg.max_iters + 1):
            try:
                f_vals = rhs_at(p, ts, op.V @ c)
            except NumericOverflow:
                return StepOutput(LocalPoly(iv, c), it, False, StepFailure.DIVERGED)
            c_next = left + iv.k * (op.G @ f_vals)  # op.apply with the left term hoisted
            abs_next = np.abs(c_next)
            change = float(np.abs(c_next - c).max())
            scale = max(1.0, float(abs_next.max()))
            c = c_next
            # sup_t |U(t)| <= sum |c| because |P_i| <= 1: sample only above the cap
            if abs_next.sum() > cfg.divergence_cap:
                u = LocalPoly(iv, c)
                if u.linf_norm() > cfg.divergence_cap:
                    return StepOutput(u, it, False, StepFailure.DIVERGED)
            if change <= cfg.fp_tol * scale:
                return StepOutput(LocalPoly(iv, c), it, True)
    return StepOutput(LocalPoly(iv, c), cfg.max_iters, False, StepFailure.MAX_ITERS)


def reconstruct(
    p: Problem, inp: StepInput, u: LocalPoly, quad: QuadRule | None = None
) -> LocalPoly:
    """Degree r+1 reconstruction: left value u_left, derivative = degree-r
    projection of f(t, U).

    This is one cG Picard update at degree r+1 applied to U.  It uses
    the same quadrature as the step so the endpoint values of U and the
    reconstruction coincide up to the Picard tolerance, which is
    relative: fp_tol * max(1, max|c|) for the step's coefficients c.
    """
    r, iv = inp.r, inp.interval
    if quad is None:
        quad = gauss_legendre(min(r + 6, 64))
    op = picard_operator(r + 1, Scheme.CG, quad)
    u_nodes = op.V[:, : u.coeffs.shape[0]] @ u.coeffs
    f_vals = rhs_at(p, iv.from_reference(quad.nodes), u_nodes)
    return LocalPoly(iv, op.apply(inp.u_left, iv.k, f_vals))
