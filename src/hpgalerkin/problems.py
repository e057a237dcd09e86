"""Initial value problem definitions u' = f(t, u), u(0) = u0.

A ``Problem`` bundles the right-hand side, a pointwise Lipschitz
envelope lip(t, a, b) bounding |f(t,v) - f(t,w)| / |v - w| whenever
|v| <= a, |w| <= b, and, when available in closed form, the exact
solution and its blow-up time.

``exact`` is vectorised like ``LocalPoly.__call__``: a scalar time
gives shape (d,), an array of times of shape (n,) gives shape (d, n),
for example ``exact=lambda t: (1.0 / (1.0 - np.asarray(t)))[None]``
for u' = u^2, u(0) = 1.

Built-ins: ``power2`` (f = u^2, blows up at 1/u0), ``exp`` (f = e^u,
blows up at e^{-u0}) and ``linear`` (f = lam*u, globally Lipschitz).

All user-supplied callables must be pure; f and lip are evaluated
at one time per call (f: (t, u_vector) -> vector, lip: (t, a, b) ->
scalar with lip monotone nondecreasing in a and b).  Optionally ``f_batch`` /
``lip_batch`` provide vectorized evaluation over arrays of times,
which the solvers use when present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "NumericOverflow",
    "Problem",
    "make_power_square",
    "make_exponential",
    "make_linear",
    "builtin_problem",
]

# exp() leaves double range near 709.78; flag instead of propagating inf.
_EXP_MAX = 709.0


class NumericOverflow(ArithmeticError):
    """The right-hand side or Lipschitz envelope left double range."""


@dataclass(frozen=True)
class Problem:
    dim: int
    u0: np.ndarray
    f: Callable[[float, np.ndarray], np.ndarray]
    lip: Callable[[float, float, float], float]
    exact: Optional[Callable[[np.ndarray], np.ndarray]] = None
    t_blowup: Optional[float] = None
    name: str = "custom"
    f_batch: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    lip_batch: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        u0 = np.atleast_1d(np.array(self.u0, dtype=float))
        if u0.shape != (self.dim,):
            raise ValueError(f"u0 must have shape ({self.dim},)")
        u0.flags.writeable = False
        object.__setattr__(self, "u0", u0)


def rhs_at(p: Problem, ts: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Evaluate f at times ts (n,) and states us (n, d); returns (n, d).

    Raises NumericOverflow on any non-finite value so callers can treat
    overflow as a distinct outcome rather than propagate infinities.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if p.f_batch is not None:
            vals = np.asarray(p.f_batch(ts, us), dtype=float)
            if vals.shape != us.shape:
                raise ValueError(
                    f"right-hand side returned shape {vals.shape}, expected {us.shape}"
                )
        else:
            d = us.shape[1]
            vals = np.empty(us.shape)
            for i, (t, u) in enumerate(zip(ts, us)):
                v = p.f(t, u)
                # d = 1 accepts a scalar; otherwise a row must not broadcast
                if np.shape(v) != (d,) and not (d == 1 and np.ndim(v) == 0):
                    raise ValueError(
                        f"right-hand side returned shape {np.shape(v)}, expected ({d},)"
                    )
                vals[i] = v
    if not np.isfinite(vals).all():
        raise NumericOverflow(f"right-hand side of problem {p.name!r} overflowed")
    return vals


def lip_at(p: Problem, ts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Evaluate the Lipschitz envelope at arrays of (t, a, b); returns (n,)."""
    with np.errstate(over="ignore", invalid="ignore"):
        if p.lip_batch is not None:
            vals = np.asarray(p.lip_batch(ts, a, b), dtype=float)
        else:
            vals = np.empty(len(ts))
            for i, (t, ai, bi) in enumerate(zip(ts, a, b)):
                vals[i] = p.lip(t, ai, bi)
    if not np.isfinite(vals).all():
        raise NumericOverflow(f"Lipschitz envelope of problem {p.name!r} overflowed")
    return vals


def make_power_square(u0: float) -> Problem:
    """Scalar f(t,u) = u^2 with exact solution u0/(1 - u0 t)."""
    if not u0 > 0:
        raise ValueError("power-square blow-up problem requires u0 > 0")
    u0 = float(u0)

    def f(t, u):
        return u * u

    def lip(t, a, b):
        return a + b

    def exact(t):
        return (u0 / (1.0 - u0 * np.asarray(t, dtype=float)))[None]

    return Problem(
        dim=1,
        u0=np.array([u0]),
        f=f,
        lip=lip,
        exact=exact,
        t_blowup=1.0 / u0,
        name="power2",
        f_batch=lambda ts, us: us * us,
        lip_batch=lambda ts, a, b: a + b,
    )


def make_exponential(u0: float) -> Problem:
    """Scalar f(t,u) = e^u with exact solution u0 - log(1 - e^{u0} t)."""
    u0 = float(u0)
    growth = math.exp(u0)

    def f(t, u):
        if np.any(u > _EXP_MAX):
            raise NumericOverflow("exp right-hand side overflowed")
        return np.exp(u)

    def lip(t, a, b):
        if a > _EXP_MAX or b > _EXP_MAX:
            raise NumericOverflow("exp Lipschitz envelope overflowed")
        return 0.5 * (np.exp(a) + np.exp(b))

    def exact(t):
        return (u0 - np.log1p(-growth * np.asarray(t, dtype=float)))[None]

    def f_batch(ts, us):
        with np.errstate(over="ignore"):
            return np.exp(us)

    def lip_batch(ts, a, b):
        with np.errstate(over="ignore"):
            return 0.5 * (np.exp(a) + np.exp(b))

    return Problem(
        dim=1,
        u0=np.array([u0]),
        f=f,
        lip=lip,
        exact=exact,
        t_blowup=math.exp(-u0),
        name="exp",
        f_batch=f_batch,
        lip_batch=lip_batch,
    )


def make_linear(lam: float, u0) -> Problem:
    """f(t,u) = lam*u in R^d; globally Lipschitz with constant |lam|."""
    lam = float(lam)
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))

    def f(t, u):
        return lam * u

    def lip(t, a, b):
        return abs(lam)

    def exact(t):
        return np.multiply.outer(u0, np.exp(lam * np.asarray(t, dtype=float)))

    return Problem(
        dim=u0.size,
        u0=u0,
        f=f,
        lip=lip,
        exact=exact,
        t_blowup=None,
        name="linear",
        f_batch=lambda ts, us: lam * us,
        lip_batch=lambda ts, a, b: np.full_like(a, abs(lam)),
    )


def builtin_problem(name: str, **params) -> Problem:
    """Look up a built-in problem by CLI name: power2, exp or linear."""
    if name == "power2":
        return make_power_square(params.get("u0", 1.0))
    if name == "exp":
        return make_exponential(params.get("u0", 1.0))
    if name == "linear":
        return make_linear(params.get("lam", 1.0), params.get("u0", [1.0]))
    raise ValueError(f"unknown problem {name!r}; available: power2, exp, linear")
