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
scalar with lip monotone nondecreasing in a and b), with t, a and b
Python floats and u_vector a NumPy array.  Optionally ``f_batch`` /
``lip_batch`` provide vectorized evaluation over arrays of times,
which the solvers use when present.

``rhs_at`` and ``lip_at`` are the only way the solvers evaluate f and
lip.  They return the values as given, infinities and nan included, and
leave the floating-point error state to their callers (the errstate
rule of ``poly``).  A scalar f or lip may raise NumericOverflow itself.

The built-ins are made by one function, ``_builtin``, and each passes
one vectorised callable as both ``f`` and ``f_batch`` and one as both
``lip`` and ``lip_batch``.  ``_real`` is the one rule for real numbers:
``AdaptConfig`` (``k_init``, ``tol_star``, ``k_min``), ``PicardConfig``
(``divergence_cap``), ``Problem`` (each entry of ``u0``), the ``make_*``
constructors and the CLI's float keys read theirs through it and keep
the float it returns.  ``_integer`` is the same rule for counts.
"""

from __future__ import annotations

import math
import numbers
import operator
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

# |u0| bound of the exp problem: e^{u0} leaves double range near 709.78
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
        # a bool or an integral float passes the shape test below, and a
        # float dim would make every dofs count a float
        object.__setattr__(self, "dim", _integer("dim", self.dim))
        u0 = np.atleast_1d(np.array(self.u0, dtype=object))
        if u0.shape != (self.dim,):
            raise ValueError(f"u0 must have shape ({self.dim},)")
        u0 = np.array([_real("u0", value) for value in u0], dtype=float)
        if u0.size == 0 or not np.isfinite(u0).all():
            raise ValueError(f"u0 must be a nonempty vector of finite numbers, got {u0}")
        u0.flags.writeable = False
        object.__setattr__(self, "u0", u0)


def _integer(name: str, value) -> int:
    """value as an int, or ValueError: a bool passes ``operator.index``,
    but numpy sizes and the dofs counts reject it."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value) -> float:
    """value as a float, or ValueError: a bool passes as a real number,
    but no setting reads it as one.  An integer past double range reads
    as the infinity of its sign, as JSON reads 1e400."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def rhs_at(p: Problem, ts: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Evaluate f at times ts (n,) and states us (n, d); returns (n, d).

    The values are returned as f gives them, infinities and nan
    included: each caller tests a sum it computes anyway for
    finiteness (module docstring).  Only a scalar ``f`` that raises
    NumericOverflow itself stops the evaluation.  A scalar ``f``
    receives t as a Python float and u as a row of us.
    """
    if p.f_batch is not None:
        vals = np.asarray(p.f_batch(ts, us), dtype=float)
        if vals.shape != us.shape:
            raise ValueError(f"right-hand side returned shape {vals.shape}, expected {us.shape}")
        return vals
    # one list, stacked at once; only when that gives the wrong shape are
    # the rows checked one by one
    d, rows = us.shape[1], [p.f(t, u) for t, u in zip(ts.tolist(), us)]
    try:
        vals = np.array(rows, dtype=float)
        if vals.shape == us.shape:
            return vals
    except ValueError:
        pass  # ragged: with d = 1, scalars mixed with (1,) rows
    for v in rows:
        # d = 1 accepts a scalar; otherwise a row must not broadcast
        if np.shape(v) != (d,) and not (d == 1 and np.ndim(v) == 0):
            raise ValueError(f"right-hand side returned shape {np.shape(v)}, expected ({d},)")
    return np.array([np.reshape(v, d) for v in rows], dtype=float).reshape(us.shape)


def lip_at(p: Problem, ts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Evaluate the Lipschitz envelope at arrays of (t, a, b); returns (n,).

    As with ``rhs_at``, non-finite values are returned, not flagged,
    and values of any other shape than a's raise ValueError; a scalar
    ``lip`` receives t, a and b as Python floats.
    """
    if p.lip_batch is not None:
        vals = p.lip_batch(ts, a, b)
    else:
        vals = [p.lip(t, ai, bi) for t, ai, bi in zip(ts.tolist(), a.tolist(), b.tolist())]
    try:
        vals = np.asarray(vals, dtype=float)
    except ValueError as exc:  # values of mixed shape, or not numbers
        msg = f"Lipschitz envelope lip returned values that do not form shape {a.shape}"
        raise ValueError(msg) from exc
    if vals.shape != a.shape:
        raise ValueError(f"Lipschitz envelope lip returned shape {vals.shape}, expected {a.shape}")
    return vals


def _builtin(name: str, u0, f, lip, exact, t_blowup) -> Problem:
    """The built-in problem ``name``: f and lip are one expression for a
    single state and for a batch of them, so each serves as its batch
    form too."""
    return Problem(np.size(u0), u0, f, lip, exact, t_blowup, name, f_batch=f, lip_batch=lip)


def make_power_square(u0: float) -> Problem:
    """Scalar f(t,u) = u^2 with exact solution u0/(1 - u0 t)."""
    u0 = _real("u0", u0)
    if not u0 > 0:
        raise ValueError("power-square blow-up problem requires u0 > 0")

    def f(t, u):
        return u * u

    def lip(t, a, b):
        return a + b

    def exact(t):
        return (u0 / (1.0 - u0 * np.asarray(t, dtype=float)))[None]

    return _builtin("power2", np.array([u0]), f, lip, exact, 1.0 / u0)


def make_exponential(u0: float) -> Problem:
    """Scalar f(t,u) = e^u with exact solution u0 - log(1 - e^{u0} t)."""
    u0 = _real("u0", u0)
    # e^{u0} and the blow-up time e^{-u0} must both be in double range
    if not abs(u0) <= _EXP_MAX:
        raise ValueError(f"exp blow-up problem requires |u0| <= {_EXP_MAX}, got {u0}")
    growth = math.exp(u0)

    # past u = 709.78 f and lip give inf
    def f(t, u):
        return np.exp(u)

    def lip(t, a, b):
        return 0.5 * (np.exp(a) + np.exp(b))

    def exact(t):
        return (u0 - np.log1p(-growth * np.asarray(t, dtype=float)))[None]

    return _builtin("exp", np.array([u0]), f, lip, exact, math.exp(-u0))


def make_linear(lam: float, u0) -> Problem:
    """f(t,u) = lam*u in R^d; globally Lipschitz with constant |lam|."""
    lam = _real("lam", lam)
    if not math.isfinite(lam):
        raise ValueError(f"linear problem requires a finite lam, got {lam}")

    def f(t, u):
        return lam * u

    def lip(t, a, b):
        return np.full(np.shape(a), abs(lam))

    def exact(t):
        return np.multiply.outer(p.u0, np.exp(lam * np.asarray(t, dtype=float)))

    # Problem reads each entry of u0 by ``_real``; exact reads the result
    p = _builtin("linear", u0, f, lip, exact, None)
    return p


# CLI name -> (constructor, parameter defaults in constructor order)
_BUILTINS = {
    "power2": (make_power_square, {"u0": 1.0}),
    "exp": (make_exponential, {"u0": 1.0}),
    "linear": (make_linear, {"lam": 1.0, "u0": [1.0]}),
}


def builtin_problem(name: str, **params) -> Problem:
    """Look up a built-in problem by CLI name: power2, exp or linear.

    Unknown parameter names raise ValueError, so a misspelt key cannot
    silently fall back to its default.
    """
    if name not in _BUILTINS:
        raise ValueError(f"unknown problem {name!r}; available: {', '.join(_BUILTINS)}")
    make, defaults = _BUILTINS[name]
    unknown = ", ".join(repr(key) for key in params if key not in defaults)
    if unknown:
        raise ValueError(
            f"unknown parameter {unknown} for problem {name!r}; accepted: {', '.join(defaults)}"
        )
    return make(**{**defaults, **params})
