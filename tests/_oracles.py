"""Independent brute-force oracles and a closed-form problem shared by
the test modules."""

import math
import sys

import numpy as np
from numpy.polynomial import legendre

from hpgalerkin.adapt import _ZERO_POLY_RTOL
from hpgalerkin.galerkin import (
    _RECIPROCAL_MIN_DEGREE,
    FP_TOL,
    MAX_GROWING,
    MAX_ITERS,
    Scheme,
    Start,
    StepFailure,
    StepInput,
    StepOutput,
    picard_operator,
)
from hpgalerkin.poly import (
    _GROWTH_EXTRA_POINTS,
    _RESIDUAL_EXTRA_POINTS,
    _STEP_EXTRA_POINTS,
    LocalPoly,
    _rule,
    _time_map,
    basis,
)
from hpgalerkin.problems import NumericOverflow, Problem, lip_at, rhs_at

# the largest double, above which a sum |c| has overflowed
_FLOAT_MAX = sys.float_info.max


# Legendre calculus on a LocalPoly, written on numpy's legendre module
# alone: the references of the oracles below and the fixtures of the
# test modules, independent of the arrays ``basis(r)`` caches.


def step_nodes(r):
    """The nodes and weights of the Picard step's Gauss-Legendre rule at
    degree r, min(r + poly._STEP_EXTRA_POINTS, 64) points."""
    return legendre.leggauss(min(r + _STEP_EXTRA_POINTS, 64))


def residual_nodes(deg):
    """The nodes and weights of the residual's Gauss-Legendre rule of a
    reconstruction of degree deg, min(deg + poly._RESIDUAL_EXTRA_POINTS,
    64) = min(deg + 4, 64) points; the residual interpolates f on them."""
    return legendre.leggauss(min(deg + _RESIDUAL_EXTRA_POINTS, 64))


def growth_nodes(deg):
    """The nodes and weights of the growth integral's Gauss-Legendre rule
    of a reconstruction of degree deg, min(deg +
    poly._GROWTH_EXTRA_POINTS, 64) = min(deg + 7, 64) points, the rule
    the residual's had before it shrank; the delta solve integrates lip
    on them."""
    return legendre.leggauss(min(deg + _GROWTH_EXTRA_POINTS, 64))


def ehlich_zeller(n, d):
    """The factor by which the largest norm at the 24 (n + 2) Chebyshev
    samples of ``basis(n)`` bounds the sup of a degree-n polynomial in
    R^d (Ehlich & Zeller, 1964): 1 / cos(n pi / (2m)), m = 24 (n + 2),
    for d = 1; for d > 1 that bound on |p|^2, of degree 2n, so
    1 / sqrt(cos(n pi / m))."""
    m = 24 * (n + 2)
    return 1.0 / math.cos(n * math.pi / (2 * m)) if d == 1 else 1.0 / math.sqrt(math.cos(n * math.pi / m))


def constant(iv, value, degree=0):
    """The constant polynomial value on iv, padded with zeros to degree."""
    value = np.atleast_1d(np.asarray(value, dtype=float))
    coeffs = np.zeros((degree + 1, value.size))
    coeffs[0] = value
    return LocalPoly(iv, coeffs)


def project_values(values, iv, r, nodes, weights):
    """L2 projection onto degree r of the (n, d) values at the mapped
    nodes of the rule (nodes, weights): coefficient i is
    (2i+1)/2 sum_q w_q values[q] P_i(x_q), which reproduces degree r
    while n >= r + 1."""
    V = legendre.legvander(nodes, r)
    scale = 0.5 * (2.0 * np.arange(r + 1) + 1.0)
    return LocalPoly(iv, scale[:, None] * (V.T @ (weights[:, None] * values)))


def l2_project(f, iv, r, n=None):
    """``project_values`` of f, a function of one time, on the n-point
    Gauss-Legendre rule (min(r + 6, 64) points by default)."""
    nodes, weights = legendre.leggauss(min(r + 6, 64) if n is None else n)
    ts = iv.from_reference(nodes)
    values = np.stack([np.atleast_1d(np.asarray(f(t), dtype=float)) for t in ts])
    return project_values(values, iv, r, nodes, weights)


def antiderivative(u, left_value):
    """The degree r+1 polynomial q with q' = u and q(t_start) = left_value."""
    scl = 0.5 * u.interval.k
    coeffs = legendre.legint(u.coeffs, m=1, k=[0.0], lbnd=-1.0, scl=scl, axis=0)
    coeffs[0] += np.asarray(left_value, dtype=float)
    return LocalPoly(u.interval, coeffs)


def derivative(u):
    """u', of degree max(r - 1, 0); the reference map contributes 2/k."""
    if u.degree == 0:
        return LocalPoly(u.interval, np.zeros_like(u.coeffs))
    return LocalPoly(u.interval, legendre.legder(u.coeffs, axis=0) * (2.0 / u.interval.k))


def l2_norm(u):
    """||u||_{L2(I)} by Parseval: ||P_i||^2 = 2 / (2i + 1) on [-1, 1]."""
    i = np.arange(u.coeffs.shape[0])
    weights = 0.5 * u.interval.k * 2.0 / (2.0 * i + 1.0)
    return float(np.sqrt(np.sum(weights[:, None] * u.coeffs**2)))


def zero_rhs():
    """u' = 0, u(0) = 1: every reconstruction reproduces exact(t) = 1."""
    return Problem(
        dim=1,
        u0=np.array([1.0]),
        f=lambda t, u: np.zeros_like(u),
        lip=lambda t, a, b: 0.0,
        exact=lambda t: np.ones((1,) + np.shape(t)),
    )


def checked_rhs(p, ts, us):
    """f at (ts, us) by rhs_at, raising NumericOverflow on any non-finite
    value: the oracles' own overflow test, independent of the one the
    program reads from its coefficient sums."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = rhs_at(p, ts, us)
    if not np.isfinite(vals).all():
        raise NumericOverflow(f"right-hand side of problem {p.name!r} overflowed")
    return vals


def brute_force_residual(p, u_hat, n_samples=10_000, n_quad=64):
    """sup_t |int_{t0}^{t} f(s, uhat) ds - (uhat(t) - uhat(t0))| over
    n_samples right endpoints, each integral by mapped n_quad-point
    Gauss quadrature.  Independent of the polynomial residual path."""
    iv = u_hat.interval
    q_nodes, q_weights = legendre.leggauss(n_quad)
    ts = np.linspace(iv.t_start, iv.t_end, n_samples)[1:]
    half = 0.5 * (ts - iv.t_start)              # (S,)
    nodes = (iv.t_start + half[:, None]) + half[:, None] * q_nodes[None, :]  # (S, nq)
    flat = nodes.ravel()
    f_vals = checked_rhs(p, flat, u_hat(flat).T).reshape(n_samples - 1, n_quad, -1)
    integrals = half[:, None] * np.einsum("q,sqd->sd", q_weights, f_vals)
    u0 = u_hat(iv.t_start)
    gaps = u_hat(ts).T - u0[None, :]
    return float(np.max(np.linalg.norm(integrals - gaps, axis=1)))


def _reference_dg_matrix_inverse(r):
    """Inverse of the dG system matrix, entry (j, i) = int P_i' P_j dx
    + P_i(-1) P_j(-1), assembled by quadrature rather than closed form.
    Every entry is an integer (the integral is 0 or 2, the jump term
    +-1), which the quadrature recovers up to roundoff, so the sums are
    rounded to it: unrounded, that roundoff (2e-14 at r = 6) puts the
    inverse 1e-14 off, which the Picard loop amplifies past the
    roundoff bounds of the tests."""
    nodes, weights = legendre.leggauss(r + 2)
    eye = np.eye(r + 1)
    P = np.stack([legendre.legval(nodes, eye[i]) for i in range(r + 1)])  # (basis, node)
    dP = np.stack([legendre.legval(nodes, legendre.legder(eye[i])) for i in range(r + 1)])
    left = (-1.0) ** np.arange(r + 1)
    M = (weights * P) @ dP.T + np.outer(left, left)
    return np.linalg.inv(np.rint(M))


def reference_step(p, inp, cfg, atol=0.0):
    """One cG/dG step by the per-iteration Picard loop: a LocalPoly per
    iterate, ``project_values``, ``antiderivative`` or the dG solve, and
    sum |c| of every new iterate against cfg.divergence_cap; an iterate
    above the cap diverges and is reported by the iterate before, and
    so does one at which f is not finite (``checked_rhs``).  The
    relative stopping tolerance 1e-12, the budget of 100 iterations and
    the 3 consecutive growing changes that diverge are written out here,
    not read from the program.  The iteration also stops, as ``step``
    does, at a change of at most ``atol``, or from the second update on
    at a change that fell from a finite last one, with ratio
    q = change / last, once q * change <= atol * (1 - q); a growing
    change diverges on the third in a row, reported at the new iterate.
    It runs on the step's rule (``step_nodes``).
    Returns (u, picard_iters, converged, failure) with the same meaning
    as StepOutput."""
    r, iv, u_left = inp.r, inp.interval, inp.u_left
    fp_tol, max_iters, max_growing = 1e-12, 100, 3
    last, growing = None, 0
    nodes, weights = step_nodes(r)
    ts = iv.from_reference(nodes)
    coeffs = np.zeros((r + 1, u_left.size))
    coeffs[0] = u_left
    u = LocalPoly(iv, coeffs)
    cg = inp.scheme is Scheme.CG
    j = np.arange(r + 1)
    Minv = None if cg else _reference_dg_matrix_inverse(r)
    for it in range(1, max_iters + 1):
        try:
            f_vals = checked_rhs(p, ts, legendre.legval(nodes, u.coeffs).T)
        except NumericOverflow:
            return u, it, False, StepFailure.DIVERGED
        f_proj = project_values(f_vals, iv, r - 1 if cg else r, nodes, weights)
        if cg:
            u_next = antiderivative(f_proj, u_left)
        else:
            rhs = ((-1.0) ** j)[:, None] * u_left[None, :]
            rhs = rhs + iv.k * f_proj.coeffs / (2.0 * j + 1.0)[:, None]
            u_next = LocalPoly(iv, Minv @ rhs)
        change = float(np.max(np.abs(u_next.coeffs - u.coeffs)))
        scale = max(1.0, float(np.max(np.abs(u_next.coeffs))))
        if float(np.sum(np.abs(u_next.coeffs))) > cfg.divergence_cap:
            return u, it, False, StepFailure.DIVERGED
        u = u_next
        if change <= atol or change <= fp_tol * scale:
            return u, it, True, None
        if it > 1 and math.isfinite(last) and change < last:
            growing, q = 0, change / last
            if q * change <= atol * (1.0 - q):
                return u, it, True, None
        elif it > 1 and change > last:
            growing += 1
            if growing == max_growing:
                return u, it, False, StepFailure.DIVERGED
        else:
            growing = 0
        last = change
    return u, max_iters, False, StepFailure.MAX_ITERS


def reference_reconstruct(p, inp, u):
    """Degree r+1 reconstruction by ``project_values`` + ``antiderivative``
    on the step's rule (``step_nodes``)."""
    iv = inp.interval
    nodes, weights = step_nodes(inp.r)
    f_vals = checked_rhs(p, iv.from_reference(nodes), legendre.legval(nodes, u.coeffs).T)
    return antiderivative(project_values(f_vals, iv, inp.r, nodes, weights), inp.u_left)


def reference_residual(p, u_hat, u_left):
    """The residual estimator by ``project_values`` + ``antiderivative``
    on the residual's rule (``residual_nodes``) at the degree q that
    interpolates there, min(deg(uhat) + 3, 63), minus uhat, sampled as
    LocalPoly.linf_norm and scaled by ``ehlich_zeller``, plus the tail
    k (|F_{q-1}| / (2q - 1) + |F_q| / (2q + 1)) of the projection's top
    two coefficients F_j."""
    iv = u_hat.interval
    nodes, weights = residual_nodes(u_hat.degree)
    r_q = nodes.size - 1
    f_vals = checked_rhs(p, iv.from_reference(nodes), legendre.legval(nodes, u_hat.coeffs).T)
    projected = project_values(f_vals, iv, r_q, nodes, weights)
    accum = antiderivative(projected, u_left)
    res = accum.coeffs.copy()
    res[: u_hat.coeffs.shape[0]] -= u_hat.coeffs
    top = np.linalg.norm(projected.coeffs[-2:], axis=1)
    tail = iv.k * (top[0] / (2 * r_q - 1) + top[1] / (2 * r_q + 1))
    return ehlich_zeller(r_q + 1, res.shape[1]) * LocalPoly(iv, res).linf_norm() + tail


def reference_reconstruction_error(p, u_hat):
    """Sampled sup norm of exact - uhat by one scalar exact(t) call per
    sample point, stacked column by column, with uhat evaluated through
    a Vandermonde matrix built here rather than the cached one."""
    xs = basis(u_hat.degree).samples
    ts = u_hat.interval.from_reference(xs)
    ex = np.stack([np.atleast_1d(np.asarray(p.exact(t), dtype=float)) for t in ts], axis=1)
    uh = (legendre.legvander(xs, u_hat.degree) @ u_hat.coeffs).T
    return float(np.max(np.sqrt(np.sum((ex - uh) ** 2, axis=0))))


def reference_smoothness(u, r, theta_star=0.85):
    """(theta, smooth) by r-1 ``derivative`` calls, Parseval ``l2_norm``s
    and the sampled sup norm of the (r-1)-th derivative w."""
    w = u
    for _ in range(r - 1):
        w = derivative(w)
    if float(np.max(np.abs(w.coeffs))) <= 1e-14 * float(np.max(np.abs(u.coeffs))):
        return 1.0, True
    k = u.interval.k
    denom = l2_norm(w) / math.sqrt(k) + math.sqrt(k) * l2_norm(derivative(w)) / math.sqrt(2.0)
    theta = min(max(w.linf_norm() / denom, 0.0), 1.0)
    return theta, theta >= theta_star


def parent_smoothness(u, r):
    """``adapt.smoothness`` as it was before its rewrite on Python floats,
    kept verbatim, but for the names of its two array constants and theta
    returned as a float, as its bit-identity oracle: the same IEEE
    operations on numpy arrays, whose ``.sum()`` adds pairwise from 8
    terms on.  Where (w_1 2/k)^2 overflows or k |w|^2 is not a normal
    double (k below about 1e-154, or infinite), it keeps the old reading
    (0, nan or a division by 0), which ``smoothness`` replaced by the
    closed forms of its two terms."""
    if r < 1:
        raise ValueError(f"smoothness indicator needs degree >= 1, got {r}")
    if u.degree > r:
        raise ValueError(f"smoothness indicator needs degree <= r = {r}, got {u.degree}")
    k = u.interval.k
    w = u.coeffs[r - 1 :]
    j = np.arange(r - 1, u.degree + 1, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(r - 1):
            w = (2.0 * (j - s) - 1.0) * w * (2.0 / k)
    if w.size == 0 or (w_max := abs(w).max()) <= _ZERO_POLY_RTOL * abs(u.coeffs).max():
        return 1.0
    if not w_max < math.inf:
        return 0.0
    w = np.ldexp(w, -math.frexp(w_max)[1])
    w1 = w[1] if w.shape[0] == 2 else np.zeros_like(w[0])
    l2 = math.sqrt(((k / _PARENT_TWO_I_PLUS_ONE[: w.shape[0]]) * w**2).sum())
    h1_semi = math.sqrt((k * (w1 * (2.0 / k)) ** 2).sum())
    ends = w[0][:, None] + w1[:, None] * _PARENT_ENDPOINTS  # (d, 2): w(-1), w(1)
    linf = math.sqrt((ends**2).sum(axis=0).max())
    denom = l2 / math.sqrt(k) + math.sqrt(k) * h1_semi / math.sqrt(2.0)
    return min(max(linf / denom, 0.0), 1.0)


_PARENT_ENDPOINTS = np.array([-1.0, 1.0])
_PARENT_TWO_I_PLUS_ONE = np.array([[1.0], [3.0]])


def reference_scan_and_bisect(phi_of, delta_max=1e6, scan_points=200, newton_tol=1e-10):
    """The delta scan that evaluates phi at every point of the geometric
    grid over [1, delta_max] until phi < 0, then bisects the bracket.
    Returns the root, or ("not found", min_phi, argmin) with the minimum
    over every grid point."""
    grid = np.geomspace(1.0, delta_max, scan_points)
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
        return ("not found", min_phi, argmin)
    lo, hi = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = phi_of(mid)
        if abs(fm) <= newton_tol:
            return mid
        if fm < 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 4.0 * np.finfo(float).eps * hi:
            break
    return hi


def parent_picard(
    p: Problem, inp: StepInput, c: np.ndarray, cap: float, atol: float = 0.0
) -> StepOutput:
    """The Picard loop of ``galerkin.step`` as it was before its
    dispatch-lean rewrite, kept verbatim as the bit-identity oracle of
    ``galerkin._sweep`` (same signature, so it can stand in for it),
    with five changes: the absolute stop ``atol``, the f values of the
    converging update in the returned StepOutput, sum |c| as the only
    divergence test, reported at the iterate before, the step's rule
    (``step_nodes``) in place of the rule of ``basis(r)``, and the two
    stops read from the last change: from the second update on, a
    change below a finite last one, with q = change / last, converges
    once q * change <= atol * (1 - q), and MAX_GROWING consecutive
    growing changes diverge at the new iterate.

    One errstate covers the whole loop.  The bound sum |c_next| that the
    cap test needs reads every overflow as well: each coefficient of
    G @ f involves every node value of f, so one non-finite f value, or
    an update that overflows, leaves c_next non-finite and the bound inf
    or nan, which fails ``bound <= min(cap, float max)`` under any cap.
    Only then does the loop look further: a bound above the cap
    diverges, and so does a non-finite iterate.
    """
    iv, nodes = inp.interval, step_nodes(inp.r)[0]
    op = picard_operator(inp.r, inp.scheme)
    a, G = op.a, op.G
    k, ts, V = iv.k, iv.from_reference(nodes), legendre.legvander(nodes, inp.r)
    left = np.outer(a, inp.u_left)
    limit = min(cap, _FLOAT_MAX)
    last, growing = math.inf, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, MAX_ITERS + 1):
            try:
                f_vals = rhs_at(p, ts, V @ c)
            except NumericOverflow:
                return StepOutput(LocalPoly(iv, c), it, False, StepFailure.DIVERGED)
            c_next = left + k * (G @ f_vals)
            abs_next = np.abs(c_next)
            bound = float(abs_next.sum())
            change = float(np.abs(c_next - c).max())
            if not bound <= limit and (bound > cap or not np.isfinite(c_next).all()):
                return StepOutput(LocalPoly(iv, c), it, False, StepFailure.DIVERGED)
            c = c_next
            # max|c| <= sum|c|: the scale max|c| is needed only when the
            # bound's scale passes, and the decision is the same
            if change <= atol or (
                change <= FP_TOL * max(1.0, bound)
                and change <= FP_TOL * max(1.0, float(abs_next.max()))
            ):
                return StepOutput(LocalPoly(iv, c), it, True, f_vals=f_vals)
            if change < last < math.inf:
                growing, q = 0, change / last
                if q * change <= atol * (1.0 - q):
                    return StepOutput(LocalPoly(iv, c), it, True, f_vals=f_vals)
            elif change > last:
                growing += 1
                if growing == MAX_GROWING:
                    return StepOutput(LocalPoly(iv, c), it, False, StepFailure.DIVERGED)
            else:
                growing = 0
            last = change
    return StepOutput(LocalPoly(iv, c), MAX_ITERS, False, StepFailure.MAX_ITERS)


def change_only_sweep(p, inp, c, cap, atol):
    """The Picard sweep of ``parent_picard`` under the stop it had before
    the contraction stops: a change of at most ``atol`` or the relative
    FP_TOL test converges, sum |c| above the cap or out of double range
    diverges, and the budget is MAX_ITERS.  Same arithmetic as
    ``parent_picard``, so its iterates are those of ``galerkin._sweep``
    bit for bit.  Returns the iterates (c first), the f values and the
    change of each update, and (picard_iters, converged, failure)."""
    iv, nodes = inp.interval, step_nodes(inp.r)[0]
    op = picard_operator(inp.r, inp.scheme)
    k, ts, V = iv.k, iv.from_reference(nodes), legendre.legvander(nodes, inp.r)
    left = np.outer(op.a, inp.u_left)
    iterates, f_seq, changes = [c], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, MAX_ITERS + 1):
            try:
                f_vals = rhs_at(p, ts, V @ c)
            except NumericOverflow:
                return iterates, f_seq, changes, (it, False, StepFailure.DIVERGED)
            c_next = left + k * (op.G @ f_vals)
            abs_next = np.abs(c_next)
            if not np.isfinite(c_next).all():
                return iterates, f_seq, changes, (it, False, StepFailure.DIVERGED)
            try:
                bound = math.fsum(abs_next.ravel().tolist())
            except OverflowError:
                bound = math.inf
            if bound > cap:
                return iterates, f_seq, changes, (it, False, StepFailure.DIVERGED)
            change = float(np.abs(c_next - c).max())
            c = c_next
            iterates.append(c)
            f_seq.append(f_vals)
            changes.append(change)
            if change <= atol or change <= FP_TOL * max(1.0, float(abs_next.max())):
                return iterates, f_seq, changes, (it, True, None)
    return iterates, f_seq, changes, (MAX_ITERS, False, StepFailure.MAX_ITERS)


def residual_rule(r):
    """The nodes (n,), quadrature L2 projection (r+1, n) onto degree r
    and its lift (r+2, n), the antiderivative from x = -1 per unit step
    length, on the residual's rule of ``basis(r)``, n = min(r + 4, 64)
    points, built by ``poly._rule`` as ``basis`` builds its rules.
    ``basis(r)`` keeps this rule's projection and lift at degree n - 1,
    which interpolates; the projection's first r + 1 rows are these."""
    nodes = residual_nodes(r)[0]
    _, _, proj, lift = _rule(nodes.size, r, r)
    return nodes, proj, lift


def step_f_vals(p, inp, u):
    """f (s, d) at the nodes of the step's rule of degree inp.r
    (``basis(r).step_offsets``) and at the values there of u, of degree
    at most r, under its own errstate: the node values that
    ``reconstruct`` lifts, evaluated at u instead of taken from a step,
    with the products and the time map that ``reconstruct`` used when it
    evaluated them itself, so its lift of them has the same bits."""
    b, iv = basis(inp.r), u.interval
    with np.errstate(over="ignore", invalid="ignore"):
        us = np.dot(b.step_V[:, : u.coeffs.shape[0]], u.coeffs)
        return rhs_at(p, _time_map(iv.t_start, iv.k, b.step_offsets), us)


def exact_reexpansions(r):
    """The exact re-expansion matrices (r+1, r+1) of a degree-r
    coefficient array: shift @ c continues c onto the next interval of
    equal length (x -> x + 2), halve @ c restricts it to the first half
    of its own (x -> (x - 1) / 2).  The kernel tests start Picard from
    these re-expansions of neighbouring steps."""
    nodes, proj, _ = residual_rule(r)
    shift = proj @ legendre.legvander(nodes + 2.0, r)
    halve = proj @ legendre.legvander(0.5 * (nodes - 1.0), r)
    return shift, halve


def residual_f_vals(p, u_hat):
    """f at the nodes of the residual's rule of u_hat (``residual_nodes``,
    mapped by ``from_reference``), with a matmul product: byte-equal
    oracle of the values the drivers pass to ``residual_estimator``."""
    nodes = residual_nodes(u_hat.degree)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        us = basis(u_hat.degree).res_V @ u_hat.coeffs
        return rhs_at(p, u_hat.interval.from_reference(nodes), us)


def reciprocal_fit(r, x):
    """The (s, n) map from node values on the residual's rule of a
    degree r + 1 reconstruction to the values, at the points x of the
    step's rule of degree r (``step_nodes``, in the reference coordinate
    of that reconstruction's interval), of their degree 2 projection."""
    _, proj, _ = residual_rule(r + 1)
    return legendre.legvander(x, 2) @ proj[:3]


def looks_like_a_pole(r, f_res):
    """The test of the reciprocal continuation (``SchemeOperator``):
    every component of f_res keeps one strict sign at every node, and
    its L = log|f| at the first, n // 4-th, middle and last residual
    nodes has a positive chord slope L' over the first, middle and last,
    a three-point L'' there with 1/4 <= L'' / L'^2 <= 5/4, and a positive
    third divided difference on all four."""
    x = residual_nodes(r + 1)[0]
    q, mid = x.size // 4, x.size // 2
    pts = [float(x[0]), float(x[q]), float(x[mid]), float(x[-1])]
    x0, _, x1, x2 = pts
    c1, c2 = 8.0 * (x2 - x0) / (x1 - x0), 8.0 * (x2 - x0) / (x2 - x1)
    for j in range(f_res.shape[1]):
        f = f_res[:, j]
        if not (np.all(f > 0.0) or np.all(f < 0.0)):
            return False
        l1 = math.log(float(f[mid]) / float(f[0]))
        l2 = math.log(float(f[-1]) / float(f[mid]))
        slope2 = (l1 + l2) * (l1 + l2)
        if not (l1 + l2 > 0.0 and slope2 <= c2 * l2 - c1 * l1 <= 5.0 * slope2):
            return False
        table = [0.0, math.log(float(f[q]) / float(f[0])), l1, l1 + l2]
        for order in (1, 2, 3):
            table = [
                (table[i + 1] - table[i]) / (pts[i + order] - pts[i])
                for i in range(len(table) - 1)
            ]
        if not table[0] > 0.0:
            return False
    return True


# what ``reciprocal_guess`` returns where the continued 1/f changes sign
POLE = "pole"


def reciprocal_guess(p, inp, u_hat, x):
    """a u_left^T + G (k / (R @ (1 / f_res))) with matmul products, R
    the ``reciprocal_fit`` at x and f_res the f values of the residual
    of u_hat, or None below degree ``galerkin._RECIPROCAL_MIN_DEGREE``
    and where the test fails or the guess is not finite, and ``POLE``
    where the fit changes a component's sign at a point of x: the
    reciprocal continuation of the drivers."""
    f_res = residual_f_vals(p, u_hat)
    if inp.r < _RECIPROCAL_MIN_DEGREE or not looks_like_a_pole(inp.r, f_res):
        return None
    op = picard_operator(inp.r, inp.scheme)
    with np.errstate(over="ignore", invalid="ignore"):
        fit = reciprocal_fit(inp.r, x) @ (1.0 / f_res)
        if not np.all(np.sign(fit) == np.sign(f_res[0])):
            return POLE
        guess = np.outer(op.a, inp.u_left) + op.G @ (inp.interval.k / fit)
    return guess if np.all(np.isfinite(guess)) else None


def start_guess(p, inp, u_hat, start):
    """a u_left^T + k H @ f_res with matmul products, H the row of
    ``start`` of ``SchemeOperator.H``, a, k and u_left those of the
    attempt ``inp`` and f_res the f values of the residual of the
    candidate u_hat (``residual_f_vals``): the drivers' polynomial first
    iterate of the attempt after u_hat.  That is the Picard update of
    ``inp`` from those values projected to degree r + 2 and continued
    onto the next interval of equal length (``Start.NEXT``) or its first
    half (``Start.NEXT_HALF``), or interpolated on the first half of
    u_hat's interval after an accuracy halving (``Start.HALVE``) or on
    all of it at the raised degree after a raise (``Start.RAISE``)."""
    op = picard_operator(inp.r, inp.scheme)
    return np.outer(op.a, inp.u_left) + inp.interval.k * (op.H[start] @ residual_f_vals(p, u_hat))


def next_interval_start(p, inp, u_hat, predicted=False):
    """How the drivers start the interval after the accepted
    reconstruction u_hat, its k halved on the prediction when predicted:
    the number of pole halvings before its first attempt ``inp``, and
    that attempt's first iterate.  On the full interval (``Start.NEXT``),
    the reciprocal continuation (``reciprocal_guess``) where it applies,
    else ``start_guess``; where it finds a pole, a halving and the same
    on the first half (``Start.NEXT_HALF``); where it finds a pole there
    too, a second halving and None, the constant start."""
    nodes = step_nodes(inp.r)[0]
    x = {Start.NEXT: nodes + 2.0, Start.NEXT_HALF: 0.5 * (nodes + 3.0)}
    starts = (Start.NEXT, Start.NEXT_HALF)[predicted:]
    for poles, start in enumerate(starts):
        guess = reciprocal_guess(p, inp, u_hat, x[start])
        if guess is not POLE:
            return poles, start_guess(p, inp, u_hat, start) if guess is None else guess
    return len(starts), None


def next_interval_guess(p, inp, u_hat):
    """The drivers' first iterate of the first attempt ``inp`` on the
    interval after the accepted reconstruction u_hat
    (``next_interval_start``).  Byte-equal oracle of the guess
    ``adapt._drive`` passes."""
    return next_interval_start(p, inp, u_hat)[1]


# The accept path as it was before its products moved from ``@`` to
# ``np.dot``: the same arithmetic with matmul products, the nodes mapped
# by ``from_reference``, each lift under its own errstate.  Kept as the
# bit-identity oracles of reconstruct, residual_estimator,
# LocalPoly.linf_norm, the growth of solve_delta and reconstruction_error.


def parent_cg_lift(p, u, u_left, r, f_vals=None, *, step=True):
    """``poly._cg_lift`` with matmul products and its own errstate, on
    the step's rule of degree r (``step_nodes``), as ``reconstruct``
    lifts, or on the residual's rule of ``basis(r)`` (``residual_nodes``)
    when not ``step``, as ``residual_estimator`` does.  Without f_vals it
    evaluates f at u on that rule itself, as ``_cg_lift`` once did: the
    reference that ``step_f_vals`` and ``residual_f_vals`` reproduce."""
    iv, b = u.interval, basis(r)
    if step:
        nodes, V, lift = step_nodes(r)[0], b.step_V, b.step_lift
    else:
        nodes, V, lift = residual_nodes(r)[0], b.res_V, b.res_lift
    with np.errstate(over="ignore", invalid="ignore"):
        if f_vals is None:
            f_vals = rhs_at(p, iv.from_reference(nodes), V[:, : u.coeffs.shape[0]] @ u.coeffs)
        coeffs = iv.k * (lift @ f_vals)
        coeffs[0] += u_left
    return coeffs


def parent_sup_norm(vals, axis):
    """``poly._sup_norm`` as it was before ``poly._norms``: from the plain
    square sums when the largest is a normal double, otherwise with every
    value scaled by the one power of two of the largest magnitude.  The
    caller holds the errstate."""
    sq = np.maximum.reduce(np.add.reduce(vals * vals, axis))
    if sys.float_info.min <= sq < math.inf:
        return math.sqrt(sq)
    return _parent_scaled_sup_norm(vals, axis)


def _parent_scaled_sup_norm(vals, axis):
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


def parent_node_norms(vals):
    """The node norms of ``estimator._growth_factory`` as they were before
    ``poly._norms``: the Euclidean norm of every row of vals (n, d), with
    ``np.sum`` of squares, and scaled row by row by a power of two when
    a square sum is not a normal double.  The caller holds the errstate."""
    sq = np.sum(vals**2, axis=1)
    listed = sq.tolist()
    if sys.float_info.min <= min(listed) and max(listed) < math.inf:
        return np.sqrt(sq)
    e = np.frexp(np.abs(vals).max(axis=1))[1]
    return np.ldexp(np.sqrt(np.sum(np.ldexp(vals, -e[:, None]) ** 2, axis=1)), e)


def parent_linf_norm(u):
    """``LocalPoly.linf_norm`` with a matmul product and ``parent_sup_norm``."""
    with np.errstate(over="ignore"):
        return parent_sup_norm(basis(u.degree).samples_V @ u.coeffs, 1)


def parent_reconstruct(p, inp, u, f_vals=None):
    """``galerkin.reconstruct`` on ``parent_cg_lift``."""
    coeffs = parent_cg_lift(p, u, inp.u_left, inp.r, f_vals)
    if not np.isfinite(coeffs).all():
        raise NumericOverflow(f"right-hand side of problem {p.name!r} overflowed")
    return LocalPoly(inp.interval, coeffs)


def parent_residual(p, u_hat, u_left, f_vals=None):
    """``estimator.residual_estimator`` on ``parent_cg_lift``, with a
    second errstate for the subtraction and ``parent_linf_norm``: the
    lift's last two rows are the tail's, the rows above them the
    residual polynomial, whose sampled sup is scaled by ``ehlich_zeller``
    and the tail's two ``math.hypot``s added."""
    u_left = np.atleast_1d(np.asarray(u_left, dtype=float))
    lifted = parent_cg_lift(p, u_hat, u_left, u_hat.degree, f_vals, step=False)
    with np.errstate(over="ignore"):
        lifted[: u_hat.coeffs.shape[0]] -= u_hat.coeffs
    if not np.isfinite(lifted).all():
        raise NumericOverflow(f"residual of problem {p.name!r} overflowed")
    res = LocalPoly(u_hat.interval, lifted[:-2])
    sup = parent_linf_norm(res) * ehlich_zeller(res.degree, lifted.shape[1])
    return sup + (math.hypot(*lifted[-2]) + math.hypot(*lifted[-1]))


def parent_growth_factory(p, iv, u_hat, psi):
    """``estimator._growth_factory`` with a matmul product, ``np.sum`` of
    squares and the nodes of the growth rule (``growth_nodes``) mapped by
    ``from_reference``; same signature, so it can stand in for it inside
    ``solve_delta``."""
    b = basis(u_hat.degree)
    ts = iv.from_reference(growth_nodes(u_hat.degree)[0])
    u_norms = parent_node_norms(b.grow_V @ u_hat.coeffs)
    w = iv.k * b.grow_w

    def growth(delta):
        try:
            exponent = float(np.dot(w, lip_at(p, ts, delta * psi + u_norms, u_norms)))
            return math.exp(exponent) if math.isfinite(exponent) else math.inf
        except (NumericOverflow, OverflowError):
            return math.inf

    return growth


def parent_reconstruction_error(p, u_hat):
    """``estimator.reconstruction_error`` with a matmul product and
    ``parent_sup_norm``."""
    b = basis(u_hat.degree)
    ts = u_hat.interval.from_reference(b.samples)
    with np.errstate(over="ignore", invalid="ignore"):
        uh = (b.samples_V @ u_hat.coeffs).T
        ex = np.asarray(p.exact(ts), dtype=float)
        return parent_sup_norm(ex - uh, 0)


def dense_residual_sup(p, u_hat, panels=1000, points=8):
    """The largest Euclidean norm of the integral residual R(t) =
    int_{t_start}^t f(s, uhat) ds - (uhat(t) - uhat(t_start)) at the
    panel ends of ``panels`` equal panels of u_hat's interval, with the
    integral by the ``points``-point Gauss-Legendre rule on each panel:
    a dense reference for ``residual_estimator``, independent of its
    rule and of its sampling."""
    g, w = legendre.leggauss(points)
    ends = np.linspace(-1.0, 1.0, panels + 1)
    half = 0.5 * (ends[1:] - ends[:-1])
    xs = ((0.5 * (ends[1:] + ends[:-1]))[:, None] + half[:, None] * g).ravel()
    iv, coeffs = u_hat.interval, u_hat.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        f = checked_rhs(p, iv.from_reference(xs), legendre.legval(xs, coeffs).T)
        panel = 0.5 * iv.k * np.einsum("pq,pqd->pd", half[:, None] * w, f.reshape(panels, points, -1))
        values = legendre.legval(ends, coeffs).T
        res = np.cumsum(panel, axis=0) - (values[1:] - values[0])
        return float(np.sqrt((res * res).sum(axis=1)).max())
