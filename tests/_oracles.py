"""Independent brute-force oracles and a closed-form problem shared by
the test modules."""

import math

import numpy as np
from numpy.polynomial import legendre

from hpgalerkin.galerkin import (
    _FLOAT_MAX,
    FP_TOL,
    MAX_ITERS,
    Scheme,
    StepFailure,
    StepInput,
    StepOutput,
    picard_operator,
)
from hpgalerkin.poly import LocalPoly, basis, gauss_legendre, project_values
from hpgalerkin.problems import NumericOverflow, Problem, rhs_at


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
    q = gauss_legendre(n_quad)
    ts = np.linspace(iv.t_start, iv.t_end, n_samples)[1:]
    half = 0.5 * (ts - iv.t_start)              # (S,)
    nodes = (iv.t_start + half[:, None]) + half[:, None] * q.nodes[None, :]  # (S, nq)
    flat = nodes.ravel()
    f_vals = checked_rhs(p, flat, u_hat(flat).T).reshape(n_samples - 1, n_quad, -1)
    integrals = half[:, None] * np.einsum("q,sqd->sd", q.weights, f_vals)
    u0 = u_hat(iv.t_start)
    gaps = u_hat(ts).T - u0[None, :]
    return float(np.max(np.linalg.norm(integrals - gaps, axis=1)))


def _reference_dg_matrix_inverse(r):
    """Inverse of the dG system matrix, entry (j, i) = int P_i' P_j dx
    + P_i(-1) P_j(-1), assembled by quadrature rather than closed form."""
    q = gauss_legendre(r + 2)
    eye = np.eye(r + 1)
    P = np.stack([legendre.legval(q.nodes, eye[i]) for i in range(r + 1)])  # (basis, node)
    dP = np.stack([legendre.legval(q.nodes, legendre.legder(eye[i])) for i in range(r + 1)])
    left = (-1.0) ** np.arange(r + 1)
    M = (q.weights * P) @ dP.T + np.outer(left, left)
    return np.linalg.inv(M)


def reference_step(p, inp, cfg, atol=0.0):
    """One cG/dG step by the per-iteration Picard loop: a LocalPoly per
    iterate, project_values, antiderivative or the dG solve, and the
    sampled sup norm against cfg.divergence_cap on every iteration; an
    iterate at which f is not finite (``checked_rhs``) diverges.  The
    relative stopping tolerance 1e-12 and the budget of 100 iterations
    are written out here, not read from the program; the iteration also
    stops at a change of at most ``atol``, as ``step`` does.
    Returns (u, picard_iters, converged, failure) with the same meaning
    as StepOutput."""
    r, iv, u_left = inp.r, inp.interval, inp.u_left
    fp_tol, max_iters = 1e-12, 100
    quad = gauss_legendre(min(r + 6, 64))
    ts = iv.from_reference(quad.nodes)
    coeffs = np.zeros((r + 1, u_left.size))
    coeffs[0] = u_left
    u = LocalPoly(iv, coeffs)
    cg = inp.scheme is Scheme.CG
    j = np.arange(r + 1)
    Minv = None if cg else _reference_dg_matrix_inverse(r)
    for it in range(1, max_iters + 1):
        try:
            f_vals = checked_rhs(p, ts, u.at_reference(quad.nodes).T)
        except NumericOverflow:
            return u, it, False, StepFailure.DIVERGED
        f_proj = project_values(f_vals, iv, r - 1 if cg else r, quad)
        if cg:
            u_next = f_proj.antiderivative(u_left)
        else:
            rhs = ((-1.0) ** j)[:, None] * u_left[None, :]
            rhs = rhs + iv.k * f_proj.coeffs / (2.0 * j + 1.0)[:, None]
            u_next = LocalPoly(iv, Minv @ rhs)
        change = float(np.max(np.abs(u_next.coeffs - u.coeffs)))
        scale = max(1.0, float(np.max(np.abs(u_next.coeffs))))
        u = u_next
        if u.linf_norm() > cfg.divergence_cap:
            return u, it, False, StepFailure.DIVERGED
        if change <= atol or change <= fp_tol * scale:
            return u, it, True, None
    return u, max_iters, False, StepFailure.MAX_ITERS


def reference_reconstruct(p, inp, u):
    """Degree r+1 reconstruction by project_values + antiderivative."""
    iv = inp.interval
    quad = gauss_legendre(min(inp.r + 6, 64))
    f_vals = checked_rhs(p, iv.from_reference(quad.nodes), u.at_reference(quad.nodes).T)
    return project_values(f_vals, iv, inp.r, quad).antiderivative(inp.u_left)


def reference_residual(p, u_hat, u_left, extra_degree=4):
    """Residual sup norm by project_values + antiderivative at degree
    deg(uhat) + extra_degree, minus uhat, sampled as LocalPoly.linf_norm."""
    iv = u_hat.interval
    r_q = u_hat.degree + extra_degree
    quad = gauss_legendre(min(r_q + 6, 64))
    f_vals = checked_rhs(p, iv.from_reference(quad.nodes), u_hat.at_reference(quad.nodes).T)
    accum = project_values(f_vals, iv, r_q, quad).antiderivative(np.asarray(u_left, dtype=float))
    res = accum.coeffs.copy()
    res[: u_hat.coeffs.shape[0]] -= u_hat.coeffs
    return LocalPoly(iv, res).linf_norm()


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
    """(theta, smooth) by r-1 LocalPoly derivatives, Parseval L2 norms and
    the sampled sup norm of the (r-1)-th derivative w."""
    w = u
    for _ in range(r - 1):
        w = w.derivative()
    if float(np.max(np.abs(w.coeffs))) <= 1e-14 * float(np.max(np.abs(u.coeffs))):
        return 1.0, True
    k = u.interval.k
    denom = w.l2_norm() / math.sqrt(k) + math.sqrt(k) * w.derivative().l2_norm() / math.sqrt(2.0)
    theta = min(max(w.linf_norm() / denom, 0.0), 1.0)
    return theta, theta >= theta_star


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
    p: Problem, inp: StepInput, c: np.ndarray, cap: float, *, atol: float = 0.0
) -> StepOutput:
    """The Picard loop of ``galerkin.step`` as it was before its
    dispatch-lean rewrite, kept verbatim as the bit-identity oracle of
    ``galerkin._picard`` (same signature, so it can stand in for it),
    with two additions: the absolute stop ``atol``, and the f values of
    the converging update in the returned StepOutput.

    One errstate covers the whole loop.  The bound sum |c_next| that the
    cap test needs reads every overflow as well: each coefficient of
    G @ f involves every node value of f, so one non-finite f value, or
    an update that overflows, leaves c_next non-finite and the bound inf
    or nan, which fails ``bound <= min(cap, float max)`` under any cap.
    Only then does the loop look at the coefficients.
    """
    iv, b = inp.interval, basis(inp.r)
    a, G = picard_operator(inp.r, inp.scheme)
    k, ts, V = iv.k, iv.from_reference(b.nodes), b.V
    left = np.outer(a, inp.u_left)
    limit = min(cap, _FLOAT_MAX)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, MAX_ITERS + 1):
            try:
                f_vals = rhs_at(p, ts, V @ c)
            except NumericOverflow:
                return StepOutput(LocalPoly(iv, c), it, False, StepFailure.DIVERGED)
            c_next = left + k * (G @ f_vals)
            abs_next = np.abs(c_next)
            # sup_t |U(t)| <= sum |c| because |P_i| <= 1: sample only above the cap
            bound = float(abs_next.sum())
            change = float(np.abs(c_next - c).max())
            if not bound <= limit:
                if not np.isfinite(c_next).all():
                    # f or the update left double range: diverged, reported
                    # at the last finite iterate
                    return StepOutput(LocalPoly(iv, c), it, False, StepFailure.DIVERGED)
                u = LocalPoly(iv, c_next)
                if u.linf_norm() > cap:
                    return StepOutput(u, it, False, StepFailure.DIVERGED)
            c = c_next
            # max|c| <= sum|c|: the scale max|c| is needed only when the
            # bound's scale passes, and the decision is the same
            if change <= atol or (
                change <= FP_TOL * max(1.0, bound)
                and change <= FP_TOL * max(1.0, float(abs_next.max()))
            ):
                return StepOutput(LocalPoly(iv, c), it, True, f_vals=f_vals)
    return StepOutput(LocalPoly(iv, c), MAX_ITERS, False, StepFailure.MAX_ITERS)
