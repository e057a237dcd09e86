"""Independent brute-force oracles shared by the test modules."""

import math

import numpy as np
from numpy.polynomial import legendre

from hpgalerkin.galerkin import Scheme, StepFailure
from hpgalerkin.poly import LocalPoly, _linf_sample_points, gauss_legendre, project_values
from hpgalerkin.problems import NumericOverflow, rhs_at


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
    f_vals = rhs_at(p, flat, u_hat(flat).T).reshape(n_samples - 1, n_quad, -1)
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


def reference_step(p, inp, cfg, quad=None):
    """One cG/dG step by the per-iteration Picard loop: a LocalPoly per
    iterate, project_values, antiderivative or the dG solve, and the
    sampled sup norm against the divergence cap on every iteration.
    Returns (u, picard_iters, converged, failure) with the same meaning
    as StepOutput."""
    r, iv, u_left = inp.r, inp.interval, inp.u_left
    if quad is None:
        quad = gauss_legendre(min(r + 6, 64))
    ts = iv.from_reference(quad.nodes)
    coeffs = np.zeros((r + 1, u_left.size))
    coeffs[0] = u_left
    u = LocalPoly(iv, coeffs)
    cg = inp.scheme is Scheme.CG
    j = np.arange(r + 1)
    Minv = None if cg else _reference_dg_matrix_inverse(r)
    for it in range(1, cfg.max_iters + 1):
        try:
            f_vals = rhs_at(p, ts, u.at_reference(quad.nodes).T)
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
        if change <= cfg.fp_tol * scale:
            return u, it, True, None
    return u, cfg.max_iters, False, StepFailure.MAX_ITERS


def reference_reconstruct(p, inp, u, quad=None):
    """Degree r+1 reconstruction by project_values + antiderivative."""
    iv = inp.interval
    if quad is None:
        quad = gauss_legendre(min(inp.r + 6, 64))
    f_vals = rhs_at(p, iv.from_reference(quad.nodes), u.at_reference(quad.nodes).T)
    return project_values(f_vals, iv, inp.r, quad).antiderivative(inp.u_left)


def reference_residual(p, u_hat, u_left, extra_degree=4):
    """Residual sup norm by project_values + antiderivative at degree
    deg(uhat) + extra_degree, minus uhat, sampled as LocalPoly.linf_norm."""
    iv = u_hat.interval
    r_q = u_hat.degree + extra_degree
    quad = gauss_legendre(min(r_q + 6, 64))
    f_vals = rhs_at(p, iv.from_reference(quad.nodes), u_hat.at_reference(quad.nodes).T)
    accum = project_values(f_vals, iv, r_q, quad).antiderivative(np.asarray(u_left, dtype=float))
    res = accum.coeffs.copy()
    res[: u_hat.coeffs.shape[0]] -= u_hat.coeffs
    return LocalPoly(iv, res).linf_norm()


def reference_reconstruction_error(p, u_hat):
    """Sampled sup norm of exact - uhat by one scalar exact(t) call per
    sample point, stacked column by column."""
    xs = _linf_sample_points(u_hat.degree)
    ts = u_hat.interval.from_reference(xs)
    ex = np.stack([np.atleast_1d(np.asarray(p.exact(t), dtype=float)) for t in ts], axis=1)
    return float(np.max(np.sqrt(np.sum((ex - u_hat.at_reference(xs)) ** 2, axis=0))))


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
