
import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import legendre

import hpgalerkin.adapt as adapt
import hpgalerkin.estimator as estimator
import hpgalerkin.galerkin as galerkin
from hpgalerkin.adapt import AdaptConfig, Mode
from hpgalerkin.estimator import reconstruction_error, residual_estimator, solve_delta
from hpgalerkin.galerkin import (
    MAX_GROWING,
    MAX_ITERS,
    PicardConfig,
    Scheme,
    Start,
    StepFailure,
    StepInput,
    picard_operator,
    reconstruct,
    step,
)
from hpgalerkin.poly import _STEP_EXTRA_POINTS, Interval, LocalPoly, basis
from hpgalerkin.problems import (
    NumericOverflow,
    Problem,
    make_exponential,
    make_linear,
    make_power_square,
)

from _oracles import (
    _reference_dg_matrix_inverse,
    antiderivative,
    change_only_sweep,
    constant,
    derivative,
    exact_reexpansions,
    next_interval_guess,
    parent_growth_factory,
    parent_linf_norm,
    parent_picard,
    parent_reconstruct,
    parent_reconstruction_error,
    parent_residual,
    project_values,
    reference_reconstruct,
    reference_residual,
    reference_step,
    residual_f_vals,
    residual_nodes,
    shrink_by,
    start_guess,
    step_f_vals,
    step_nodes,
)


def zero_rhs(dim=1):
    return Problem(
        dim=dim,
        u0=np.zeros(dim),
        f=lambda t, u: np.zeros_like(u),
        lip=lambda t, a, b: 0.0,
    )


class TestStepBasics:
    @pytest.mark.parametrize("scheme,r", [(Scheme.CG, 1), (Scheme.CG, 3), (Scheme.DG, 0), (Scheme.DG, 2)])
    def test_zero_rhs_returns_constant(self, scheme, r):
        c = np.array([1.5, -2.0])
        out = step(zero_rhs(2), StepInput(Interval(0.0, 0.5), r, c, scheme))
        assert out.converged
        assert out.picard_iters <= 2
        np.testing.assert_allclose(out.u(0.3), c, atol=1e-15)

    def test_dg0_is_implicit_euler(self):
        # hand-derived: (u1 - u_left) = lam*k*u1  =>  u1 = u_left/(1 - lam*k)
        lam, k = 1.3, 0.07
        p = make_linear(lam, [1.0])
        out = step(p, StepInput(Interval(0.0, k), 0, np.array([1.0]), Scheme.DG))
        assert out.converged
        np.testing.assert_allclose(out.u(k / 3), [1.0 / (1.0 - lam * k)], rtol=1e-12)

    def test_cg_constant_rhs_exact(self):
        p = Problem(dim=1, u0=np.zeros(1), f=lambda t, u: np.array([1.0]), lip=lambda t, a, b: 0.0)
        out = step(p, StepInput(Interval(0.0, 1.0), 1, np.array([0.0]), Scheme.CG))
        assert out.converged
        np.testing.assert_allclose(out.u(0.25), [0.25], atol=1e-14)
        np.testing.assert_allclose(out.u(1.0), [1.0], atol=1e-14)

    def test_cg_continuity_at_left_endpoint(self):
        p = make_power_square(1.0)
        inp = StepInput(Interval(0.2, 0.3), 2, np.array([1.25]), Scheme.CG)
        out = step(p, inp)
        assert out.converged
        np.testing.assert_allclose(out.u(0.2), [1.25], atol=1e-14)

    def test_cg_needs_degree_one(self):
        with pytest.raises(ValueError):
            StepInput(Interval(0.0, 1.0), 0, np.array([1.0]), Scheme.CG)

    def test_dg_allows_degree_zero(self):
        StepInput(Interval(0.0, 1.0), 0, np.array([1.0]), Scheme.DG)

    def test_weak_quadrature_rejected(self):
        # above MAX_DEGREE the reconstruction's residual would be
        # interpolated below degree deg + 4 on the 64 points of the
        # largest Gauss-Legendre rule
        from hpgalerkin.galerkin import MAX_DEGREE

        p = make_linear(1.0, [1.0])
        inp = StepInput(Interval(0.0, 0.1), MAX_DEGREE + 1, np.array([1.0]), Scheme.DG)
        with pytest.raises(ValueError, match="cap 58"):
            step(p, inp)


class TestNonexistence:
    def test_divergence_on_oversized_step(self):
        # far beyond the blow-up time of u' = u^2, u(0) = 1
        p = make_power_square(1.0)
        out = step(p, StepInput(Interval(0.0, 5.0), 1, np.array([1.0]), Scheme.CG))
        assert not out.converged
        assert out.failure in (StepFailure.DIVERGED, StepFailure.MAX_ITERS)

    def test_max_iters_reported(self):
        # for u' = -u on k = 2, the r = 1 cG update maps the slope s to
        # -u_left - s, which flips between 0 and -1 forever, so the fixed
        # budget of 100 iterations runs out
        p = make_linear(-1.0, [1.0])
        out = step(p, StepInput(Interval(0.0, 2.0), 1, np.array([1.0]), Scheme.CG))
        assert not out.converged
        assert out.failure is StepFailure.MAX_ITERS
        assert out.picard_iters == MAX_ITERS == 100

    def test_near_blowup_steps_converge(self):
        # k*|u| = 0.1 keeps every step strongly contractive, while |u| up
        # to 1e9 puts the coefficient roundoff far above an absolute 1e-12;
        # the stopping test must scale with the iterate to accept them
        p = make_power_square(1.0)
        cfg = PicardConfig(divergence_cap=1e12)
        failed, iters = [], []
        for scheme in (Scheme.CG, Scheme.DG):
            for r in range(1, 7):
                for u_left in np.logspace(4, 9, 21):
                    k = 0.1 / u_left
                    out = step(p, StepInput(Interval(0.0, k), r, np.array([u_left]), scheme), cfg)
                    if out.converged:
                        iters.append(out.picard_iters)
                    else:
                        failed.append((scheme.value, r, f"{u_left:.3g}", out.failure))
        assert not failed, f"{len(failed)} of 252 steps failed: {failed}"
        assert max(iters) <= 20

    def test_divergence_cap(self):
        p = make_power_square(1.0)
        cfg = PicardConfig(divergence_cap=0.5)
        out = step(p, StepInput(Interval(0.0, 0.01), 1, np.array([1.0]), Scheme.CG), cfg)
        assert not out.converged
        assert out.failure is StepFailure.DIVERGED


class TestPicardConfig:
    @pytest.mark.parametrize("value", [True, False, np.True_, "1e8", None])
    def test_cap_must_be_a_number(self, value):
        # a bool would build as 1 or 0, a string would meet `>` as a TypeError
        with pytest.raises(ValueError, match=f"divergence_cap must be a real number, got {value!r}"):
            PicardConfig(divergence_cap=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, -math.inf])
    def test_cap_must_be_positive(self, value):
        with pytest.raises(ValueError, match="divergence_cap must be positive"):
            PicardConfig(divergence_cap=value)

    @pytest.mark.parametrize("value", [math.inf, np.float64(1e8), np.inf, 5, np.float32(1e8)])
    def test_numbers_accepted(self, value):
        cap = PicardConfig(divergence_cap=value).divergence_cap
        assert cap == value and type(cap) is float

    def test_integer_past_double_range_is_infinite(self):
        # as JSON reads 1e400; -(10**400) fails the positive test above
        assert PicardConfig(divergence_cap=10**400).divergence_cap == math.inf
        with pytest.raises(ValueError, match="divergence_cap must be positive"):
            PicardConfig(divergence_cap=-(10**400))


def poisoned_power_square(bad, at_call):
    """u' = u^2 whose f_batch returns ``bad`` at one node from its
    ``at_call``-th call on; each Problem counts its own calls."""
    calls = [0]

    def f_batch(ts, us):
        calls[0] += 1
        vals = us * us
        if calls[0] >= at_call:
            vals[len(ts) // 2] = bad
        return vals

    return dataclasses.replace(make_power_square(1.0), f_batch=f_batch)


OVERFLOW_SCHEMES = [(Scheme.CG, 1), (Scheme.DG, 0), (Scheme.CG, 3)]


class TestOverflow:
    """f or the Picard update leaving double range: the step diverges,
    the reconstruction and residual raise NumericOverflow."""

    @pytest.mark.parametrize("scheme,r", OVERFLOW_SCHEMES + [(Scheme.DG, 2)])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("at_call", [1, 3])
    def test_non_finite_f_matches_reference(self, scheme, r, bad, at_call):
        inp = StepInput(Interval(0.0, 0.05), r, np.array([1.0]), scheme)
        cfg = PicardConfig()
        out = step(poisoned_power_square(bad, at_call), inp, cfg)
        ref = reference_step(poisoned_power_square(bad, at_call), inp, cfg)
        assert ref[1:] == (at_call, False, StepFailure.DIVERGED)
        assert_same_step(out, ref, 1e-13)

    @pytest.mark.parametrize("scheme,r", OVERFLOW_SCHEMES)
    def test_raising_scalar_f_matches_reference(self, scheme, r):
        # a scalar f that raises NumericOverflow above u = 709 itself
        def f(t, u):
            if np.any(u > 709.0):
                raise NumericOverflow("exp right-hand side overflowed")
            return np.exp(u)

        p = dataclasses.replace(make_exponential(1.0), f=f, f_batch=None, lip_batch=None)
        inp = StepInput(Interval(0.0, 1e-300), r, np.array([705.0]), scheme)
        out, ref = step(p, inp), reference_step(p, inp, PicardConfig())
        assert ref[1:] == (2, False, StepFailure.DIVERGED)
        assert_same_step(out, ref, 1e-13)

    @pytest.mark.parametrize("scheme,r", OVERFLOW_SCHEMES)
    @pytest.mark.parametrize("cap", [1e308, np.inf])
    def test_overflowing_update_diverges(self, scheme, r, cap):
        # f = 1.5e308 is finite, but u_left + k f is not
        p = make_linear(1.0, [1.5e308])
        inp = StepInput(Interval(0.0, 1.0), r, p.u0, scheme)
        out = step(p, inp, PicardConfig(divergence_cap=cap))
        assert (out.converged, out.failure, out.picard_iters) == (False, StepFailure.DIVERGED, 1)
        # reported at the last finite iterate, the constant start
        np.testing.assert_array_equal(out.u.coeffs[0], p.u0)
        assert not out.u.coeffs[1:].any()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_reconstruct_and_residual_raise(self, bad):
        iv = Interval(0.0, 0.05)
        inp = StepInput(iv, 2, np.array([1.0]), Scheme.CG)
        u = step(make_power_square(1.0), inp).u
        p = poisoned_power_square(bad, 1)
        f_vals = step_f_vals(p, inp, u)
        with pytest.raises(NumericOverflow):
            reconstruct(p, inp, f_vals)
        clean = make_power_square(1.0)
        u_hat = reconstruct(clean, inp, step_f_vals(clean, inp, u))
        f_res = residual_f_vals(p, u_hat)
        with pytest.raises(NumericOverflow):
            residual_estimator(p, u_hat, inp.u_left, f_res)

    def test_overflowing_lift_raises(self):
        # f = 1e308 is finite, but the lifted coefficients are not
        p = make_linear(1.0, [1e308])
        inp = StepInput(Interval(0.0, 10.0), 1, p.u0, Scheme.CG)
        u = constant(inp.interval, p.u0, degree=1)
        f_vals, f_res = step_f_vals(p, inp, u), residual_f_vals(p, u)
        with pytest.raises(NumericOverflow):
            reconstruct(p, inp, f_vals)
        with pytest.raises(NumericOverflow):
            residual_estimator(p, u, inp.u_left, f_res)


class TestReconstruction:
    def test_zero_rhs(self):
        c = np.array([2.0])
        inp = StepInput(Interval(0.0, 1.0), 1, c, Scheme.CG)
        out = step(zero_rhs(), inp)
        u_hat = reconstruct(zero_rhs(), inp, step_f_vals(zero_rhs(), inp, out.u))
        assert u_hat.degree == 2
        np.testing.assert_allclose(u_hat(0.6), c, atol=1e-15)

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG])
    @pytest.mark.parametrize("make,u0", [(make_power_square, 1.0), (make_exponential, 0.5)])
    def test_nodal_identity(self, scheme, make, u0):
        p = make(u0)
        r = 1 if scheme is Scheme.CG else 0
        for r_add in range(3):
            inp = StepInput(Interval(0.1, 0.2), r + r_add, np.array([u0]), scheme)
            out = step(p, inp)
            assert out.converged
            u_hat = reconstruct(p, inp, step_f_vals(p, inp, out.u))
            np.testing.assert_allclose(u_hat(0.2), out.u(0.2), atol=1e-10)
            np.testing.assert_allclose(u_hat(0.1), [u0], atol=1e-13)

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_dg_weak_form_holds(self, r):
        # test the converged step against every basis polynomial:
        # int U' V dt + (U(t0+) - u_left) V(t0+) = int f(t,U) V dt
        from hpgalerkin.problems import rhs_at

        p = make_power_square(1.0)
        iv = Interval(0.0, 0.1)
        out = step(p, StepInput(iv, r, np.array([1.0]), Scheme.DG))
        assert out.converged
        # the weak form of the step's own rule
        nodes, weights = legendre.leggauss(r + _STEP_EXTRA_POINTS)
        du_vals = legendre.legval(nodes, derivative(out.u).coeffs)[0]
        f_vals = rhs_at(p, iv.from_reference(nodes), legendre.legval(nodes, out.u.coeffs).T)[:, 0]
        jump = out.u(iv.t_start)[0] - 1.0
        for j in range(r + 1):
            basis = legendre.legval(nodes, np.eye(r + 1)[j])
            lhs = 0.5 * iv.k * float(np.dot(weights * basis, du_vals))
            rhs = 0.5 * iv.k * float(np.dot(weights * basis, f_vals))
            assert abs(lhs + jump * (-1.0) ** j - rhs) < 1e-10

    def test_dg0_sequence_matches_implicit_euler(self):
        lam, k, m_steps = 0.9, 0.05, 12
        p = make_linear(lam, [1.0])
        u_left = np.array([1.0])
        for m in range(1, m_steps + 1):
            inp = StepInput(Interval((m - 1) * k, m * k), 0, u_left, Scheme.DG)
            out = step(p, inp)
            assert out.converged
            u_left = out.u(m * k)
            np.testing.assert_allclose(u_left, [(1.0 - lam * k) ** (-m)], atol=1e-10)


class TestStepRule:
    """The step's rule of r + 1 Gauss points is the smallest that fixes
    its update: for f = q(t) of degree r + 1, independent of u, one step
    returns the exact Galerkin update, which a rule of r points misses."""

    CASES = [(Scheme.DG, r) for r in range(13)] + [(Scheme.CG, r) for r in range(1, 13)]

    @staticmethod
    def update_on(scheme, r, iv, u_left, q, n):
        """The update of degree r for the f whose Legendre coefficients on
        iv are q, with f projected on the n-point Gauss-Legendre rule:
        onto degree r - 1 and integrated from u_left (cG), or onto degree
        r and solved with the dG matrix (``reference_step``)."""
        nodes, weights = legendre.leggauss(n)
        cg = scheme is Scheme.CG
        proj = project_values(legendre.legval(nodes, q).T, iv, r - 1 if cg else r, nodes, weights)
        if cg:
            return antiderivative(proj, u_left).coeffs
        j = np.arange(r + 1)
        rhs = ((-1.0) ** j)[:, None] * u_left + iv.k * proj.coeffs / (2.0 * j + 1.0)[:, None]
        return _reference_dg_matrix_inverse(r) @ rhs

    @pytest.mark.parametrize("scheme,r", CASES, ids=[f"{s.value}-{r}" for s, r in CASES])
    def test_exact_for_f_of_degree_r_plus_1(self, scheme, r):
        rng = np.random.default_rng(100 * r + (scheme is Scheme.CG))
        iv, u_left = Interval(0.3, 1.0), rng.standard_normal(2)
        q = rng.standard_normal((r + 2, 2))

        def f_batch(ts, us):
            return legendre.legval(iv.to_reference(ts), q).T

        p = Problem(
            dim=2, u0=u_left, f=lambda t, u: f_batch(np.array([t]), None)[0],
            lip=lambda t, a, b: 0.0, f_batch=f_batch,
        )
        out = step(p, StepInput(iv, r, u_left, scheme))
        assert out.converged
        # r + 8 points integrate q P_i exactly for every i <= r
        exact = self.update_on(scheme, r, iv, u_left, q, r + 8)
        scale = max(np.abs(exact).max(), np.abs(u_left).max(), iv.k * np.abs(q).sum(axis=0).max())
        assert np.abs(out.u.coeffs - exact).max() <= 16.0 * sys.float_info.epsilon * scale
        if r == 0:
            # dG(0) steps on the 1-point midpoint rule
            assert basis(0).step_offsets.tolist() == [1.0]
        else:
            assert np.abs(self.update_on(scheme, r, iv, u_left, q, r) - exact).max() > 1e-5 * scale


class TestAccuracy:
    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_observed_order(self, scheme, r):
        p = make_linear(1.0, [1.0])
        errors = []
        ks = [0.25, 0.125, 0.0625, 0.03125]
        for k in ks:
            u_left = np.array([1.0])
            err = 0.0
            m = int(round(1.0 / k))
            for i in range(m):
                iv = Interval(i * k, (i + 1) * k)
                out = step(p, StepInput(iv, r, u_left, scheme))
                assert out.converged
                samples = np.linspace(iv.t_start, iv.t_end, 17)
                vals = out.u(samples)[0]
                exact = np.exp(samples)
                err = max(err, float(np.max(np.abs(vals - exact))))
                u_left = out.u(iv.t_end)
            errors.append(err)
        order = float(np.polyfit(np.log(ks), np.log(errors), 1)[0])
        assert order >= r + 0.8, f"observed order {order:.2f} below {r}+0.8"

    def test_picard_determinism(self):
        p = make_power_square(1.0)
        inp = StepInput(Interval(0.0, 0.125), 3, np.array([1.0]), Scheme.DG)
        out1 = step(p, inp)
        out2 = step(p, inp)
        assert out1.picard_iters == out2.picard_iters
        assert np.array_equal(out1.u.coeffs, out2.u.coeffs)


def norm_square(dim=2):
    """f(u) = |u| u in R^dim: blows up like u^2 along the direction of u0."""
    return Problem(
        dim=dim,
        u0=np.full(dim, dim**-0.5),
        f=lambda t, u: np.linalg.norm(u) * u,
        lip=lambda t, a, b: 2.0 * max(a, b),
        f_batch=lambda ts, us: np.linalg.norm(us, axis=1)[:, None] * us,
    )


def forced_decay():
    """f(t, u) = 5 cos(12 t) - u: the solution turns inside a step of
    length 0.4, so its sup norm sits strictly below the sum of |c|."""
    return Problem(
        dim=1,
        u0=np.array([0.9]),
        f=lambda t, u: 5.0 * np.cos(12.0 * t) - u,
        lip=lambda t, a, b: 1.0,
        f_batch=lambda ts, us: 5.0 * np.cos(12.0 * ts)[:, None] - us,
    )


SCHEME_DEGREES = [(Scheme.CG, r) for r in range(1, 9)] + [(Scheme.DG, r) for r in range(0, 9)]


def sweep_iterates(monkeypatch, p, inp):
    """The iterates of the sweep of ``step`` from u_left under no cap,
    read one by one by cutting its budget at 1, 2, ... updates: the
    program's own arrays, bit for bit (from u_left the step runs that one
    sweep)."""
    cfg, iterates = PicardConfig(divergence_cap=math.inf), []
    with monkeypatch.context() as m:
        for n in range(1, MAX_ITERS + 1):
            m.setattr(galerkin, "MAX_ITERS", n)
            out = step(p, inp, cfg)
            assert out.picard_iters == n
            iterates.append(out.u.coeffs)
            if out.converged:
                return iterates
    raise AssertionError("the sweep did not converge")


def largest_sum(iterates):
    """The largest exact sum |c| over the iterates (``math.fsum``)."""
    return max(math.fsum(np.abs(c).ravel().tolist()) for c in iterates)


def assert_same_step(out, ref, atol_scale):
    u, iters, converged, failure = ref
    assert (out.picard_iters, out.converged, out.failure) == (iters, converged, failure)
    scale = max(1.0, float(np.max(np.abs(u.coeffs))))
    assert np.max(np.abs(out.u.coeffs - u.coeffs)) <= atol_scale * scale


class TestAgainstReferenceLoop:
    """The affine operator against the per-iteration LocalPoly loop it
    replaced (``_oracles.reference_step``): same decisions at every
    iteration, coefficients equal up to roundoff."""

    @pytest.mark.parametrize("scheme,r", SCHEME_DEGREES, ids=lambda v: getattr(v, "value", v))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_step_matches_reference(self, scheme, r, dim):
        # k|u_left| from strongly contractive through the u^2 blow-up
        # threshold at 1 to strongly divergent
        if dim == 1:
            p, u_left = make_power_square(1.0), np.array([1.37])
        else:
            p, u_left = norm_square(), np.array([0.71, -1.19])
        cfg = PicardConfig()
        for k_u in (0.01, 0.1, 0.4, 0.9, 1.3, 3.0, 10.0):
            k = k_u / float(np.linalg.norm(u_left))
            inp = StepInput(Interval(0.1, 0.1 + k), r, u_left, scheme)
            out, ref = step(p, inp, cfg), reference_step(p, inp, cfg)
            # A failed iterate is discarded by every caller; while the map
            # expands, each iteration amplifies the last-bit difference of
            # the two update formulas (up to 1.5e-10 after 27 iterations
            # at k|u| = 0.9), so only converged steps get the roundoff bound.
            assert_same_step(out, ref, 1e-13 if ref[2] else 1e-9)
            if out.converged:
                u_hat = reconstruct(p, inp, step_f_vals(p, inp, out.u))
                u_ref = reference_reconstruct(p, inp, ref[0])
                scale = max(1.0, float(np.max(np.abs(u_ref.coeffs))))
                assert np.max(np.abs(u_hat.coeffs - u_ref.coeffs)) <= 1e-13 * scale
                eta = residual_estimator(p, u_hat, u_left, residual_f_vals(p, u_hat))
                assert abs(eta - reference_residual(p, u_ref, u_left)) <= 1e-13 * scale

    @pytest.mark.parametrize("make,u_left,k", [
        (forced_decay, np.array([0.9]), 0.4),
        (norm_square, np.array([0.71, -1.19]), 0.3 / np.hypot(0.71, 1.19)),
    ], ids=["forced_d1", "norm_square_d2"])
    def test_divergence_cap_straddled(self, make, u_left, k, monkeypatch):
        # sum |c| alone decides: a cap between the sampled sup norm of the
        # solution and its sum |c| diverges, reported at the iterate
        # before, and one just above the largest sum |c| of the sweep's
        # iterates converges.  Both decisions must match the reference.
        p, straddled = make(), 0
        for scheme, r in SCHEME_DEGREES:
            inp = StepInput(Interval(0.1, 0.1 + k), r, u_left, scheme)
            u, _, exists, _ = reference_step(p, inp, PicardConfig())
            linf, l1 = u.linf_norm(), float(np.sum(np.abs(u.coeffs)))
            if not exists or l1 <= linf * (1.0 + 1e-6):
                continue
            straddled += 1
            top = largest_sum(sweep_iterates(monkeypatch, p, inp))
            for cap, converged in ((0.5 * (linf + l1), False), (top * (1.0 + 1e-9), True)):
                cfg = PicardConfig(divergence_cap=cap)
                out, ref = step(p, inp, cfg), reference_step(p, inp, cfg)
                assert ref[2] is converged
                assert_same_step(out, ref, 1e-13)
        assert straddled >= 12  # every case of degree >= 3


class TestWarmStart:
    """Picard started from a guess: the same decisions as the constant
    start, and fewer iterations from a good guess."""

    CASES = [
        (make, scheme, r, k_u)
        for make in (lambda: make_power_square(1.0), norm_square)
        for scheme, r in ((Scheme.CG, 1), (Scheme.CG, 4), (Scheme.DG, 0), (Scheme.DG, 3))
        for k_u in (0.01, 0.1, 0.2)
    ]

    @staticmethod
    def inp(p, scheme, r, k_u):
        u_left = np.array([1.37]) if p.dim == 1 else np.array([0.71, -1.19])
        k = k_u / float(np.linalg.norm(u_left))
        return StepInput(Interval(0.1, 0.1 + k), r, u_left, scheme)

    @pytest.mark.parametrize("make,scheme,r,k_u", CASES)
    def test_own_fixed_point_converges_at_once(self, make, scheme, r, k_u):
        p = make()
        inp = self.inp(p, scheme, r, k_u)
        cold = step(p, inp)
        assert cold.converged and cold.picard_iters > 1
        warm = step(p, inp, guess=cold.u.coeffs)
        assert warm.converged and warm.picard_iters == 1
        scale = max(1.0, float(np.abs(cold.u.coeffs).max()))
        assert np.abs(warm.u.coeffs - cold.u.coeffs).max() <= 1e-12 * scale

    @pytest.mark.parametrize("wild", [1e200, np.inf, np.nan], ids=["1e200", "inf", "nan"])
    @pytest.mark.parametrize("make,scheme,r,k_u", CASES[::3] + [(norm_square, Scheme.DG, 2, 3.0)])
    def test_wild_guess_gives_the_cold_step(self, make, scheme, r, k_u, wild):
        # 1e200 overflows f on the first iterate; a non-finite guess is
        # not iterated at all; both end in the constant start's result
        p = make()
        inp = self.inp(p, scheme, r, k_u)
        cold = step(p, inp)
        warm = step(p, inp, guess=np.full((r + 1, p.dim), wild))
        assert (warm.converged, warm.failure) == (cold.converged, cold.failure)
        assert warm.u.coeffs.tobytes() == cold.u.coeffs.tobytes()
        assert warm.picard_iters == cold.picard_iters + (wild == 1e200)

    def test_guess_shape_checked(self):
        p = make_power_square(1.0)
        inp = StepInput(Interval(0.0, 0.1), 2, np.array([1.0]), Scheme.CG)
        with pytest.raises(ValueError, match="expected"):
            step(p, inp, guess=np.ones((2, 1)))

    @pytest.mark.parametrize("r", range(0, 13))
    def test_reexpansion_matches_legval(self, r, rng):
        # the matrices H of the drivers' guesses: G applied to a fit of
        # node values on a residual's rule, evaluated at the step's nodes
        # mapped into that rule's interval.  NEXT and NEXT_HALF continue
        # the degree r+2 projection on the residual's rule of the degree
        # r+1 reconstruction onto the next interval (x -> x + 2) and onto
        # its first half (x -> (x + 3) / 2); (SHRINK, theta), built on
        # each shrink by shrink_row rather than held in H, restricts the
        # full interpolant on that rule to the first theta of its
        # interval (x -> theta (x + 1) - 1); RAISE evaluates the full
        # interpolant on the residual's rule of a degree r reconstruction
        # at the step's own nodes, and (RAISE, m), 2 <= m < r, that of a
        # degree r - m + 1 one, after a raise by m
        nodes = step_nodes(r)[0]
        after, own = residual_nodes(r + 1)[0], residual_nodes(r)[0]
        cases = [  # the start, the rule of f_res, the degree reproduced, mapped nodes
            (Start.NEXT, after, r + 2, nodes + 2.0),
            (Start.NEXT_HALF, after, r + 2, 0.5 * (nodes + 3.0)),
            (Start.RAISE, own, own.size - 1, nodes),
        ]
        for m in range(2, r):
            below = residual_nodes(r - m + 1)[0]
            cases.append(((Start.RAISE, m), below, below.size - 1, nodes))
        shrinks = [
            ((Start.SHRINK, theta), after, after.size - 1, theta * (nodes + 1.0) - 1.0)
            for theta in (0.125, 0.5, 0.7, 0.9)
        ]
        schemes = [Scheme.DG] + ([Scheme.CG] if r >= 1 else [])
        for scheme in schemes:
            op = picard_operator(r, scheme)
            assert op.H.keys() == {start for start, *_ in cases}
            for start, rule, degree, x in cases + shrinks:
                # the cached rows are shared, so read-only; a shrink's is
                # its caller's own
                H = op.H[start] if start in op.H else galerkin.shrink_row(op, r, start[1])
                assert H.shape == (r + 1, rule.size) and H.flags.writeable is (start not in op.H)
                # sup of |P_j| over the mapped nodes, j <= degree
                sizes = np.abs(legendre.legvander(x, degree)).max(axis=0)
                for _ in range(5):
                    # node values of the reproduced degree are fitted exactly
                    c = rng.standard_normal((degree + 1, 2))
                    got = H @ legendre.legval(rule, c).T
                    want = op.G @ legendre.legval(x, c).T
                    scale = np.abs(op.G).sum(axis=1).max() * (sizes @ np.abs(c)).max()
                    assert np.abs(got - want).max() <= 1e-12 * scale, start
            assert not (op.a.flags.writeable or op.G.flags.writeable)


def same_bits(out, ref):
    """Two StepOutputs with the same iterations, outcome, coefficient bytes
    and f value bytes."""
    assert (out.picard_iters, out.converged, out.failure) == (
        ref.picard_iters,
        ref.converged,
        ref.failure,
    )
    assert out.u.coeffs.shape == ref.u.coeffs.shape
    assert out.u.coeffs.tobytes() == ref.u.coeffs.tobytes()
    assert (out.f_vals is None) is (ref.f_vals is None)
    if out.f_vals is not None:
        assert out.f_vals.tobytes() == ref.f_vals.tobytes()


def parent_step(monkeypatch, p, inp, cfg, guess=None):
    """``step`` with ``_oracles.parent_picard`` in place of ``_sweep``."""
    with monkeypatch.context() as m:
        m.setattr(galerkin, "_sweep", parent_picard)
        return step(p, inp, cfg, guess=guess)


class TestKernelBitIdentity:
    """``_sweep`` against the loop it replaced (``_oracles.parent_picard``,
    the same arithmetic with more numpy calls), standing in for it
    inside ``step``: bit for bit the same result, cold and from the
    exact shift and halve re-expansions (``_oracles.exact_reexpansions``)
    of neighbouring steps."""

    @pytest.mark.parametrize("scheme,r", SCHEME_DEGREES, ids=lambda v: getattr(v, "value", v))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_step_bits_equal_parent(self, scheme, r, dim, monkeypatch):
        if dim == 1:
            p, u_left = make_power_square(1.0), np.array([1.37])
        else:
            p, u_left = norm_square(), np.array([0.71, -1.19])
        self.assert_bits_over_k(monkeypatch, p, u_left, scheme, r)

    # (r+1) d coefficients from 9, where numpy's sum is unrolled pairwise
    # while the loop's ``sum`` is not, to 65, well above the bench's 14
    LARGE = [
        (Scheme.CG, 2, 3), (Scheme.DG, 2, 3), (Scheme.CG, 3, 4), (Scheme.DG, 5, 4),
        (Scheme.DG, 7, 4), (Scheme.CG, 10, 3), (Scheme.CG, 4, 7), (Scheme.DG, 8, 4),
        (Scheme.CG, 16, 2), (Scheme.DG, 12, 5),
    ]

    @pytest.mark.parametrize("scheme,r,dim", LARGE, ids=lambda v: getattr(v, "value", v))
    def test_large_systems_bits_equal_parent(self, scheme, r, dim, monkeypatch):
        p, u_left = norm_square(dim), np.linspace(0.71, -1.19, dim)
        self.assert_bits_over_k(monkeypatch, p, u_left, scheme, r)

    @staticmethod
    def assert_bits_over_k(monkeypatch, p, u_left, scheme, r):
        cfg = PicardConfig()
        outcomes = set()
        for k_u in (0.01, 0.1, 0.4, 0.9, 1.3, 3.0, 10.0):
            k = k_u / float(np.linalg.norm(u_left))
            inp = StepInput(Interval(0.1, 0.1 + k), r, u_left, scheme)
            # guesses from neighbouring steps: the step before continued onto
            # this interval, and the step of twice the length restricted to it
            before = step(p, StepInput(Interval(0.1 - k, 0.1), r, u_left, scheme), cfg)
            double = step(p, StepInput(Interval(0.1, 0.1 + 2.0 * k), r, u_left, scheme), cfg)
            shift, halve = exact_reexpansions(r)
            guesses = (None, shift @ before.u.coeffs, halve @ double.u.coeffs)
            for guess in guesses:
                out = step(p, inp, cfg, guess=guess)
                same_bits(out, parent_step(monkeypatch, p, inp, cfg, guess))
                outcomes.add(out.failure)
        assert None in outcomes and len(outcomes) >= 2

    @pytest.mark.parametrize("make,u_left,k", [
        (forced_decay, np.array([0.9]), 0.4),
        (norm_square, np.array([0.71, -1.19]), 0.3 / np.hypot(0.71, 1.19)),
    ], ids=["forced_d1", "norm_square_d2"])
    def test_caps_bits_equal_parent(self, make, u_left, k, monkeypatch):
        # two caps below sum |c| of the solution, one above its sampled
        # sup norm and one below it, and no cap at all, where only an
        # overflow ends a diverging iteration
        p = make()
        for scheme, r in SCHEME_DEGREES[::2]:
            inp = StepInput(Interval(0.1, 0.1 + k), r, u_left, scheme)
            u = step(p, inp).u
            linf, l1 = u.linf_norm(), float(np.sum(np.abs(u.coeffs)))
            for cap in (0.5 * (linf + l1), 0.99 * linf, np.inf):
                cfg = PicardConfig(divergence_cap=cap)
                same_bits(step(p, inp, cfg), parent_step(monkeypatch, p, inp, cfg))
            wide = StepInput(Interval(0.1, 0.1 + 40.0 * k), r, u_left, scheme)
            cfg = PicardConfig(divergence_cap=np.inf)
            same_bits(step(p, wide, cfg), parent_step(monkeypatch, p, wide, cfg))

    @pytest.mark.parametrize("scheme,r,dim", [
        (Scheme.CG, 3, 2), (Scheme.DG, 6, 4), (Scheme.CG, 8, 4), (Scheme.DG, 10, 4),
    ], ids=lambda v: getattr(v, "value", v))
    def test_caps_straddled_at_both_sizes(self, scheme, r, dim, monkeypatch):
        # 8, 28, 36 and 44 coefficients, below and above 9, where numpy
        # starts to sum pairwise: a cap between the sampled sup norm and
        # sum |c| diverges, one just above the largest sum |c| of the
        # sweep's iterates converges, with the uncapped step's bits
        p, u_left = norm_square(dim), np.linspace(0.71, -1.19, dim)
        k = 0.3 / float(np.linalg.norm(u_left))
        inp = StepInput(Interval(0.1, 0.1 + k), r, u_left, scheme)
        u = step(p, inp).u
        linf, l1 = u.linf_norm(), float(np.sum(np.abs(u.coeffs)))
        assert l1 > linf * (1.0 + 1e-6)
        top = largest_sum(sweep_iterates(monkeypatch, p, inp))
        for cap, converged in ((0.5 * (linf + l1), False), (top * (1.0 + 1e-9), True)):
            cfg = PicardConfig(divergence_cap=cap)
            out = step(p, inp, cfg)
            assert out.converged is converged
            same_bits(out, parent_step(monkeypatch, p, inp, cfg))
        same_bits(out, step(p, inp))

    @pytest.mark.parametrize("scheme,r,dim", [
        (Scheme.DG, 1, 1), (Scheme.CG, 1, 2), (Scheme.CG, 3, 2), (Scheme.DG, 6, 4),
        (Scheme.CG, 8, 4), (Scheme.DG, 10, 4),
    ], ids=lambda v: getattr(v, "value", v))
    def test_caps_at_the_edge_of_sum(self, scheme, r, dim, monkeypatch):
        # 2 to 44 coefficients: the bound is the correctly rounded sum
        # |c|, so a cap at the largest exact sum over the sweep's iterates
        # converges with the uncapped bits, and the double below it
        # diverges at the first iterate that reaches that sum, reported
        # at the iterate before
        p, u_left = norm_square(dim), np.linspace(0.71, -1.19, dim)
        k = 0.3 / float(np.linalg.norm(u_left))
        inp = StepInput(Interval(0.1, 0.1 + k), r, u_left, scheme)
        iterates = sweep_iterates(monkeypatch, p, inp)
        top = largest_sum(iterates)
        uncapped = step(p, inp, PicardConfig(divergence_cap=math.inf))
        assert uncapped.converged
        same_bits(step(p, inp, PicardConfig(divergence_cap=top)), uncapped)
        out = step(p, inp, PicardConfig(divergence_cap=math.nextafter(top, 0.0)))
        assert (out.converged, out.failure) == (False, StepFailure.DIVERGED)
        sums = [largest_sum([c]) for c in iterates]
        assert out.picard_iters == sums.index(top) + 1
        c0 = np.zeros_like(iterates[0])
        c0[0] = u_left
        before = ([c0] + iterates)[out.picard_iters - 1]
        assert out.u.coeffs.tobytes() == before.tobytes()

    @pytest.mark.parametrize("scheme,r", [(Scheme.CG, 1), (Scheme.DG, 0), (Scheme.DG, 2)],
                             ids=lambda v: getattr(v, "value", v))
    def test_finite_coefficients_summing_past_double_range(self, scheme, r):
        # u' = 0 from u_left = (1e308, 1e308): every iterate is finite but
        # its sum |c| is not a double, so ``math.fsum`` raises; read as
        # inf, it diverges under the largest finite cap, and without a cap
        # the step converges (as ``TestEndValueOverflow`` needs)
        u_left = np.array([1e308, 1e308])
        with pytest.raises(OverflowError):
            math.fsum(np.abs(u_left).tolist())
        inp = StepInput(Interval(0.0, 0.5), r, u_left, scheme)
        out = step(zero_rhs(2), inp, PicardConfig(divergence_cap=sys.float_info.max))
        assert (out.converged, out.failure) == (False, StepFailure.DIVERGED)
        assert out.u.coeffs[0].tolist() == u_left.tolist() and not out.u.coeffs[1:].any()
        out = step(zero_rhs(2), inp, PicardConfig(divergence_cap=math.inf))
        assert out.converged
        np.testing.assert_allclose(out.u(0.3), u_left, rtol=1e-15)


# degrees from 0 to MAX_DEGREE and dimensions from 1 to 32: cG from r = 1
ACCEPT_CASES = [
    (scheme, r, dim)
    for scheme in (Scheme.CG, Scheme.DG)
    for r in (0, 1, 2, 5, 13, 30, 58)
    if r >= 1 or scheme is Scheme.DG
    for dim in (1, 2, 8, 32)
]


def accept_case(scheme, r, dim):
    """A converged step of f(u) = |u| u in R^dim from a random unit left
    value on a random interval of length 0.05, with the closed-form
    solution from that value as the problem's exact solution."""
    rng = np.random.default_rng(1000 * r + 10 * dim + (scheme is Scheme.DG))
    u_left = rng.standard_normal(dim)
    u_left /= np.linalg.norm(u_left)
    t0 = float(rng.uniform(0.0, 0.5))
    p = dataclasses.replace(
        norm_square(dim),
        u0=u_left,
        exact=lambda ts: u_left[:, None] / (1.0 - (ts - t0))[None, :],
    )
    inp = StepInput(Interval(t0, t0 + 0.05), r, u_left, scheme)
    out = step(p, inp, atol=1e-9)
    assert out.converged
    return p, inp, out


def float_bits(x):
    return repr(x) if not isinstance(x, float) else np.float64(x).tobytes()


class TestAcceptPathBitIdentity:
    """The products of the accept path outside the Picard loop are
    ``np.dot`` calls, the nodes are mapped from the cached offsets and
    each residual holds one errstate: the same bits as the matmul
    oracles of ``_oracles`` (``parent_*``), byte for byte."""

    @pytest.mark.parametrize("scheme,r,dim", ACCEPT_CASES, ids=lambda v: getattr(v, "value", v))
    def test_reconstruct(self, scheme, r, dim):
        # the step's own f values, and f evaluated at its iterate by
        # ``step_f_vals`` against the oracle's own evaluation
        p, inp, out = accept_case(scheme, r, dim)
        for f_vals, given in ((out.f_vals, out.f_vals), (step_f_vals(p, inp, out.u), None)):
            got = reconstruct(p, inp, f_vals).coeffs
            assert got.tobytes() == parent_reconstruct(p, inp, out.u, given).coeffs.tobytes()

    @pytest.mark.parametrize("scheme,r,dim", ACCEPT_CASES, ids=lambda v: getattr(v, "value", v))
    def test_residual_and_norms(self, scheme, r, dim):
        # the residual lifts f at uhat on the residual's rule of
        # basis(deg(uhat)), given as the drivers give it, against the
        # oracle evaluating f there itself and lifting the same values
        p, inp, out = accept_case(scheme, r, dim)
        u_hat = reconstruct(p, inp, out.f_vals)
        f_res = residual_f_vals(p, u_hat)
        got = residual_estimator(p, u_hat, inp.u_left, f_res)
        assert float_bits(got) == float_bits(parent_residual(p, u_hat, inp.u_left))
        assert float_bits(parent_residual(p, u_hat, inp.u_left, f_res)) == float_bits(got)
        for u in (out.u, u_hat):
            assert float_bits(u.linf_norm()) == float_bits(parent_linf_norm(u))
        want = parent_reconstruction_error(p, u_hat)
        assert float_bits(reconstruction_error(p, u_hat)) == float_bits(want)

    @pytest.mark.parametrize("scheme,r,dim", ACCEPT_CASES, ids=lambda v: getattr(v, "value", v))
    def test_delta(self, scheme, r, dim, monkeypatch):
        # a psi from the residual, one whose solve takes several steps,
        # cold and warm, and one without a certificate, against the
        # oracle, which maps its own nodes by from_reference
        p, inp, out = accept_case(scheme, r, dim)
        u_hat = reconstruct(p, inp, out.f_vals)
        eta = residual_estimator(p, u_hat, inp.u_left, residual_f_vals(p, u_hat))
        results = []
        for psi, prev_delta in ((eta, None), (1.0, None), (1.0, 1.5), (1e3, 2.0)):
            with monkeypatch.context() as m:
                m.setattr(estimator, "_growth_factory", parent_growth_factory)
                want = solve_delta(p, inp.interval, u_hat, psi, prev_delta)
            got = solve_delta(p, inp.interval, u_hat, psi, prev_delta)
            assert float_bits(got) == float_bits(want)
            results.append(type(got))
        assert results == [float, float, float, estimator.DeltaNotFound]

    @pytest.mark.parametrize("scheme,r,dim", ACCEPT_CASES, ids=lambda v: getattr(v, "value", v))
    def test_guesses_and_end_value(self, scheme, r, dim, monkeypatch):
        # one rejected attempt, at eta = 2 tol, whose residual's f values
        # seed the second, which is accepted, by its Picard update on
        # the first theta of the interval, theta = 0.9 2^(-1/(r+2)); the
        # update predicted from the accepted residual's f values seeds
        # the first attempt of the next interval.  f = |u| u ignores t,
        # so the run starting at t = 0 takes steps as long as
        # accept_case's and longer
        p, inp, _ = accept_case(scheme, r, dim)
        tol, etas, calls, given = 1e-6, iter([2e-6, 0.0, 0.0]), [], []

        def residual(p, u_hat, u_left, f_vals=None):
            given.append(f_vals)
            return next(etas)

        def spy(p, inp, cfg, *, guess=None, atol=0.0):
            out = step(p, inp, cfg, guess=guess, atol=atol)
            calls.append((guess, inp, out))
            return out

        monkeypatch.setattr(adapt, "step", spy)
        monkeypatch.setattr(adapt, "residual_estimator", residual)
        cfg = AdaptConfig(
            scheme=scheme,
            mode=Mode.H,
            r_init=r,
            k_init=2.0 * inp.interval.k,
            tol_star=tol,
            max_intervals=2,
        )
        rec = adapt.h_adapt(p, cfg).intervals[0]
        theta = shrink_by(2e-6, tol, r)
        assert rec.decisions == ("shrink_k",) and rec.attempts == 2 and rec.k_factor == theta
        assert len(calls) == 3 and calls[0][0] is None
        rejected_inp, rejected = calls[0][1:]
        assert calls[1][1].interval == Interval(0.0, theta * cfg.k_init)
        u_hat = reconstruct(p, rejected_inp, rejected.f_vals)
        assert given[0].tobytes() == residual_f_vals(p, u_hat).tobytes()
        want = start_guess(p, calls[1][1], u_hat, (Start.SHRINK, theta))
        assert calls[1][0].tobytes() == want.tobytes()
        u_end = calls[2][1].u_left
        assert u_end.tobytes() == rec.reconstruction.coeffs.sum(axis=0).tobytes()
        assert given[1].tobytes() == residual_f_vals(p, rec.reconstruction).tobytes()
        want = next_interval_guess(p, calls[2][1], rec.reconstruction)
        assert calls[2][0].tobytes() == want.tobytes()


class TestFiniteTest:
    """``galerkin._all_finite``, a list test, and the two places in the
    step module that use it."""

    SIZES = [1, 9, 32, 33, 200]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_each_position(self, size, bad):
        # size entries, as a contiguous column and as a strided view
        a = 1.7e308 * np.linspace(-1.0, 1.0, 2 * size).reshape(size, 2)
        assert galerkin._all_finite(a[:, :1].copy()) and galerkin._all_finite(a[:, :1])
        for i in {0, size // 2, size - 1}:
            b = a.copy()
            b[i, 0] = bad
            assert galerkin._all_finite(b[:, 1:])
            assert not galerkin._all_finite(b[:, :1].copy()) and not galerkin._all_finite(b[:, :1])

    @pytest.mark.parametrize("r,dim", [(2, 2), (8, 4)], ids=["6-coeffs", "36-coeffs"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_guess_and_lift(self, r, dim, bad):
        # a guess with one non-finite entry is not iterated; one
        # non-finite f value makes the lift raise
        p, u_left = norm_square(dim), np.linspace(0.71, -1.19, dim)
        inp = StepInput(Interval(0.1, 0.1 + 0.1 / np.linalg.norm(u_left)), r, u_left, Scheme.CG)
        cold = step(p, inp)
        assert cold.converged
        guess = np.array(cold.u.coeffs)
        guess[r // 2, dim - 1] = bad
        same_bits(step(p, inp, guess=guess), cold)

        def f_batch(ts, us):
            vals = p.f_batch(ts, us)
            vals[len(ts) // 2, dim - 1] = bad
            return vals

        poisoned = dataclasses.replace(p, f_batch=f_batch)
        f_vals = step_f_vals(poisoned, inp, cold.u)
        with pytest.raises(NumericOverflow):
            reconstruct(poisoned, inp, f_vals)


class TestTrustedWrap:
    """The step and the lift wrap arrays they own without a copy
    (``LocalPoly._trusted``); an array of the caller's is never wrapped."""

    @pytest.mark.parametrize("scheme,r", [(Scheme.CG, 3), (Scheme.DG, 0), (Scheme.DG, 2)])
    def test_guess_not_frozen_aliased_or_changed(self, scheme, r):
        p = make_power_square(1.0)
        inp = StepInput(Interval(0.1, 0.15), r, np.array([1.37]), scheme)
        fixed_point = np.array(step(p, inp).u.coeffs)
        # its own fixed point converges at the first iterate; at 1e200, f
        # overflows on the first iterate, the failure is reported at the
        # guess itself, and the step falls back to the constant start
        for guess in (fixed_point, np.full((r + 1, 1), 1e200)):
            kept = guess.copy()
            outs = [step(p, inp, guess=guess), galerkin._sweep(p, inp, guess, np.inf, 0.0)]
            assert outs[1].converged is (guess is fixed_point)
            for out in outs:
                assert not np.shares_memory(out.u.coeffs, guess)
            assert guess.flags.writeable and guess.tobytes() == kept.tobytes()

    def test_outputs_read_only_and_finite(self):
        p = make_power_square(1.0)
        cases = [
            (p, StepInput(Interval(0.1, 0.2), 3, np.array([1.0]), Scheme.CG), PicardConfig()),
            (p, StepInput(Interval(0.0, 0.01), 1, np.array([1.0]), Scheme.CG), PicardConfig(0.5)),
            (p, StepInput(Interval(0.0, 5.0), 2, np.array([1.0]), Scheme.DG), PicardConfig()),
            (
                make_linear(-1.0, [1.0]),
                StepInput(Interval(0.0, 2.0), 1, np.array([1.0]), Scheme.CG),
                PicardConfig(),
            ),
        ]
        outcomes = []
        for prob, inp, cfg in cases:
            out = step(prob, inp, cfg)
            outcomes.append(out.failure)
            polys = [out.u]
            if out.converged:
                polys.append(reconstruct(prob, inp, step_f_vals(prob, inp, out.u)))
            for u in polys:
                assert not u.coeffs.flags.writeable and np.isfinite(u.coeffs).all()
                with pytest.raises(ValueError):
                    u.coeffs[0, 0] = 0.0
        assert outcomes == [None, StepFailure.DIVERGED, StepFailure.DIVERGED, StepFailure.MAX_ITERS]


class TestStepInputCopy:
    """The copy rule of ``StepInput``: the constructor copies every
    caller's left value, and the driver's steps hold the march's own
    read-only left value without a copy (``StepInput._trusted``)."""

    def test_caller_arrays_copied(self):
        iv, base = Interval(0.0, 0.1), np.array([1.0, 2.0, 3.0])
        view = base[:2]
        view.flags.writeable = False
        owned = make_linear(-1.0, [1.0, 2.0]).u0  # read-only, owns its data
        for u_left in (np.array([1.0, 2.0]), view, owned):
            inp = StepInput(iv, 1, u_left, Scheme.CG)
            assert inp.u_left is not u_left and not np.shares_memory(inp.u_left, u_left)
            assert not inp.u_left.flags.writeable
        inp = StepInput(iv, 1, view, Scheme.CG)
        base[:] = 7.0
        assert inp.u_left.tolist() == [1.0, 2.0]
        writable = np.array([1.0, 2.0])
        inp = StepInput(iv, 1, writable, Scheme.CG)
        writable[0] = 5.0
        assert inp.u_left.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("mode", [Mode.H, Mode.HP])
    def test_driver_holds_its_own_end_value(self, mode, monkeypatch):
        # the first interval's steps hold Problem.u0 itself, each later
        # one the end value of the interval before, one read-only array
        # for every attempt on the interval
        p, seen = make_power_square(1.0), []

        def spy(p, inp, cfg, *, guess=None, atol=0.0):
            seen.append(inp)
            return step(p, inp, cfg, guess=guess, atol=atol)

        monkeypatch.setattr(adapt, "step", spy)
        cfg = AdaptConfig(
            scheme=Scheme.CG, mode=mode, r_init=1, k_init=0.4, tol_star=1e-7, max_intervals=12
        )
        result = adapt._drive(p, cfg)
        assert result.M == 12 and len(seen) > result.M
        starts = [rec.interval.t_start for rec in result.intervals]
        held = {}
        for inp in seen:
            held.setdefault(inp.interval.t_start, []).append(inp.u_left)
        assert held[0.0][0] is p.u0
        for m, t in enumerate(starts):
            u_left = held[t][0]
            assert all(u is u_left for u in held[t]) and not u_left.flags.writeable
            if m:
                end = result.intervals[m - 1].reconstruction.coeffs.sum(axis=0)
                assert u_left.tobytes() == end.tobytes()
        assert max(len(held[t]) for t in starts) > 1


class TestSweeps:
    """A step runs at most two Picard sweeps, both on the step's rule,
    and gives the same bits for a scalar f as for an ``f_batch``; the
    drivers' prediction for the next interval is its Picard update."""

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG], ids=lambda v: v.value)
    def test_scalar_f_gives_the_bits_of_f_batch(self, scheme):
        # power2 given as a scalar f only, and with its f_batch, which
        # computes the same values: the same step, f values and
        # reconstruction, byte for byte, from seeded draws of the degree,
        # the step length, the left value, the guess and the stop
        batch = make_power_square(1.0)
        scalar = dataclasses.replace(batch, f_batch=None)
        rng = np.random.default_rng(26 + (scheme is Scheme.DG))
        outcomes = set()
        for _ in range(40):
            r = int(rng.integers(scheme is Scheme.CG, 9))
            u_left = np.array([rng.uniform(0.2, 20.0)])
            # k u_left from strongly contractive to past the existence
            # limit near 1
            k = float(rng.uniform(0.005, 1.5)) / u_left[0]
            t0 = float(rng.uniform(-1.0, 1.0))
            inp = StepInput(Interval(t0, t0 + k), r, u_left, scheme)
            c0 = np.zeros((r + 1, 1))
            c0[0] = u_left
            noise = 0.3 * u_left * np.sin(np.arange(1, r + 2))[:, None]
            guess = (None, c0 + noise, np.full_like(c0, 1e200))[int(rng.integers(3))]
            atol = (0.0, 1e-9, 1e-4)[int(rng.integers(3))]
            out = step(scalar, inp, guess=guess, atol=atol)
            ref = step(batch, inp, guess=guess, atol=atol)
            same_bits(out, ref)
            if out.converged:
                # the step's own f values, and f evaluated at its iterate
                pairs = (
                    (out.f_vals, ref.f_vals),
                    (step_f_vals(scalar, inp, out.u), step_f_vals(batch, inp, ref.u)),
                )
                for got_f, want_f in pairs:
                    got = reconstruct(scalar, inp, got_f).coeffs
                    want = reconstruct(batch, inp, want_f).coeffs
                    assert got.tobytes() == want.tobytes()
            outcomes.add(out.failure)
        assert None in outcomes and len(outcomes) >= 2

    def test_at_most_two_sweeps_counted_once(self):
        # every sweep a step runs, spied on ``_sweep``: its start and
        # updates; one from the start, and one from the constant only
        # after a failure from elsewhere
        real, sweeps, seen = galerkin._sweep, [], set()

        def spy(p, inp, c, cap, atol):
            out = real(p, inp, c, cap, atol)
            sweeps.append((c.tobytes(), out))
            return out

        cases = itertools.product(
            (False, True), SCHEME_DEGREES[::4], (1, 2), (0.1, 0.5, 0.9, 1.3),
            ("none", "noisy", "wild", "nan"),
        )
        for batch, (scheme, r), dim, k_u, guess in cases:
            p = norm_square(dim) if batch else dataclasses.replace(norm_square(dim), f_batch=None)
            u_left = np.linspace(0.71, -1.19, dim)
            inp = StepInput(Interval(0.1, 0.1 + k_u / np.linalg.norm(u_left)), r, u_left, scheme)
            c0 = np.zeros((r + 1, dim))
            c0[0] = u_left
            noise = 0.3 * np.sin(np.arange(1, c0.size + 1)).reshape(c0.shape)
            start = {
                "none": c0, "noisy": c0 + noise, "wild": np.full_like(c0, 1e200),
                "nan": np.full_like(c0, np.nan),
            }[guess]
            sweeps.clear()
            with pytest.MonkeyPatch.context() as m:
                m.setattr(galerkin, "_sweep", spy)
                out = step(p, inp, guess=None if guess == "none" else start)
            start = c0 if guess == "nan" else start
            assert len(sweeps) in (1, 2)
            assert sweeps[0][0] == start.tobytes()
            if len(sweeps) == 2:
                # a failed sweep from the constant is not run again
                assert not sweeps[0][1].converged and guess in ("noisy", "wild")
                assert sweeps[1][0] == c0.tobytes()
            last = sweeps[-1][1]
            assert (out.converged, out.failure) == (last.converged, last.failure)
            assert out.u.coeffs.tobytes() == last.u.coeffs.tobytes()
            assert out.picard_iters == sum(s[1].picard_iters for s in sweeps)
            if len(sweeps) == 1:
                assert out is last
            seen.add((batch, len(sweeps), out.converged))
        # every sequence, with and without f_batch: one sweep that
        # converges or fails, and the constant after a failed guess,
        # converging or failing
        assert seen == set(itertools.product((False, True), (1, 2), (False, True)))

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(SCHEME_DEGREES),
        dim=st.sampled_from([1, 2]),
        k=st.floats(0.01, 2.0),
        t0=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_prediction_is_the_next_update(self, case, dim, k, t0, seed):
        # f = q(t) of degree at most r + 2, the degree the continued
        # guesses project to: every update of a step is the same,
        # a u_left + k G q(nodes), from any iterate, and each polynomial
        # guess is that update of its attempt: on the next interval, on
        # its first half after a predicted halving, on the first theta of
        # this interval after an accuracy shrink by theta, and on this
        # interval at degree r + 1 after a raise.  Where q looks like a pole the
        # drivers continue 1/q instead (TestReciprocalContinuation).
        scheme, r = case
        b = np.random.default_rng(seed).standard_normal((r + 3, dim))
        degree = r - 1 if scheme is Scheme.CG and r > 1 and seed % 2 else r + 2 * (seed % 3 == 0)

        def q(ts):
            s = (np.asarray(ts, dtype=float) - t0) / k
            cols = [np.polynomial.polynomial.polyval(s, b[: degree + 1, j]) for j in range(dim)]
            return np.stack(cols, -1)

        p = Problem(
            dim=dim,
            u0=np.ones(dim),
            f=lambda t, u: q(t),
            lip=lambda t, a, b: 0.0,
            f_batch=lambda ts, us: q(ts),
        )
        inp = StepInput(Interval(t0, t0 + k), r, np.ones(dim), scheme)
        out = step(p, inp)
        assert out.converged
        u_hat = reconstruct(p, inp, out.f_vals)
        u_end = u_hat.coeffs.sum(axis=0)
        theta = (0.125, 0.3, 0.5, 0.71, 0.9)[seed % 5]
        attempts = [  # the start, its attempt, the reach of its fit
            (Start.NEXT, Interval(t0 + k, t0 + k + k), r, u_end, 3.0),
            (Start.NEXT_HALF, Interval(t0 + k, t0 + k + 0.5 * k), r, u_end, 2.0),
            ((Start.SHRINK, theta), Interval(t0, t0 + theta * k), r, inp.u_left, 1.0),
            (Start.RAISE, inp.interval, r + 1, inp.u_left, 1.0),
        ]
        for start, iv, r_next, u_left, reach in attempts:
            nxt = StepInput(iv, r_next, u_left, scheme)
            guess = start_guess(p, nxt, u_hat, start)
            update = step(p, nxt).u.coeffs
            # a fit evaluated at x amplifies rounding by up to
            # sum_j |P_j(x)|, j <= r + 2: at most 1 per term within its
            # interval, |P_j(3)| on the next one
            growth = np.abs(legendre.legvander(np.array([reach]), r + 2)).sum()
            scale = max(1.0, np.abs(update).max()) * growth
            assert np.abs(guess - update).max() <= 1e-14 * scale, start


class TestAbsoluteStop:
    """``step(..., atol=...)``: an absolute stop next to the relative one.
    Every iterate up to the stop is the same for every atol, so a
    positive atol only ends the iteration earlier."""

    @settings(max_examples=120, deadline=None)
    @given(
        case=st.sampled_from(SCHEME_DEGREES),
        dim=st.sampled_from([1, 2]),
        k_u=st.floats(0.005, 3.0),
        size=st.floats(0.1, 20.0),
        atol=st.floats(-14.0, 1.0).map(lambda e: 10.0**e),
        warm=st.booleans(),
    )
    def test_never_fails_where_zero_solves_nor_iterates_longer(
        self, case, dim, k_u, size, atol, warm
    ):
        scheme, r = case
        p = norm_square(dim)
        direction = np.linspace(0.71, -1.19, dim)
        u_left = size * direction / np.linalg.norm(direction)
        k = k_u / size
        inp = StepInput(Interval(0.1, 0.1 + k), r, u_left, scheme)
        guess = None
        if warm:
            # a guess from the step before, continued onto this interval
            before = step(p, StepInput(Interval(0.1 - k, 0.1), r, u_left, scheme))
            with np.errstate(over="ignore", invalid="ignore"):
                guess = exact_reexpansions(r)[0] @ before.u.coeffs
        exact = step(p, inp, guess=guess)
        loose = step(p, inp, guess=guess, atol=atol)
        if exact.converged:
            assert loose.converged
        assert loose.picard_iters <= exact.picard_iters
        assert (loose.f_vals is not None) is loose.converged

    @pytest.mark.parametrize("scheme,r", SCHEME_DEGREES[::2], ids=lambda v: getattr(v, "value", v))
    @pytest.mark.parametrize("atol", [1e-9, 1e-6, 1e-3])
    def test_stop_matches_reference(self, scheme, r, atol):
        # the same iteration count as the reference loop's absolute stop
        p, u_left = norm_square(), np.array([0.71, -1.19])
        for k_u in (0.01, 0.1, 0.4, 0.9, 3.0):
            inp = StepInput(Interval(0.1, 0.1 + k_u / np.linalg.norm(u_left)), r, u_left, scheme)
            out = step(p, inp, atol=atol)
            ref = reference_step(p, inp, PicardConfig(), atol)
            assert_same_step(out, ref, 1e-13 if ref[2] else 1e-9)

    @pytest.mark.parametrize("scheme,r", SCHEME_DEGREES[::2], ids=lambda v: getattr(v, "value", v))
    @pytest.mark.parametrize("atol", [0.0, 1e-6, 1e-3])
    def test_lift_of_step_values_is_reconstruct_of_their_iterate(self, scheme, r, atol, monkeypatch):
        # The f values a converged step hands back were taken at the
        # iterate before the returned one: the same loop with one update
        # less in its budget ends there.  Lifting them is reconstruct of
        # that iterate, bit for bit, and evaluates no f.
        base, u_left = norm_square(), np.array([0.71, -1.19])
        inp = StepInput(Interval(0.1, 0.1 + 0.2 / np.linalg.norm(u_left)), r, u_left, scheme)
        out = step(base, inp, atol=atol)
        assert out.converged and out.picard_iters > 1
        assert out.f_vals.shape == (basis(r).step_offsets.size, 2)
        with monkeypatch.context() as m:
            m.setattr(galerkin, "MAX_ITERS", out.picard_iters - 1)
            before = step(base, inp, atol=atol)
        assert before.failure is StepFailure.MAX_ITERS
        points = [0]

        def f_batch(ts, us):
            points[0] += len(ts)
            return base.f_batch(ts, us)

        p = dataclasses.replace(base, f_batch=f_batch)
        lifted = reconstruct(p, inp, out.f_vals)
        assert points[0] == 0
        evaluated = reconstruct(p, inp, step_f_vals(p, inp, before.u))
        assert points[0] > 0
        assert lifted.coeffs.tobytes() == evaluated.coeffs.tobytes()
        assert not lifted.coeffs.flags.writeable

    @pytest.mark.parametrize("scheme,r", [(Scheme.CG, 1), (Scheme.CG, 4), (Scheme.DG, 0), (Scheme.DG, 3)])
    def test_lifted_end_value_is_the_steps(self, scheme, r):
        # the lift and the last update integrate the same f values, so
        # their end values agree up to rounding however early the stop;
        # lifted from f at the returned iterate, they differ by about the
        # last change
        p = make_power_square(1.0)
        inp = StepInput(Interval(0.1, 0.2), r, np.array([1.2]), scheme)
        out = step(p, inp, atol=1e-3)
        assert out.converged
        end = out.u.coeffs.sum(axis=0)
        lifted = reconstruct(p, inp, out.f_vals).coeffs.sum(axis=0)
        evaluated = reconstruct(p, inp, step_f_vals(p, inp, out.u)).coeffs.sum(axis=0)
        assert np.abs(lifted - end).max() <= 4e-16 * np.abs(end).max()
        assert np.abs(evaluated - end).max() > 1e-6

    def test_lift_after_one_update_is_reconstruct_of_the_guess(self):
        # a guess that converges at once: the values came from the guess
        p, u_left = norm_square(), np.array([0.71, -1.19])
        inp = StepInput(Interval(0.1, 0.2), 3, u_left, Scheme.DG)
        guess = np.array(step(p, inp).u.coeffs)
        warm = step(p, inp, guess=guess)
        assert warm.converged and warm.picard_iters == 1
        lifted = reconstruct(p, inp, warm.f_vals)
        evaluated = reconstruct(p, inp, step_f_vals(p, inp, LocalPoly(inp.interval, guess)))
        assert lifted.coeffs.tobytes() == evaluated.coeffs.tobytes()


def homogeneous_rhs():
    """f(u) = 1.5 |u| - (u_2, u_1): nonlinear, with f(s u) = s f(u) for
    s > 0, bit for bit when s is a power of two."""
    return Problem(
        dim=2,
        u0=np.array([1.37, -2.1]),
        f=lambda t, u: 1.5 * np.abs(u) - u[::-1],
        lip=lambda t, a, b: 2.5,
        f_batch=lambda ts, us: 1.5 * np.abs(us) - us[:, ::-1],
    )


class TestContractionStops:
    """``_sweep`` converges once the error its observed contraction
    predicts, q / (1 - q) * change with q = change / last, is at most
    atol, and diverges after MAX_GROWING consecutive growing changes.
    Against the change-only rule (``_oracles.change_only_sweep``) every
    iterate up to the stop is the same, bit for bit, and the stop comes
    at the same update or an earlier one."""

    @pytest.mark.parametrize("seed", range(4))
    def test_same_iterates_stopping_no_later(self, seed):
        rng = np.random.default_rng(seed)
        earlier = growing = 0
        for _ in range(60):
            scheme, r = SCHEME_DEGREES[rng.integers(len(SCHEME_DEGREES))]
            dim = int(rng.integers(1, 3))
            p = norm_square(dim)
            u_left = rng.normal(size=dim) * 10.0 ** rng.uniform(-1.0, 1.0)
            size = float(np.linalg.norm(u_left))
            inp = StepInput(Interval(0.1, 0.1 + 10.0 ** rng.uniform(-2.5, 0.5) / size), r, u_left, scheme)
            atol = 10.0 ** rng.uniform(-12.0, 0.0) * size
            c = np.zeros((r + 1, dim))
            c[0] = u_left
            if rng.random() < 0.5:
                # a guess off the constant, as the drivers' predictions are
                c += rng.normal(size=c.shape) * size * 10.0 ** rng.uniform(-6.0, -1.0)
            out = galerkin._sweep(p, inp, c, 1e8, atol)
            iterates, f_seq, changes, (n_old, converged_old, failure_old) = change_only_sweep(
                p, inp, c, 1e8, atol
            )
            n = out.picard_iters
            assert n <= n_old
            # a divergence at the cap, or out of double range, is reported
            # at the iterate before; every other stop at the new iterate
            at_cap = len(changes) < n
            assert out.u.coeffs.tobytes() == iterates[n - 1 if at_cap else n].tobytes()
            # no contraction stop before update n, and fewer than three
            # growing changes in a row
            run = 0
            for m in range(2, n):
                change, last = changes[m - 1], changes[m - 2]
                assert not (change < last and (change / last) * change <= atol * (1.0 - change / last))
                run = run + 1 if change > last else 0
                assert run < MAX_GROWING
            if out.converged:
                assert out.f_vals.tobytes() == f_seq[n - 1].tobytes()
                if n < n_old or not converged_old:
                    # the contraction stop fired, and only it
                    earlier += 1
                    change, last = changes[n - 1], changes[n - 2]
                    q = change / last
                    assert n >= 2 and change < last and q * change <= atol * (1.0 - q)
            elif at_cap:
                assert n == n_old and out.failure is failure_old is StepFailure.DIVERGED
            elif out.failure is StepFailure.DIVERGED:
                # three growing changes in a row, where the old rule ran on
                growing += 1
                assert n >= 1 + MAX_GROWING and run + 1 == MAX_GROWING
                assert all(changes[m - 1] > changes[m - 2] for m in range(n - MAX_GROWING + 1, n + 1))
            else:
                assert n == n_old == MAX_ITERS and out.failure is failure_old is StepFailure.MAX_ITERS
        assert earlier >= 10 and growing >= 1

    @pytest.mark.parametrize("scheme,r", SCHEME_DEGREES[::2], ids=lambda v: getattr(v, "value", v))
    def test_power_of_two_scaling_is_exact(self, scheme, r):
        # u_left, atol and the cap scaled by 2^960 near the top of double
        # range: the estimated error q * change and its bound
        # atol * (1 - q) scale exactly, so every decision is the same and
        # every coefficient is the unscaled one times 2^960
        p, s = homogeneous_rhs(), 2.0**960
        u_left = p.u0
        earlier = 0
        for k, atol in itertools.product((0.02, 0.08, 0.2), (1e-9, 1e-6, 1e-3)):
            inp = StepInput(Interval(0.0, k), r, u_left, scheme)
            big = StepInput(Interval(0.0, k), r, u_left * s, scheme)
            c = np.zeros((r + 1, 2))
            c[0] = u_left
            out = galerkin._sweep(p, inp, c, 1e8, atol)
            scaled = galerkin._sweep(p, big, c * s, 1e8 * s, atol * s)
            assert out.converged
            assert (scaled.picard_iters, scaled.converged) == (out.picard_iters, True)
            assert scaled.u.coeffs.tobytes() == (out.u.coeffs * s).tobytes()
            assert scaled.f_vals.tobytes() == (out.f_vals * s).tobytes()
            earlier += out.picard_iters < change_only_sweep(p, inp, c, 1e8, atol)[3][0]
        assert earlier >= 3

    @pytest.mark.parametrize("scheme,r,ratio", [
        (Scheme.CG, 1, 2.5), (Scheme.CG, 1, 2.05), (Scheme.DG, 0, 1.25), (Scheme.DG, 0, 1.02),
    ], ids=lambda v: getattr(v, "value", v))
    def test_slow_divergence_stops_after_three_growing_changes(self, scheme, r, ratio):
        # f = lam u with the update's contraction factor above 1 (k lam / 2
        # for cG at r = 1, k lam for dG at r = 0): every change grows by
        # that factor, so under no cap the change-only rule runs through
        # its whole budget, and the sweep stops after three growing
        # changes, at update 4, with the fourth iterate
        p = make_linear(1.0, [1.0])
        k = ratio * (2.0 if scheme is Scheme.CG else 1.0)
        inp = StepInput(Interval(0.1, 0.1 + k), r, p.u0, scheme)
        c = np.zeros((r + 1, 1))
        c[0] = p.u0
        iterates, _, changes, old = change_only_sweep(p, inp, c, math.inf, 0.0)
        assert old == (MAX_ITERS, False, StepFailure.MAX_ITERS)
        assert all(b > a for a, b in itertools.pairwise(changes))
        out = step(p, inp)
        assert (out.picard_iters, out.converged, out.failure) == (
            1 + MAX_GROWING, False, StepFailure.DIVERGED
        )
        assert out.u.coeffs.tobytes() == iterates[1 + MAX_GROWING].tobytes()
