
import numpy as np
import pytest

from hpgalerkin.estimator import residual_estimator
from hpgalerkin.galerkin import (
    PicardConfig,
    Scheme,
    StepFailure,
    StepInput,
    reconstruct,
    step,
)
from hpgalerkin.poly import Interval
from hpgalerkin.problems import Problem, make_exponential, make_linear, make_power_square

from _oracles import reference_reconstruct, reference_residual, reference_step


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
        from hpgalerkin.poly import gauss_legendre

        p = make_linear(1.0, [1.0])
        with pytest.raises(ValueError):
            step(p, StepInput(Interval(0.0, 0.1), 2, np.array([1.0]), Scheme.DG), quad=gauss_legendre(4))

    @pytest.mark.parametrize("scheme,r", [(Scheme.CG, 2), (Scheme.DG, 2)])
    def test_rule_outside_cache_matches_gauss(self, scheme, r):
        # a rule not produced by gauss_legendre builds its operator uncached
        from hpgalerkin.poly import QuadRule, gauss_legendre

        p = make_power_square(1.0)
        inp = StepInput(Interval(0.0, 0.1), r, np.array([1.0]), scheme)
        base = gauss_legendre(r + 6)
        custom = QuadRule(base.nodes.copy(), base.weights.copy())
        out, ref = step(p, inp, quad=custom), step(p, inp, quad=base)
        assert out.picard_iters == ref.picard_iters
        assert np.array_equal(out.u.coeffs, ref.u.coeffs)
        np.testing.assert_array_equal(
            reconstruct(p, inp, out.u, custom).coeffs, reconstruct(p, inp, ref.u, base).coeffs
        )


class TestNonexistence:
    def test_divergence_on_oversized_step(self):
        # far beyond the blow-up time of u' = u^2, u(0) = 1
        p = make_power_square(1.0)
        out = step(p, StepInput(Interval(0.0, 5.0), 1, np.array([1.0]), Scheme.CG))
        assert not out.converged
        assert out.failure in (StepFailure.DIVERGED, StepFailure.MAX_ITERS)

    def test_max_iters_reported(self):
        p = make_power_square(1.0)
        cfg = PicardConfig(fp_tol=1e-12, max_iters=2)
        out = step(p, StepInput(Interval(0.0, 0.1), 3, np.array([1.0]), Scheme.CG), cfg)
        assert not out.converged
        assert out.failure is StepFailure.MAX_ITERS
        assert out.picard_iters == 2

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


class TestReconstruction:
    def test_zero_rhs(self):
        c = np.array([2.0])
        inp = StepInput(Interval(0.0, 1.0), 1, c, Scheme.CG)
        out = step(zero_rhs(), inp)
        u_hat = reconstruct(zero_rhs(), inp, out.u)
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
            u_hat = reconstruct(p, inp, out.u)
            np.testing.assert_allclose(u_hat(0.2), out.u(0.2), atol=1e-10)
            np.testing.assert_allclose(u_hat(0.1), [u0], atol=1e-13)

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_dg_weak_form_holds(self, r):
        # test the converged step against every basis polynomial:
        # int U' V dt + (U(t0+) - u_left) V(t0+) = int f(t,U) V dt
        from numpy.polynomial import legendre as L

        from hpgalerkin.poly import gauss_legendre
        from hpgalerkin.problems import rhs_at

        p = make_power_square(1.0)
        iv = Interval(0.0, 0.1)
        out = step(p, StepInput(iv, r, np.array([1.0]), Scheme.DG))
        assert out.converged
        q = gauss_legendre(r + 6)
        du_vals = out.u.derivative().at_reference(q.nodes)[0]
        f_vals = rhs_at(p, iv.from_reference(q.nodes), out.u.at_reference(q.nodes).T)[:, 0]
        jump = out.u(iv.t_start)[0] - 1.0
        for j in range(r + 1):
            basis = L.legval(q.nodes, np.eye(r + 1)[j])
            lhs = 0.5 * iv.k * float(np.dot(q.weights * basis, du_vals))
            rhs = 0.5 * iv.k * float(np.dot(q.weights * basis, f_vals))
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


def norm_square():
    """f(u) = |u| u in R^2: blows up like u^2 along the direction of u0."""
    return Problem(
        dim=2,
        u0=np.array([0.6, 0.8]),
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
                u_hat = reconstruct(p, inp, out.u)
                u_ref = reference_reconstruct(p, inp, ref[0])
                scale = max(1.0, float(np.max(np.abs(u_ref.coeffs))))
                assert np.max(np.abs(u_hat.coeffs - u_ref.coeffs)) <= 1e-13 * scale
                eta = residual_estimator(p, u_hat, u_left)
                assert abs(eta - reference_residual(p, u_ref, u_left)) <= 1e-13 * scale

    @pytest.mark.parametrize("make,u_left,k", [
        (forced_decay, np.array([0.9]), 0.4),
        (norm_square, np.array([0.71, -1.19]), 0.3 / np.hypot(0.71, 1.19)),
    ], ids=["forced_d1", "norm_square_d2"])
    def test_divergence_cap_straddled(self, make, u_left, k):
        # With the cap between the sampled sup norm of the solution and
        # the sum of |c|, the cheap bound trips on the final iterates and
        # sampling must clear them; just below the sampled sup norm the
        # step must diverge.  Both decisions must match the reference.
        p, straddled = make(), 0
        for scheme, r in SCHEME_DEGREES:
            inp = StepInput(Interval(0.1, 0.1 + k), r, u_left, scheme)
            u, _, exists, _ = reference_step(p, inp, PicardConfig())
            linf, l1 = u.linf_norm(), float(np.sum(np.abs(u.coeffs)))
            if not exists or l1 <= linf * (1.0 + 1e-6):
                continue
            straddled += 1
            for cap, converged in ((0.5 * (linf + l1), True), (0.99 * linf, False)):
                cfg = PicardConfig(divergence_cap=cap)
                out, ref = step(p, inp, cfg), reference_step(p, inp, cfg)
                assert ref[2] is converged
                assert_same_step(out, ref, 1e-13)
        assert straddled >= 12  # every case of degree >= 3
