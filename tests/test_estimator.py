import math

import numpy as np
import pytest

from hpgalerkin.estimator import (
    DeltaNotFound,
    DeltaSolverConfig,
    StepEstimate,
    effectivity,
    error_bound,
    phi,
    projection_estimator,
    psi_update,
    reconstruction_error,
    residual_estimator,
    solve_delta,
)
from hpgalerkin.galerkin import Scheme, StepInput, reconstruct, step
from hpgalerkin.poly import Interval, LocalPoly, gauss_legendre, l2_project
from hpgalerkin.problems import Problem, make_exponential, make_linear, make_power_square

from _oracles import brute_force_residual, reference_reconstruction_error


class TestResidualEstimator:
    def test_zero_rhs(self):
        p = Problem(dim=1, u0=np.ones(1), f=lambda t, u: np.zeros_like(u), lip=lambda t, a, b: 0.0)
        u_hat = LocalPoly.constant(Interval(0.0, 1.0), np.array([1.0]), degree=2)
        assert residual_estimator(p, u_hat, np.array([1.0])) == 0.0

    def test_constant_rhs_exact_reconstruction(self):
        p = Problem(dim=1, u0=np.zeros(1), f=lambda t, u: np.array([1.0]), lip=lambda t, a, b: 0.0)
        ramp = LocalPoly.constant(Interval(0.0, 0.5), np.array([1.0])).antiderivative(
            np.array([2.0])
        )
        assert residual_estimator(p, ramp, np.array([2.0])) <= 1e-12

    def test_against_brute_force_single_step(self):
        p = make_power_square(1.0)
        inp = StepInput(Interval(0.0, 0.1), 1, np.array([1.0]), Scheme.CG)
        out = step(p, inp)
        u_hat = reconstruct(p, inp, out.u)
        eta = residual_estimator(p, u_hat, inp.u_left)
        oracle = brute_force_residual(p, u_hat)
        assert eta == pytest.approx(oracle, rel=0.01)

    def test_against_brute_force_random_reconstructions(self, rng):
        # 20 random degree-(r+1) polynomials treated as reconstructions
        problems = [make_power_square(1.0), make_exponential(0.0)]
        for i in range(20):
            p = problems[i % 2]
            t0 = rng.uniform(0.0, 0.3)
            iv = Interval(t0, t0 + 10 ** rng.uniform(-2.5, -0.5))
            deg = int(rng.integers(2, 7))
            coeffs = rng.standard_normal((deg + 1, 1)) * 0.4
            u_hat = LocalPoly(iv, coeffs)
            eta = residual_estimator(p, u_hat, u_hat(iv.t_start))
            oracle = brute_force_residual(p, u_hat, n_samples=2_000)
            assert eta == pytest.approx(oracle, rel=0.01)


class TestProjectionEstimator:
    def test_identity_projector(self):
        assert projection_estimator(np.array([3.0, -4.0])) == 0.0

    def test_supplied_projector(self):
        drop_last = lambda v: np.array([v[0], 0.0])
        assert projection_estimator(np.array([3.0, -4.0]), drop_last) == pytest.approx(4.0)

    def test_zero_vector(self):
        assert projection_estimator(np.zeros(3)) == 0.0


class TestPsiUpdate:
    def test_first_interval(self):
        assert psi_update(None, 0.0, 1e-3) == 1e-3

    def test_recursion(self):
        prev = StepEstimate(
            eta_res=1e-3, eta_proj=0.0, psi=1e-3, delta=2.0, bound=2e-3, delta_hat=2.0
        )
        assert psi_update(prev, 0.0, 5e-4) == pytest.approx(2.5e-3)

    def test_all_zero(self):
        assert psi_update(None, 0.0, 0.0) == 0.0

    def test_missing_delta_rejected(self):
        prev = StepEstimate(
            eta_res=1e-3, eta_proj=0.0, psi=1e-3, delta=None, bound=None, delta_hat=1.0
        )
        with pytest.raises(ValueError):
            psi_update(prev, 0.0, 1e-4)


def flat_reconstruction(value, iv=Interval(0.0, 0.1), degree=2):
    return LocalPoly.constant(iv, np.array([value]), degree=degree)


class TestPhi:
    def test_constant_envelope_closed_form(self):
        p = make_linear(2.0, [1.0])
        iv = Interval(0.0, 0.1)
        val = phi(p, iv, flat_reconstruction(0.7, iv), psi=0.3, delta=1.0)
        assert val == pytest.approx(math.exp(0.2) - 1.0, rel=1e-12)

    def test_zero_state(self):
        p = make_power_square(1.0)
        iv = Interval(0.0, 0.5)
        assert phi(p, iv, flat_reconstruction(0.0, iv), psi=0.0, delta=1.0) == pytest.approx(0.0)

    def test_power_square_hand_value(self):
        # envelope a + b with uhat = 1, psi = 0.01, delta = 2 on k = 0.1:
        # exponent = 0.1 * (2*0.01 + 2) = 0.202
        p = make_power_square(1.0)
        iv = Interval(0.0, 0.1)
        val = phi(p, iv, flat_reconstruction(1.0, iv), psi=0.01, delta=2.0)
        assert val == pytest.approx(math.exp(0.202) - 2.0, rel=1e-12)

    def test_delta_below_one_rejected(self):
        p = make_power_square(1.0)
        with pytest.raises(ValueError):
            phi(p, Interval(0.0, 0.1), flat_reconstruction(1.0), psi=0.0, delta=0.5)

    def test_overflow_is_plus_inf(self):
        p = make_exponential(1.0)
        iv = Interval(0.0, 0.1)
        assert phi(p, iv, flat_reconstruction(1.0, iv), psi=800.0, delta=2.0) == math.inf


class TestSolveDelta:
    def test_constant_envelope_closed_form(self):
        p = make_linear(2.0, [1.0])
        iv = Interval(0.0, 0.1)
        d = solve_delta(p, iv, flat_reconstruction(1.0, iv), psi=1e-3)
        assert d == pytest.approx(math.exp(0.2), abs=1e-8)

    def test_zero_state_gives_one(self):
        p = make_power_square(1.0)
        iv = Interval(0.0, 0.5)
        d = solve_delta(p, iv, flat_reconstruction(0.0, iv), psi=0.0)
        assert d == pytest.approx(1.0, abs=1e-10)

    def test_not_found_far_from_existence(self):
        # exponent >= k*(delta*psi + 2*|uhat|) = 0.5*(delta + 20), so phi > 0
        # throughout the scan range
        p = make_power_square(1.0)
        iv = Interval(0.0, 0.5)
        out = solve_delta(p, iv, flat_reconstruction(10.0, iv), psi=1.0)
        assert isinstance(out, DeltaNotFound)
        assert out.min_phi > 0.0

    def test_left_crossing_verified(self):
        p = make_power_square(1.0)
        iv = Interval(0.0, 0.05)
        u_hat = flat_reconstruction(1.0, iv)
        d = solve_delta(p, iv, u_hat, psi=1e-4)
        assert isinstance(d, float)
        eps = 1e-8
        assert phi(p, iv, u_hat, 1e-4, d * (1 + eps)) < 0.0
        if d * (1 - eps) >= 1.0:
            assert phi(p, iv, u_hat, 1e-4, d * (1 - eps)) > 0.0

    def test_warm_start_agrees_with_cold(self):
        p = make_power_square(1.0)
        iv = Interval(0.0, 0.05)
        u_hat = flat_reconstruction(1.2, iv)
        cold = solve_delta(p, iv, u_hat, psi=1e-4)
        warm = solve_delta(p, iv, u_hat, psi=1e-4, prev_delta=cold)
        assert warm == pytest.approx(cold, rel=1e-8)

    def test_random_lipschitz_closed_form(self, rng):
        cfg = DeltaSolverConfig()
        for _ in range(50):
            L = rng.uniform(1e-6, 5.0)
            k = rng.uniform(1e-6, 1.0)
            p = make_linear(L, [1.0])
            iv = Interval(0.0, k)
            d = solve_delta(p, iv, flat_reconstruction(0.3, iv), psi=1e-3, cfg=cfg)
            assert d == pytest.approx(math.exp(L * k), abs=1e-8)


class TestErrorBound:
    def test_zero(self):
        assert error_bound(1.0, 0.0) == 0.0

    def test_growth_times_psi(self):
        assert error_bound(math.exp(0.2), 1e-3) == pytest.approx(1.2214027582e-3, rel=1e-9)

    def test_full_error_variant(self):
        base = error_bound(math.exp(0.2), 1e-3)
        assert error_bound(math.exp(0.2), 1e-3, 2e-4) == pytest.approx(base + 2e-4)

    def test_delta_below_one_rejected(self):
        with pytest.raises(ValueError):
            error_bound(0.99, 1.0)


class TestEffectivity:
    def test_ratio(self):
        p = make_linear(0.0, [1.0])  # exact(t) = 1
        off = flat_reconstruction(1.0 - 1e-3, Interval(0.0, 1.0))
        assert effectivity(7e-2, p, [off]) == pytest.approx(70.0, rel=1e-9)

    def test_equal_gives_one(self):
        p = make_linear(0.0, [1.0])
        off = flat_reconstruction(0.0, Interval(0.0, 1.0))
        assert effectivity(1.0, p, [off]) == pytest.approx(1.0)

    def test_exact_match_gives_inf(self):
        p = make_linear(0.0, [1.0])
        exact_flat = flat_reconstruction(1.0, Interval(0.0, 1.0))
        assert effectivity(1e-3, p, [exact_flat]) == math.inf

    def test_requires_exact(self):
        p = Problem(dim=1, u0=np.ones(1), f=lambda t, u: u, lip=lambda t, a, b: 1.0)
        with pytest.raises(ValueError):
            effectivity(1.0, p, [flat_reconstruction(1.0)])
        with pytest.raises(ValueError):
            reconstruction_error(p, flat_reconstruction(1.0))


def norm_power_problem(u0):
    """f = |u| u in R^d; u(t) = u0 / (1 - |u0| t) blows up at 1/|u0|."""
    u0 = np.asarray(u0, dtype=float)
    size = float(np.linalg.norm(u0))
    return Problem(
        dim=u0.size,
        u0=u0,
        f=lambda t, u: np.linalg.norm(u) * u,
        lip=lambda t, a, b: 2.0 * max(a, b),
        exact=lambda t: np.multiply.outer(u0, 1.0 / (1.0 - size * np.asarray(t, dtype=float))),
        t_blowup=1.0 / size,
        name="norm-power",
    )


class TestReconstructionError:
    """One vectorised exact(ts) call against the per-point scalar loop."""

    @pytest.mark.parametrize(
        "p",
        [
            make_power_square(1.0),
            make_exponential(1.0),
            norm_power_problem([0.6, -0.8]),
            make_linear(-1.5, [1.0, 2.0]),
        ],
        ids=["power2", "exp", "norm-power-d2", "linear-d2"],
    )
    @pytest.mark.parametrize("r", range(1, 9))
    def test_bits_match_reference_loop(self, p, r):
        # blow-up problems: intervals of k = frac * (T - t0) at distance
        # gap * T from the blow-up, i.e. k |u| = frac for power2
        horizon = p.t_blowup if p.t_blowup is not None else 1.0
        for gap in (0.5, 1e-3, 1e-7):
            for frac in (0.01, 0.1, 0.4, 0.9):
                t0 = horizon * (1.0 - gap)
                iv = Interval(t0, t0 + frac * horizon * gap)
                u_hat = l2_project(p.exact, iv, r + 1)
                got = reconstruction_error(p, u_hat)
                assert got == reference_reconstruction_error(p, u_hat)
                assert got > 0.0

    @pytest.mark.parametrize(
        "exact",
        [
            lambda t: np.array([math.exp(t)]),  # math.exp rejects arrays
            lambda t: np.array([1.0]),  # ignores the shape of t
            lambda t: np.atleast_1d(np.exp(t)),  # (n,) instead of (1, n)
        ],
        ids=["scalar-only", "fixed-shape", "flat"],
    )
    def test_scalar_style_exact_rejected(self, exact):
        p = Problem(dim=1, u0=np.ones(1), f=lambda t, u: u, lip=lambda t, a, b: 1.0, exact=exact)
        with pytest.raises(ValueError, match=r"\(1, 74\)"):
            reconstruction_error(p, flat_reconstruction(1.0, degree=1))

    def test_transposed_exact_rejected(self):
        base = make_linear(1.0, [1.0, 2.0])
        p = Problem(dim=2, u0=base.u0, f=base.f, lip=base.lip, exact=lambda t: base.exact(t).T)
        u_hat = LocalPoly.constant(Interval(0.0, 0.1), np.array([1.0, 2.0]), degree=2)
        with pytest.raises(ValueError, match="expected"):
            reconstruction_error(p, u_hat)
