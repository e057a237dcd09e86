import math

import numpy as np
import pytest

from hpgalerkin.adapt import (
    AdaptConfig,
    Mode,
    RunResult,
    Termination,
    h_adapt,
    hp_adapt,
    smoothness,
)
from hpgalerkin.galerkin import PicardConfig, Scheme
from hpgalerkin.poly import Interval, LocalPoly, l2_project
from hpgalerkin.problems import Problem, make_exponential, make_linear, make_power_square

from _oracles import reference_smoothness


def zero_rhs():
    return Problem(
        dim=1,
        u0=np.array([1.0]),
        f=lambda t, u: np.zeros_like(u),
        lip=lambda t, a, b: 0.0,
        exact=lambda t: np.ones((1,) + np.shape(t)),
    )


class TestSmoothness:
    def test_constant_saturates_embedding(self):
        # r=1 applies the indicator to u itself; a constant attains the bound
        u = LocalPoly.constant(Interval(0.0, 0.5), np.array([-2.5]))
        rep = smoothness(u, 1)
        assert rep.theta == pytest.approx(1.0, abs=1e-12)
        assert rep.smooth
        # r=2 differentiates once: a linear u also saturates
        lin = l2_project(lambda t: np.array([2.0 + 3.0 * t]), Interval(0.0, 0.5), 1)
        assert smoothness(lin, 2).theta == pytest.approx(1.0, abs=1e-12)

    def test_zero_polynomial(self):
        u = LocalPoly.constant(Interval(0.0, 1.0), np.array([0.0]), degree=2)
        assert smoothness(u, 2).theta == 1.0

    def test_ramp_analytic_value(self):
        # w(t) = t on (0,1): theta = 1 / (1/sqrt(3) + 1/sqrt(2))
        u = l2_project(lambda t: np.array([t]), Interval(0.0, 1.0), 1)
        rep = smoothness(u, 1)
        assert rep.theta == pytest.approx(1.0 / (1.0 / math.sqrt(3) + 1.0 / math.sqrt(2)), abs=1e-3)
        assert not rep.smooth  # 0.778 < 0.85

    def test_degree_zero_rejected(self):
        u = LocalPoly.constant(Interval(0.0, 1.0), np.array([1.0]))
        with pytest.raises(ValueError):
            smoothness(u, 0)

    def test_degree_above_r_rejected(self):
        u = LocalPoly(Interval(0.0, 1.0), np.ones((4, 1)))
        with pytest.raises(ValueError, match="degree <= r"):
            smoothness(u, 2)


def _ulps(a, b):
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


class TestSmoothnessAgainstReference:
    """Closed-form norms of the affine w against r-1 LocalPoly derivatives
    and the sampled sup norm."""

    @staticmethod
    def candidates(rng, r, d):
        """Random degree-r candidates on intervals of 1e-6..3, with
        generic, constant (top coefficient 0), nearly constant and
        vanishing (top two coefficients 0) (r-1)-th derivatives, and
        degree r-1 inputs."""
        for _ in range(40):
            a = rng.uniform(-2.0, 2.0)
            iv = Interval(a, a + float(10.0 ** rng.uniform(-6.0, 0.5)))
            c = rng.standard_normal((r + 1, d)) * 10.0 ** rng.uniform(-3.0, 8.0)
            yield "generic", LocalPoly(iv, c)
            top = c.copy()
            top[-1] = 0.0
            yield "constant", LocalPoly(iv, top)
            yield "below-r", LocalPoly(iv, c[:r])
            near = c.copy()
            near[-1] *= 10.0 ** rng.uniform(-14.0, -4.0)
            yield "nearly-constant", LocalPoly(iv, near)
            zero = c.copy()
            zero[-2:] = 0.0
            yield "vanishing", LocalPoly(iv, zero)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_matches_reference(self, r, d, rng):
        for kind, u in self.candidates(rng, r, d):
            rep = smoothness(u, r)
            theta, smooth = reference_smoothness(u, r)
            assert rep.smooth == smooth
            if d == 1 or kind != "nearly-constant":
                assert rep.theta == theta, kind
            else:
                # |w| is convex, so its sup is max(|w(-1)|, |w(1)|); an
                # interior sample can exceed that by rounding when w is
                # nearly constant and d > 1, by at most a few ulp
                assert rep.theta <= theta and _ulps(rep.theta, theta) <= 4, kind


class TestConfigValidation:
    def test_cg_h_needs_degree_one(self):
        with pytest.raises(ValueError):
            AdaptConfig(scheme=Scheme.CG, mode=Mode.H, r_init=0, k_init=0.1, tol_star=1e-3)

    def test_dg_h_allows_degree_zero(self):
        AdaptConfig(scheme=Scheme.DG, mode=Mode.H, r_init=0, k_init=0.1, tol_star=1e-3)

    def test_hp_needs_degree_one(self):
        with pytest.raises(ValueError):
            AdaptConfig(scheme=Scheme.DG, mode=Mode.HP, r_init=0, k_init=0.1, tol_star=1e-3)

    def test_mode_mismatch_rejected(self):
        cfg = AdaptConfig(scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=0.1, tol_star=1e-3)
        with pytest.raises(ValueError):
            hp_adapt(make_power_square(1.0), cfg)


class TestHAdapt:
    def test_power_square_terminates_before_blowup(self):
        res = h_adapt(
            make_power_square(1.0),
            AdaptConfig(scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=0.1, tol_star=1e-3),
        )
        assert res.termination is Termination.DELTA_NOT_FOUND
        assert 0.0 < res.T < 1.0

    def test_linear_never_loses_delta(self):
        res = h_adapt(
            make_linear(1.0, [1.0]),
            AdaptConfig(
                scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=0.1, tol_star=1e-6,
                max_intervals=100,
            ),
        )
        assert res.termination is Termination.MAX_INTERVALS
        assert res.M == 100

    def test_zero_rhs_run(self):
        cfg = AdaptConfig(
            scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=0.25, tol_star=1e-8,
            max_intervals=5,
        )
        res = h_adapt(zero_rhs(), cfg)
        assert res.termination is Termination.MAX_INTERVALS
        for rec in res.intervals:
            assert rec.interval.k == 0.25
            assert rec.estimate.eta_res == 0.0
            assert rec.estimate.delta == pytest.approx(1.0, abs=1e-10)
        # delta == 1 throughout: the tolerance is never rescaled
        assert res.tol_trace[-1] == pytest.approx(1e-8, rel=1e-9)

    def test_zero_rhs_hp_matches_h(self):
        base = dict(r_init=1, k_init=0.25, tol_star=1e-8, max_intervals=5)
        res_h = h_adapt(zero_rhs(), AdaptConfig(scheme=Scheme.CG, mode=Mode.H, **base))
        res_hp = hp_adapt(zero_rhs(), AdaptConfig(scheme=Scheme.CG, mode=Mode.HP, **base))
        assert res_h.T == res_hp.T
        assert [r.r for r in res_h.intervals] == [r.r for r in res_hp.intervals]

    def test_degree_constancy(self):
        res = h_adapt(
            make_power_square(1.0),
            AdaptConfig(scheme=Scheme.DG, mode=Mode.H, r_init=2, k_init=0.1, tol_star=1e-4),
        )
        assert all(rec.r == 2 for rec in res.intervals)

    def test_kmin_abort_reported(self):
        # a divergence cap below |u0| makes every Picard attempt fail
        res = h_adapt(
            make_power_square(1.0),
            AdaptConfig(
                scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=0.1, tol_star=1e-3,
                k_min=1e-6, picard=PicardConfig(divergence_cap=0.5),
            ),
        )
        assert res.termination is Termination.K_MIN_REACHED
        assert res.M == 0 and res.T == 0.0


@pytest.fixture(scope="module")
def run():
    return h_adapt(
        make_power_square(1.0),
        AdaptConfig(scheme=Scheme.CG, mode=Mode.H, r_init=2, k_init=0.1, tol_star=1e-5),
    )


class TestLedgerInvariants:

    def test_tolerance_ledger(self, run):
        for rec, tol in zip(run.intervals, run.tol_trace):
            assert tol == pytest.approx(1e-5 * rec.estimate.delta_hat, rel=1e-12)

    def test_residual_within_scaled_tolerance(self, run):
        scaled = 1e-5
        for rec in run.intervals:
            assert rec.estimate.eta_res <= scaled * (1 + 1e-12)
            scaled *= rec.estimate.delta

    def test_psi_recursion_and_monotonicity(self, run):
        prev = None
        for rec in run.intervals:
            e = rec.estimate
            expected = e.eta_res if prev is None else prev.delta * prev.psi + e.eta_res
            assert e.psi == pytest.approx(expected, rel=1e-13)
            if prev is not None:
                assert e.psi >= prev.delta * prev.psi >= prev.psi
            assert e.psi >= e.eta_res
            assert e.bound == e.delta * e.psi
            prev = e

    def test_monotone_horizon(self, run):
        ends = [rec.interval.t_end for rec in run.intervals]
        assert all(b > a for a, b in zip(ends, ends[1:]))
        assert math.isfinite(run.T) and run.T == ends[-1]

    def test_bound_certifies_error(self, run):
        for rec in run.intervals:
            assert rec.recon_error <= rec.estimate.bound * (1 + 1e-6)
            assert rec.estimate.effectivity >= 1.0

    def test_delta_hat_product(self, run):
        prod = 1.0
        for rec in run.intervals:
            prod *= rec.estimate.delta
            assert rec.estimate.delta_hat == pytest.approx(prod, rel=1e-12)
        # global failsafe from the tolerance-scaling discipline
        worst = max(rec.recon_error for rec in run.intervals)
        assert worst <= run.M * run.intervals[-1].estimate.delta_hat * 1e-5


class TestHpAdapt:
    def test_raises_degree_in_smooth_region(self):
        res = hp_adapt(
            make_exponential(1.0),
            AdaptConfig(scheme=Scheme.CG, mode=Mode.HP, r_init=1, k_init=0.09, tol_star=1e-6),
        )
        assert res.termination is Termination.DELTA_NOT_FOUND
        assert any("raise_r" in rec.decisions for rec in res.intervals)
        assert max(rec.r for rec in res.intervals) > 1

    def test_degrees_nondecreasing_and_capped(self):
        res = hp_adapt(
            make_power_square(1.0),
            AdaptConfig(
                scheme=Scheme.DG, mode=Mode.HP, r_init=1, k_init=0.15, tol_star=1e-6, r_max=4
            ),
        )
        degrees = [rec.r for rec in res.intervals]
        assert all(b >= a for a, b in zip(degrees, degrees[1:]))
        assert max(degrees) <= 4

    def test_existence_refinement_always_halves(self):
        res = hp_adapt(
            make_power_square(1.0),
            AdaptConfig(scheme=Scheme.CG, mode=Mode.HP, r_init=1, k_init=0.15, tol_star=1e-4),
        )
        for rec in res.intervals:
            for d in rec.decisions:
                assert d in ("halve_k", "halve_k_existence", "halve_k_overflow", "raise_r")

    def test_hp_beats_h_at_equal_tolerance(self):
        p = make_power_square(1.0)
        base = dict(r_init=1, k_init=0.15, tol_star=1e-6)
        res_h = h_adapt(p, AdaptConfig(scheme=Scheme.CG, mode=Mode.H, **base))
        res_hp = hp_adapt(p, AdaptConfig(scheme=Scheme.CG, mode=Mode.HP, **base))
        assert abs(res_hp.T - 1.0) <= abs(res_h.T - 1.0)
        assert res_hp.dofs < res_h.dofs


class TestDeterminism:
    def test_identical_runs(self):
        cfg = AdaptConfig(scheme=Scheme.DG, mode=Mode.HP, r_init=1, k_init=0.09, tol_star=1e-5)
        p = make_exponential(1.0)
        a, b = hp_adapt(p, cfg), hp_adapt(p, cfg)
        assert a.T == b.T and a.M == b.M and a.dofs == b.dofs
        for ra, rb in zip(a.intervals, b.intervals):
            assert np.array_equal(ra.output.u.coeffs, rb.output.u.coeffs)
            assert ra.estimate.delta == rb.estimate.delta


class TestBlowupOneSidedness:
    @pytest.mark.parametrize(
        "p,t_inf,k_init",
        [(make_power_square(1.0), 1.0, 0.15), (make_exponential(1.0), math.exp(-1.0), 0.09)],
        ids=["power2", "exp"],
    )
    def test_horizon_below_blowup_and_improving(self, p, t_inf, k_init):
        errs = []
        for tol in (1e-3, 1e-5, 1e-7):
            res = h_adapt(
                p, AdaptConfig(scheme=Scheme.CG, mode=Mode.H, r_init=2, k_init=k_init, tol_star=tol)
            )
            assert res.T <= t_inf
            errs.append(t_inf - res.T)
        assert errs[2] < errs[0]


class TestVectorValued:
    def test_linear_system_run(self):
        p = make_linear(-1.0, [2.0, -1.0])
        res = h_adapt(
            p,
            AdaptConfig(
                scheme=Scheme.DG, mode=Mode.H, r_init=1, k_init=0.2, tol_star=1e-6,
                max_intervals=8,
            ),
        )
        assert res.termination is Termination.MAX_INTERVALS
        assert res.dofs == sum(2 * (rec.r + 1) for rec in res.intervals)
        for rec in res.intervals:
            assert rec.recon_error <= rec.estimate.bound * (1 + 1e-6)
        t_end = res.intervals[-1].interval.t_end
        np.testing.assert_allclose(
            res.intervals[-1].output.u(t_end),
            p.exact(t_end),
            rtol=1e-5,
        )


class TestDofCount:
    def test_cg_counting(self):
        res = h_adapt(
            zero_rhs(),
            AdaptConfig(
                scheme=Scheme.CG, mode=Mode.H, r_init=2, k_init=0.25, tol_star=1.0,
                max_intervals=3,
            ),
        )
        assert res.dofs == 6  # 3 intervals x r=2 x d=1
        assert res.dofs == sum(rec.dofs for rec in res.intervals)

    def test_dg_counting(self):
        res = h_adapt(
            zero_rhs(),
            AdaptConfig(
                scheme=Scheme.DG, mode=Mode.H, r_init=2, k_init=0.25, tol_star=1.0,
                max_intervals=3,
            ),
        )
        assert res.dofs == 9  # 3 intervals x (r+1)=3 x d=1
        assert res.dofs == sum(rec.dofs for rec in res.intervals)

    def test_empty_run(self):
        # every step from t = 0 overshoots the blow-up at T = 1, and
        # halving reaches k_min before one exists: no interval is accepted
        res = h_adapt(
            make_power_square(1.0),
            AdaptConfig(
                scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=8.0, tol_star=1.0, k_min=2.0,
            ),
        )
        assert res.termination is Termination.K_MIN_REACHED
        assert res.M == 0
        assert res.dofs == 0
