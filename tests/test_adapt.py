import dataclasses
import math
import sys

import numpy as np
import pytest

from hpgalerkin.adapt import (
    AdaptConfig,
    Mode,
    RunResult,
    SmoothnessReport,
    Termination,
    h_adapt,
    hp_adapt,
    run_errors,
    smoothness,
)
import hpgalerkin.adapt as adapt_module
from hpgalerkin.galerkin import PicardConfig, Scheme, reconstruct, step
from hpgalerkin.poly import Interval, LocalPoly, basis, l2_project
import hpgalerkin.problems as problems
from hpgalerkin.problems import Problem, make_exponential, make_linear, make_power_square

from _oracles import reference_smoothness, zero_rhs


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

    @pytest.mark.parametrize("scale", [2.0**700, 2.0**-1060], ids=["2^700", "2^-1060"])
    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_scale_free_past_squared_overflow(self, r, scale, rng):
        # the squared norms overflow at 2^700 and underflow to 0 at
        # 2^-1060, yet theta is the same bits as at scale 1; small
        # integers and k = 1/2 keep w exact at both scales
        iv = Interval(0.25, 0.75)
        c = rng.integers(-8, 9, size=(r + 1, 2)).astype(float)
        assert smoothness(LocalPoly(iv, scale * c), r) == smoothness(LocalPoly(iv, c), r)

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

    def test_degree_cap(self):
        base = dict(scheme=Scheme.CG, k_init=0.1, tol_star=1e-3)
        AdaptConfig(mode=Mode.H, r_init=58, r_max=100, **base)  # r_max unused in H mode
        AdaptConfig(mode=Mode.HP, r_init=1, r_max=58, **base)
        with pytest.raises(ValueError, match="r_init = 59 is above the degree cap 58"):
            AdaptConfig(mode=Mode.H, r_init=59, **base)
        with pytest.raises(ValueError, match="r_max = 59 is above the degree cap 58"):
            AdaptConfig(mode=Mode.HP, r_init=1, r_max=59, **base)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("key", ["k_init", "tol_star", "k_min"])
    def test_lengths_and_tolerance_positive_and_finite(self, key, value):
        base = dict(scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=0.1, tol_star=1e-3)
        with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
            AdaptConfig(**{**base, key: value})

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

    def test_overflowing_residual_halves(self, monkeypatch):
        # the run's first residual is taken of a reconstruction whose
        # subtraction from the lift leaves double range: the real
        # residual_estimator raises NumericOverflow, and the attempt is
        # halved like one whose reconstruction overflows
        residual = adapt_module.residual_estimator
        calls = [0]

        def first_overflows(p, u_hat, u_left):
            calls[0] += 1
            if calls[0] == 1:
                u_hat = LocalPoly(u_hat.interval, [[1.5e308], [0.0]])
                return residual(zero_rhs(), u_hat, [-1.5e308])
            return residual(p, u_hat, u_left)

        monkeypatch.setattr(adapt_module, "residual_estimator", first_overflows)
        cfg = AdaptConfig(scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=0.1, tol_star=1e-3)
        res = h_adapt(make_power_square(1.0), cfg)
        first = res.intervals[0]
        assert first.decisions[0] == "halve_k_overflow" and first.interval.k < 0.1
        assert res.termination is Termination.DELTA_NOT_FOUND and 0.0 < res.T < 1.0


@pytest.fixture(scope="module")
def run():
    return h_adapt(
        make_power_square(1.0),
        AdaptConfig(scheme=Scheme.CG, mode=Mode.H, r_init=2, k_init=0.1, tol_star=1e-5),
    )


@pytest.fixture(scope="module")
def run_errs(run):
    return run_errors(make_power_square(1.0), run)


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

    def test_bound_certifies_error(self, run, run_errs):
        for rec, err, eff in zip(run.intervals, *run_errs):
            assert err <= rec.estimate.bound * (1 + 1e-6)
            assert eff >= 1.0

    def test_delta_hat_product(self, run, run_errs):
        prod = 1.0
        for rec in run.intervals:
            prod *= rec.estimate.delta
            assert rec.estimate.delta_hat == pytest.approx(prod, rel=1e-12)
        # global failsafe from the tolerance-scaling discipline
        worst = max(run_errs[0])
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

    def test_linear_past_squared_overflow(self):
        # without a divergence cap the march passes |u| = 1e154, where the
        # squares in the smoothness and reconstruction-error norms leave
        # double range; the run must go on to its interval cap
        cfg = AdaptConfig(
            scheme=Scheme.CG,
            mode=Mode.HP,
            r_init=2,
            k_init=0.01,
            tol_star=1e-6,
            max_intervals=600,
            picard=PicardConfig(divergence_cap=math.inf),
        )
        p = make_linear(400.0, [1.0])
        res = hp_adapt(p, cfg)
        assert res.termination is Termination.MAX_INTERVALS and res.M == 600
        assert max(np.abs(rec.output.u.coeffs).max() for rec in res.intervals) > 1e170
        assert all(math.isfinite(err) for err in run_errors(p, res)[0])
        assert all(0.0 <= rec.theta <= 1.0 for rec in res.intervals)

    def test_linear_past_residual_squared_overflow(self, monkeypatch):
        # the same march with room for 2000 intervals passes |u| = 1e154
        # in the residual's sup norm too; an inf residual there would
        # refine accurate attempts (it ended at the interval cap at
        # T = 0.99163 with 21 inf residuals) instead of marching on until
        # the step length underflows where e^(400 T) nears double range
        etas = []
        residual = adapt_module.residual_estimator

        def recorded(*args):
            etas.append(residual(*args))
            return etas[-1]

        monkeypatch.setattr(adapt_module, "residual_estimator", recorded)
        cfg = AdaptConfig(
            scheme=Scheme.CG,
            mode=Mode.HP,
            r_init=2,
            k_init=0.01,
            tol_star=1e-6,
            max_intervals=2000,
            picard=PicardConfig(divergence_cap=math.inf),
        )
        res = hp_adapt(make_linear(400.0, [1.0]), cfg)
        assert len(etas) >= res.M > 600
        assert all(math.isfinite(eta) for eta in etas)
        assert res.termination is Termination.K_MIN_REACHED
        assert res.T > 1.7

    def test_derivative_past_the_largest_double(self):
        # the second derivative of a step near 1e306 leaves double range
        # in the smoothness indicator: it reads as not smooth, and the
        # steps halve until k_min without a warning
        cfg = AdaptConfig(
            scheme=Scheme.CG, mode=Mode.HP, r_init=3, k_init=0.1, tol_star=1e-6,
            picard=PicardConfig(1e308),
        )
        res = hp_adapt(make_linear(1.0, [1e306]), cfg)
        assert res.termination is Termination.K_MIN_REACHED and res.M == 0
        u = LocalPoly(Interval(0.0, 1e-3), [[1e306], [1e306], [1e306], [1e306]])
        assert smoothness(u, 3) == SmoothnessReport(theta=0.0, smooth=False)

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
        for rec, err in zip(res.intervals, run_errors(p, res)[0]):
            assert err <= rec.estimate.bound * (1 + 1e-6)
        t_end = res.intervals[-1].interval.t_end
        np.testing.assert_allclose(
            res.intervals[-1].output.u(t_end),
            p.exact(t_end),
            rtol=1e-5,
        )


class TestEndValueOverflow:
    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG])
    @pytest.mark.parametrize("r", [2, 4])
    def test_march_stops_where_u_leaves_double_range(self, scheme, r):
        # u = 1e306 e^t passes the largest double at T = ln(max / 1e306):
        # a candidate whose end value overflows halves the step, and the
        # march aborts there without a warning
        cfg = AdaptConfig(
            scheme=scheme, mode=Mode.H, r_init=r, k_init=0.1, tol_star=1e296,
            picard=PicardConfig(math.inf),
        )
        res = h_adapt(make_linear(1.0, [1e306]), cfg)
        assert res.termination is Termination.K_MIN_REACHED
        assert res.T == pytest.approx(math.log(sys.float_info.max / 1e306), rel=1e-9)
        assert any("halve_k_overflow" in rec.decisions for rec in res.intervals)


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


class TestWarmStartDecisions:
    """The drivers seed Picard with the documented guesses, and no step
    decision differs from that of the constant start."""

    RUNS = [
        (make, k_init, scheme, mode)
        for make, k_init in ((make_power_square, 0.15), (make_exponential, 0.09))
        for scheme in (Scheme.CG, Scheme.DG)
        for mode in (Mode.H, Mode.HP)
    ]

    def test_guesses_and_decisions(self, monkeypatch):
        calls = []

        def spy(p, inp, cfg, *, guess=None, atol=0.0):
            out = step(p, inp, cfg, guess=guess, atol=atol)
            cold = step(p, inp, cfg, atol=atol) if guess is not None else out
            calls.append((inp, guess, out, (cold.converged, cold.failure)))
            return out

        monkeypatch.setattr(adapt_module, "step", spy)
        kinds = {"shift": 0, "halve": 0, "raise": 0}
        for make, k_init, scheme, mode in self.RUNS:
            cfg = AdaptConfig(
                scheme=scheme,
                mode=mode,
                r_init=1,
                k_init=k_init,
                tol_star=1e-6 if mode is Mode.HP else 1e-4,
                picard=PicardConfig(divergence_cap=1e12),
            )
            calls.clear()
            (hp_adapt if mode is Mode.HP else h_adapt)(make(1.0), cfg)
            assert calls[0][1] is None
            for (prev, _, prev_out, _), (inp, guess, out, cold) in zip(calls, calls[1:]):
                assert (out.converged, out.failure) == cold
                if not prev_out.converged:
                    assert guess is None
                    continue
                op = basis(prev.r)
                c = prev_out.u.coeffs
                if inp.interval.t_start == prev.interval.t_end:
                    kind, want = "shift", op.shift @ c
                    # same step length up to the rounding of t + k - t
                    assert inp.r == prev.r
                    assert inp.interval.k == pytest.approx(prev.interval.k, rel=1e-6)
                elif inp.r == prev.r + 1:
                    kind, want = "raise", np.vstack([c, np.zeros((1, c.shape[1]))])
                else:
                    kind, want = "halve", op.halve @ c
                assert np.array_equal(guess, want)
                kinds[kind] += 1
        assert min(kinds.values()) > 10, kinds


def norm_square_scalar():
    """f(u) = |u| u in R^2 given by scalar f and lip only."""
    return Problem(
        dim=2,
        u0=np.array([0.6, 0.8]),
        f=lambda t, u: np.linalg.norm(u) * u,
        lip=lambda t, a, b: 2.0 * max(a, b),
    )


class TestInexactPicard:
    """The drivers stop Picard at PICARD_TOL_SHARE of the running
    tolerance, lift the f values of the step's last update, and start
    each interval at the end value of the previous reconstruction."""

    RUNS = [
        (make_power_square(1.0), Scheme.CG, Mode.H, 1, 0.15, 1e-4),
        (make_power_square(1.0), Scheme.DG, Mode.H, 4, 0.15, 1e-6),
        (make_power_square(1.0), Scheme.CG, Mode.HP, 1, 0.15, 1e-7),
        (norm_square_scalar(), Scheme.CG, Mode.HP, 1, 0.15, 1e-6),
        (norm_square_scalar(), Scheme.DG, Mode.HP, 1, 0.15, 1e-5),
    ]

    @pytest.mark.parametrize(
        "p,scheme,mode,r,k_init,tol",
        RUNS,
        ids=["power2-cg-h-1", "power2-dg-h-4", "power2-cg-hp", "custom-cg-hp", "custom-dg-hp"],
    )
    def test_continuity_stop_and_lift(self, p, scheme, mode, r, k_init, tol, monkeypatch):
        attempts = []

        def spy(p, inp, cfg, *, guess=None, atol=0.0):
            out = step(p, inp, cfg, guess=guess, atol=atol)
            attempts.append((inp, atol, out))
            return out

        monkeypatch.setattr(adapt_module, "step", spy)
        cfg = AdaptConfig(
            scheme=scheme, mode=mode, r_init=r, k_init=k_init, tol_star=tol,
            picard=PicardConfig(divergence_cap=1e12),
        )
        res = (hp_adapt if mode is Mode.HP else h_adapt)(p, cfg)
        assert res.termination is Termination.DELTA_NOT_FOUND and res.M > 10
        accepted = {}
        for inp, atol, out in attempts:
            if out.converged:
                accepted[(inp.interval.t_start, inp.interval.t_end, inp.r)] = (inp, atol, out)
        u_left, running = p.u0, tol
        for rec, tol_after in zip(res.intervals, res.tol_trace):
            iv = rec.interval
            inp, atol, out = accepted[(iv.t_start, iv.t_end, rec.r)]
            assert out is rec.output
            # continuity: each interval starts where the reconstruction
            # before it ends, bit for bit
            assert inp.u_left.tobytes() == np.asarray(u_left, dtype=float).tobytes()
            # the stop is the fixed share of the running tolerance
            assert atol == adapt_module.PICARD_TOL_SHARE * running
            # the reconstruction is the lift of the step's own f values
            lifted = reconstruct(p, inp, out.u, out.f_vals)
            assert rec.reconstruction.coeffs.tobytes() == lifted.coeffs.tobytes()
            u_left, running = rec.reconstruction.coeffs.sum(axis=0), tol_after


class TestTracerFidelity:
    """Wrapping rhs_at/lip_at on every module binding, as the benchmark's
    tracer does, sees every point at which f and lip are evaluated."""

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "scalar"])
    def test_wrapped_points_equal_evaluated_points(self, monkeypatch, batch):
        counts = {"f": 0, "lip": 0, "rhs_at": 0, "lip_at": 0}
        if batch:
            base = make_power_square(1.0)

            def f_batch(ts, us):
                counts["f"] += len(ts)
                return base.f_batch(ts, us)

            def lip_batch(ts, a, b):
                counts["lip"] += len(ts)
                return base.lip_batch(ts, a, b)

            p = dataclasses.replace(base, f_batch=f_batch, lip_batch=lip_batch)
        else:
            base = norm_square_scalar()

            def f(t, u):
                counts["f"] += 1
                return base.f(t, u)

            def lip(t, a, b):
                counts["lip"] += 1
                return base.lip(t, a, b)

            p = dataclasses.replace(base, f=f, lip=lip)

        mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "hpgalerkin"]
        for name, orig in (("rhs_at", problems.rhs_at), ("lip_at", problems.lip_at)):

            def traced(p, ts, *args, _name=name, _orig=orig):
                counts[_name] += len(ts)
                return _orig(p, ts, *args)

            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, attr, traced)

        cfg = AdaptConfig(scheme=Scheme.CG, mode=Mode.HP, r_init=1, k_init=0.15, tol_star=1e-6)
        result = hp_adapt(p, cfg)
        assert result.termination is Termination.DELTA_NOT_FOUND
        assert counts["rhs_at"] == counts["f"] > 0
        assert counts["lip_at"] == counts["lip"] > 0


class TestLazyTheta:
    """``IntervalRecord.theta`` is computed on access, with the value the
    driver used to store."""

    RUNS = [
        (make_power_square(1.0), Scheme.CG, Mode.H, 1),
        (make_power_square(1.0), Scheme.DG, Mode.H, 0),
        (make_power_square(1.0), Scheme.DG, Mode.H, 3),
        (make_exponential(1.0), Scheme.CG, Mode.HP, 1),
        (make_linear(2.0, [1.0, -0.5]), Scheme.DG, Mode.HP, 2),
    ]

    @pytest.mark.parametrize(
        "p,scheme,mode,r",
        RUNS,
        ids=["power2-cg-h-1", "power2-dg-h-0", "power2-dg-h-3", "exp-cg-hp-1", "linear2-dg-hp-2"],
    )
    def test_theta_on_access(self, p, scheme, mode, r, monkeypatch):
        calls = []
        score = adapt_module.smoothness

        def counted(u, r):
            calls.append(r)
            return score(u, r)

        monkeypatch.setattr(adapt_module, "smoothness", counted)
        cfg = AdaptConfig(scheme=scheme, mode=mode, r_init=r, k_init=0.1, tol_star=1e-5)
        res = (hp_adapt if mode is Mode.HP else h_adapt)(p, cfg)
        assert res.M > 5
        if mode is Mode.H:
            # no refinement decision reads the score of an h run
            assert calls == []
        for rec in res.intervals:
            if rec.r == 0:
                assert rec.theta is None
            else:
                assert rec.theta == score(rec.output.u, rec.r).theta
