import dataclasses
import math
import sys

import numpy as np
import pytest
from numpy.polynomial import legendre
from hypothesis import given, settings, strategies as st

from hpgalerkin.estimator import (
    PHI_TOL,
    DeltaNotFound,
    StepEstimate,
    _growth_factory,
    psi_update,
    reconstruction_error,
    residual_estimator,
    solve_delta,
)
from hpgalerkin.adapt import AdaptConfig, Mode, Termination, h_adapt, hp_adapt, run_errors
from hpgalerkin.galerkin import (
    MAX_DEGREE,
    PicardConfig,
    Scheme,
    Start,
    StepInput,
    picard_operator,
    reconstruct,
    shrink_row,
    step,
)
from hpgalerkin.poly import Interval, LocalPoly, _norms, _time_map, basis
from hpgalerkin.problems import (
    NumericOverflow,
    Problem,
    lip_at,
    make_exponential,
    make_linear,
    make_power_square,
)

from _oracles import (
    antiderivative,
    brute_force_residual,
    constant,
    dense_residual_sup,
    l2_project,
    reference_reconstruction_error,
    reference_residual,
    reference_scan_and_bisect,
    residual_f_vals,
    step_f_vals,
    zero_rhs,
)


class TestResidualEstimator:
    def test_zero_rhs(self):
        p = Problem(dim=1, u0=np.ones(1), f=lambda t, u: np.zeros_like(u), lip=lambda t, a, b: 0.0)
        u_hat = constant(Interval(0.0, 1.0), np.array([1.0]), degree=2)
        assert residual_estimator(p, u_hat, np.array([1.0]), residual_f_vals(p, u_hat)) == 0.0

    def test_constant_rhs_exact_reconstruction(self):
        p = Problem(dim=1, u0=np.zeros(1), f=lambda t, u: np.array([1.0]), lip=lambda t, a, b: 0.0)
        ramp = antiderivative(constant(Interval(0.0, 0.5), np.array([1.0])), np.array([2.0]))
        assert residual_estimator(p, ramp, np.array([2.0]), residual_f_vals(p, ramp)) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_left_value_taken_as_given(self, dim):
        # a float array is lifted as it is; a list, a scalar or integers
        # give the same bits, and u_left is not written
        p = make_linear(-1.5, [1.0] * dim)
        u_hat = LocalPoly(Interval(0.25, 0.5), np.arange(3.0 * dim).reshape(3, dim) / 7.0 + 1.0)
        f_res = residual_f_vals(p, u_hat)
        u_left = np.full(dim, 2.0)
        u_left.flags.writeable = False
        want = residual_estimator(p, u_hat, u_left, f_res)
        for given in ([2.0] * dim, 2.0, np.full(dim, 2), np.float64(2.0)):
            assert np.float64(residual_estimator(p, u_hat, given, f_res)).tobytes() == (
                np.float64(want).tobytes()
            )

    def test_overflowing_subtraction_raises(self):
        # the lift of f = 0 is u_left = -1.5e308, finite, and subtracting
        # uhat's 1.5e308 leaves double range: NumericOverflow, which
        # adapt reads as "halve the step", without a warning
        p = Problem(dim=1, u0=np.zeros(1), f=lambda t, u: np.zeros_like(u), lip=lambda t, a, b: 0.0)
        u_hat = LocalPoly(Interval(0.0, 0.1), [[1.5e308], [0.0]])
        f_res = residual_f_vals(p, u_hat)
        with pytest.raises(NumericOverflow, match="residual"):
            residual_estimator(p, u_hat, [-1.5e308], f_res)
        # from its own left value the constant has residual 0
        assert residual_estimator(p, u_hat, [1.5e308], f_res) == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_lift_raises(self, bad):
        # one non-finite f value leaves every lift coefficient non-finite,
        # and subtracting the finite uhat keeps them so: the one finite
        # test, after the subtraction, raises
        p = make_power_square(1.0)
        inp = StepInput(Interval(0.0, 0.1), 1, np.array([1.0]), Scheme.CG)
        u_hat = reconstruct(p, inp, step_f_vals(p, inp, step(p, inp).u))

        def f_batch(ts, us):
            vals = p.f_batch(ts, us)
            vals[len(ts) // 2, 0] = bad
            return vals

        poisoned = dataclasses.replace(p, f_batch=f_batch)
        f_res = residual_f_vals(poisoned, u_hat)
        with pytest.raises(NumericOverflow, match="residual"):
            residual_estimator(poisoned, u_hat, np.array([1.0]), f_res)

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG], ids=lambda v: v.value)
    def test_at_the_degree_cap(self, scheme):
        # a step at MAX_DEGREE has a reconstruction of degree 59, whose
        # residual's rule has 63 points, interpolating at degree 62, with
        # the two tail rows under its lift, and whose growth rule is
        # capped at 64 points; every start of the drivers but the raises
        # reads 63 node values, the shrink's row built per shrink as well,
        # the raise's 62 on the rule of a degree 58 reconstruction, and a
        # raise by m's r - m + 5 on the rule of a degree r - m + 1 one
        r = MAX_DEGREE
        b = basis(r + 1)
        assert (b.res_offsets.size, b.res_V.shape, b.res_proj.shape, b.res_lift.shape) == (
            63, (63, r + 2), (63, 63), (66, 63)
        )
        assert (b.grow_offsets.size, b.grow_V.shape, b.grow_w.shape) == (64, (64, r + 2), (64,))
        op, s = picard_operator(r, scheme), basis(r).step_offsets.size
        starts = [Start.NEXT, Start.NEXT_HALF, Start.RAISE]
        want = dict.fromkeys(starts, (r + 1, 63)) | {Start.RAISE: (r + 1, 62)}
        want |= {(Start.RAISE, m): (r + 1, r - m + 5) for m in range(2, r)}
        assert {start: H.shape for start, H in op.H.items()} == want
        assert all(shrink_row(op, r, theta).shape == (r + 1, 63) for theta in (0.125, 0.9))
        assert {start: R.shape for start, R in op.R.items()} == dict.fromkeys(starts[:2], (s, 63))
        p = make_power_square(1.0)
        inp = StepInput(Interval(0.0, 0.1), r, np.array([1.0]), scheme)
        out = step(p, inp)
        assert out.converged
        u_hat = reconstruct(p, inp, out.f_vals)
        eta = residual_estimator(p, u_hat, inp.u_left, residual_f_vals(p, u_hat))
        assert math.isfinite(eta)
        scale = max(1.0, float(np.max(np.abs(u_hat.coeffs))))
        assert abs(eta - reference_residual(p, u_hat, inp.u_left)) <= 1e-13 * scale

    def test_against_brute_force_single_step(self):
        p = make_power_square(1.0)
        inp = StepInput(Interval(0.0, 0.1), 1, np.array([1.0]), Scheme.CG)
        out = step(p, inp)
        u_hat = reconstruct(p, inp, step_f_vals(p, inp, out.u))
        eta = residual_estimator(p, u_hat, inp.u_left, residual_f_vals(p, u_hat))
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
            eta = residual_estimator(p, u_hat, u_hat(iv.t_start), residual_f_vals(p, u_hat))
            oracle = brute_force_residual(p, u_hat, n_samples=2_000)
            assert eta == pytest.approx(oracle, rel=0.01)


class TestResidualAgainstDenseIntegral:
    """On every accepted interval of the benchmark's hp runs of power2
    and exp at r = 1 and tol_star = 1e-10 (k_init 0.15 and 0.09,
    divergence cap 1e12), the residual sup of a dense integral
    (``_oracles.dense_residual_sup``: 8 Gauss points on each of 1000
    panels, sampled at the 1001 panel ends) is at most 1.001 eta_res."""

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG], ids=lambda v: v.value)
    @pytest.mark.parametrize(
        "make,k_init", [(make_power_square, 0.15), (make_exponential, 0.09)], ids=["power2", "exp"]
    )
    def test_no_under_report(self, make, k_init, scheme):
        p = make(1.0)
        cfg = AdaptConfig(
            scheme=scheme, mode=Mode.HP, r_init=1, k_init=k_init, tol_star=1e-10,
            picard=PicardConfig(divergence_cap=1e12),
        )
        res = hp_adapt(p, cfg)
        assert res.termination is Termination.DELTA_NOT_FOUND and res.M > 20
        under = [
            (i, dense / rec.estimate.eta_res)
            for i, rec in enumerate(res.intervals)
            if (dense := dense_residual_sup(p, rec.reconstruction)) > 1.001 * rec.estimate.eta_res
        ]
        assert under == []


class TestPsiUpdate:
    def test_first_interval(self):
        assert psi_update(None, 1e-3) == 1e-3

    def test_recursion(self):
        prev = StepEstimate(eta_res=1e-3, psi=1e-3, delta=2.0, bound=2e-3, delta_hat=2.0)
        assert psi_update(prev, 5e-4) == pytest.approx(2.5e-3)

    def test_all_zero(self):
        assert psi_update(None, 0.0) == 0.0


def flat_reconstruction(value, iv=Interval(0.0, 0.1), degree=2):
    return constant(iv, np.array([value]), degree=degree)


def phi(p, iv, u_hat, psi, delta):
    """phi(delta) as solve_delta evaluates it, on the default rule and
    under its errstate."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _growth_factory(p, iv, u_hat, psi)(delta) - delta


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

    def test_overflow_is_plus_inf(self):
        p = make_exponential(1.0)
        iv = Interval(0.0, 0.1)
        assert phi(p, iv, flat_reconstruction(1.0, iv), psi=800.0, delta=2.0) == math.inf

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "scalar"])
    def test_non_finite_envelope_is_plus_inf(self, bad, batch):
        # one non-finite envelope value, at the last node of the rule,
        # leaves the exponent non-finite since every weight is positive
        def lip(t, a, b):
            return bad if t > 0.09 else a + b

        p = Problem(dim=1, u0=[1.0], f=lambda t, u: u * u, lip=lip)
        if batch:
            p = dataclasses.replace(p, lip_batch=np.vectorize(lip, otypes=[float]))
        iv = Interval(0.0, 0.1)
        u_hat = flat_reconstruction(1.0, iv)
        assert phi(p, iv, u_hat, psi=1e-3, delta=2.0) == math.inf
        out = solve_delta(p, iv, u_hat, psi=1e-3)
        assert isinstance(out, DeltaNotFound) and out.min_phi == math.inf

    @pytest.mark.parametrize("exp", [600, -600])
    def test_node_norms_scale_free_past_squared_range(self, exp):
        # the envelope receives |uhat| at the rule's nodes; at 2^600 their
        # squares overflow and at 2^-600 they underflow, and a power of
        # two scales each norm exactly
        seen = []

        def lip_batch(ts, a, b):
            seen.append(np.array(b))
            return np.zeros_like(b)

        base = make_linear(-1.5, [1.0, 2.0])
        p = dataclasses.replace(base, lip_batch=lip_batch)
        u_hat = l2_project(base.exact, Interval(0.0, 0.3), 3)
        scaled = LocalPoly(u_hat.interval, np.ldexp(u_hat.coeffs, exp))
        for u in (u_hat, scaled):
            assert phi(p, u.interval, u, psi=0.0, delta=2.0) == -1.0
        assert np.all(seen[1] > 0.0) and np.all(np.isfinite(seen[1]))
        assert seen[1].tobytes() == np.ldexp(seen[0], exp).tobytes()

    @pytest.mark.parametrize("deg", [0, 1, 2, 3, 5, 8])
    @pytest.mark.parametrize("t_start,k", [(0.0, 2.0), (0.5, 0.5), (-1.0, 0.25)])
    def test_growth_integral_on_its_own_rule(self, deg, t_start, k):
        # lip is read at the nodes of the growth rule of basis(deg), g =
        # deg + 7 points, not at the residual's deg + 4, and integrated
        # exactly for lip of degree 2g - 1 in t: 1 + x^(2g-1) + x^(2g-2),
        # x the reference coordinate, integrates to (k/2) (2 + 2 / (2g - 1))
        iv, seen = Interval(t_start, t_start + k), []
        offsets = basis(deg).grow_offsets
        g = offsets.size
        assert g == deg + 7 and basis(deg).res_offsets.size == deg + 4

        def lip_batch(ts, a, b):
            seen.append(ts)
            x = (ts - iv.t_start) * (2.0 / iv.k) - 1.0
            return 1.0 + x ** (2 * g - 1) + x ** (2 * g - 2)

        p = Problem(dim=1, u0=[1.0], f=lambda t, u: u, lip=lambda t, a, b: 0.0, lip_batch=lip_batch)
        u_hat = flat_reconstruction(0.5, iv, degree=deg)
        with np.errstate(over="ignore", invalid="ignore"):
            e_one = _growth_factory(p, iv, u_hat, 1.0)(1.0)
        assert len(seen) == 1
        assert seen[0].tobytes() == _time_map(iv.t_start, iv.k, offsets).tobytes()
        exact = 0.5 * iv.k * (2.0 + 2.0 / (2 * g - 1))
        assert math.log(e_one) == pytest.approx(exact, rel=8 * sys.float_info.epsilon, abs=0.0)

    @pytest.mark.parametrize("deg", [0, 1, 2, 3, 5, 8, 21, 59])
    def test_growth_bits_of_the_shared_deg_plus_7_rule(self, deg, rng):
        # the growth on its own rule is the one the integral took when it
        # shared the residual's deg + 7-point rule, bit for bit: the
        # times, the node values np.dot(V, c), their norms and the weights
        # k w / 2 of that rule, rebuilt here from numpy's legendre module
        nodes, weights = legendre.leggauss(min(deg + 7, 64))
        V = legendre.legvander(nodes, deg)
        for p in GROWTH_PROBLEMS:
            for _ in range(3):
                t_start = float(rng.uniform(-1.0, 1.0))
                iv = Interval(t_start, t_start + float(10.0 ** rng.uniform(-6.0, 0.0)))
                u_hat = LocalPoly(iv, rng.uniform(-2.0, 2.0, (deg + 1, p.dim)))
                psi = float(rng.uniform(0.0, 0.5))
                ts = _time_map(iv.t_start, iv.k, nodes + 1.0)
                u_norms = _norms(np.dot(V, u_hat.coeffs), 1)
                w = iv.k * (0.5 * weights)
                with np.errstate(over="ignore", invalid="ignore"):
                    growth = _growth_factory(p, iv, u_hat, psi)
                    for delta in (1.0, 1.5, 3.0, 7.0):
                        env = lip_at(p, ts, delta * psi + u_norms, u_norms)
                        want = math.exp(float(np.dot(w, env)))
                        assert repr(growth(delta)) == repr(want)

    def test_python_float_overflow_is_plus_inf(self):
        # a scalar lip gets Python floats, whose ** raises OverflowError
        p = Problem(dim=1, u0=[1.0], f=lambda t, u: u, lip=lambda t, a, b: a**2 + b**2)
        iv = Interval(0.0, 0.1)
        assert phi(p, iv, flat_reconstruction(1.0, iv), psi=1e200, delta=2.0) == math.inf


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
        # throughout the range
        p, evals = counted_lip(make_power_square(1.0))
        iv = Interval(0.0, 0.5)
        out = solve_delta(p, iv, flat_reconstruction(10.0, iv), psi=1.0)
        assert isinstance(out, DeltaNotFound)
        assert out.min_phi > 0.0
        # the floor E(lo) passes DELTA_MAX after a few evaluations
        assert len(evals) <= 3

    @pytest.mark.parametrize(
        "growth",
        [lambda d: d * (1.0 + 1e-3), lambda d: d + 1.0 / d],
        ids=["slow-floor", "falling-phi"],
    )
    def test_not_found_within_stated_bound(self, growth):
        # phi = E(d) - d stays just above 0 on all of [1, DELTA_MAX]:
        # E(lo) lifts the floor by less than one scan step, so the loop
        # scans the whole range (falling-phi: with a probe before each
        # scan step)
        k = 0.5
        p, evals = counted_lip(
            Problem(dim=1, u0=[1.0], f=lambda t, u: u, lip=lambda t, a, b: math.log(growth(a)) / k)
        )
        iv = Interval(0.0, k)
        out = solve_delta(p, iv, flat_reconstruction(0.0, iv), psi=1.0, prev_delta=2.0)
        assert isinstance(out, DeltaNotFound) and out.min_phi > 0.0
        # the worst case the solve_delta docstring states
        assert 190 <= len(evals) <= 545
        assert phi(p, iv, flat_reconstruction(0.0, iv), 1.0, out.argmin) == out.min_phi

    def test_far_warm_start_finds_the_cold_root(self):
        # prev_delta = 40 lies past the root pair of phi (phi(20) < 0 <
        # phi(40)); the first sign change above 1 is still the one returned
        p = make_exponential(1.0)
        iv = Interval(0.0, 0.0407)
        u_hat = constant(iv, [0.7643], degree=2)
        assert phi(p, iv, u_hat, 0.192, 20.0) < 0.0 < phi(p, iv, u_hat, 0.192, 40.0)
        cold = solve_delta(p, iv, u_hat, psi=0.192)
        warm = solve_delta(p, iv, u_hat, psi=0.192, prev_delta=40.0)
        assert type(warm) is float
        assert warm == pytest.approx(cold, rel=1e-9)
        assert warm == pytest.approx(1.10264, rel=1e-5)
        assert phi(p, iv, u_hat, 0.192, warm) < 0.0

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

    def test_negative_envelope_is_inconsistent(self):
        # lip < 0 breaks the Problem contract: E(1) < 1, so phi(1) < 0
        p = Problem(dim=1, u0=np.ones(1), f=lambda t, u: -u, lip=lambda t, a, b: -1.0)
        iv = Interval(0.0, 0.1)
        with pytest.raises(ArithmeticError, match=r"phi\(1\) = .* < 0; estimator state is"):
            solve_delta(p, iv, flat_reconstruction(1.0, iv), psi=1e-3)

    def test_bracket_four_ulp_wide(self):
        # a constant envelope makes phi(d) = E - d a line of slope -1
        # through E = 7e5, where one ulp of d is 1.2e-10 and no double
        # has |phi| <= PHI_TOL: the solve returns on its bracket of 4 ulp,
        # within its documented bound of 545 phi evaluations
        p = make_linear(math.log(7e5), [1.0])
        iv = Interval(0.0, 1.0)
        u_hat, calls = flat_reconstruction(1.0, iv), []

        def lip_batch(ts, a, b):
            calls.append(ts)
            assert len(calls) <= 545, "the delta solve passed its bound of phi evaluations"
            return p.lip_batch(ts, a, b)

        d = solve_delta(dataclasses.replace(p, lip_batch=lip_batch), iv, u_hat, psi=1.0)
        phi_d = _growth_factory(p, iv, u_hat, 1.0)(d) - d
        assert -4.0 * sys.float_info.epsilon * d <= phi_d < -PHI_TOL

    def test_random_lipschitz_closed_form(self, rng):
        for _ in range(50):
            L = rng.uniform(1e-6, 5.0)
            k = rng.uniform(1e-6, 1.0)
            p = make_linear(L, [1.0])
            iv = Interval(0.0, k)
            d = solve_delta(p, iv, flat_reconstruction(0.3, iv), psi=1e-3)
            assert d == pytest.approx(math.exp(L * k), abs=1e-8)


def counted_lip(p):
    """p with a lip_batch that records its calls: one call per phi
    evaluation."""
    evals = []
    batch = p.lip_batch or np.vectorize(p.lip, otypes=[float])

    def lip_batch(ts, a, b):
        evals.append(ts)
        return batch(ts, a, b)

    return dataclasses.replace(p, lip_batch=lip_batch), evals


def steep_problem():
    """lip = exp(exp(max(a, b))): monotone, and past double range above
    a = 6.56, through the scalar per-point path of lip_at."""
    return Problem(
        dim=1,
        u0=np.ones(1),
        f=lambda t, u: u,
        lip=lambda t, a, b: np.exp(np.exp(max(a, b))),
    )


def assert_matches_reference(p, iv, u_hat, psi, prev_delta=None):
    """solve_delta returns a float with phi < 0 where the reference scan
    of every grid point finds a crossing, within rel 1e-9 of its root,
    and DeltaNotFound where it finds none; returns which."""
    got = solve_delta(p, iv, u_hat, psi, prev_delta=prev_delta)
    if type(got) is float:
        assert phi(p, iv, u_hat, psi, got) < 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        growth = _growth_factory(p, iv, u_hat, psi)
        ref = reference_scan_and_bisect(lambda d: growth(d) - d)
    if isinstance(ref, float):
        assert type(got) is float and got == pytest.approx(ref, rel=1e-9)
        return "found"
    assert isinstance(got, DeltaNotFound)
    # the minimum over the points the loop evaluated, every one positive
    assert got.min_phi > 0.0 and phi(p, iv, u_hat, psi, got.argmin) == got.min_phi
    return "not found"


SCAN_PROBLEMS = [
    make_power_square(1.0),
    make_exponential(1.0),
    make_linear(3.0, [1.0]),
    steep_problem(),
]


class TestScanAgainstReference:
    """``solve_delta``, cold and warm, against the scan of every grid point."""

    @pytest.mark.parametrize("p", SCAN_PROBLEMS, ids=["power2", "exp", "linear", "steep"])
    def test_grid_of_states(self, p):
        outcomes = set()
        for k in (1e-3, 0.05, 0.4):
            for u in (0.0, 0.5, 3.0, 20.0):
                for psi in (1e-9, 1e-3, 0.3, 5.0):
                    iv = Interval(0.0, k)
                    u_hat = flat_reconstruction(u, iv)
                    for prev_delta in (None, 1.0, 1.3, 40.0, 100.0):
                        outcomes.add(assert_matches_reference(p, iv, u_hat, psi, prev_delta))
        # a constant envelope always has its root e^(Lk) inside the range
        assert outcomes == ({"found"} if p.name == "linear" else {"found", "not found"})

    @settings(max_examples=150, deadline=None)
    @given(
        which=st.sampled_from(range(len(SCAN_PROBLEMS))),
        k=st.floats(1e-4, 1.0),
        u=st.floats(0.0, 50.0),
        psi=st.floats(1e-10, 10.0),
        degree=st.integers(0, 4),
        prev_delta=st.one_of(st.none(), st.floats(1.0, 100.0)),
    )
    def test_drawn_states(self, which, k, u, psi, degree, prev_delta):
        iv = Interval(0.0, k)
        coeffs = np.zeros((degree + 1, 1))
        coeffs[0, 0] = u
        coeffs[degree, 0] += 0.1 * u  # a non-constant |uhat| when degree > 0
        assert_matches_reference(SCAN_PROBLEMS[which], iv, LocalPoly(iv, coeffs), psi, prev_delta)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "solve_delta's scan steps past a root that the reference grid scan finds"
    ))
    def test_drawn_state_with_a_root_between_scan_steps(self):
        # A falsifying example of test_drawn_states: exp, k = 1e-4, u = 0,
        # psi = 6.890625, degree 0, no previous delta.  phi < 0 only on
        # [1.11342, 1.16207], a width ratio of 1.0437 below SCAN_RATIO
        # 1.0719, around the grid point 1e6^(2/199) = 1.14895.  The solve
        # evaluates 1.0, 1.0504, 1.0884 and 1.1667, one step past it, and
        # returns DeltaNotFound(min_phi=1.04e-3); the grid scan finds the root.
        iv = Interval(0.0, 1e-4)
        u_hat = LocalPoly(iv, np.zeros((1, 1)))
        assert_matches_reference(SCAN_PROBLEMS[1], iv, u_hat, 6.890625, None)


def custom_scalar_problem():
    """The README's custom problem in R^2, f(u) = |u| u, with scalar f
    and lip only: lip_at's per-point path."""
    return Problem(
        dim=2,
        u0=[0.6, 0.8],
        f=lambda t, u: np.linalg.norm(u) * u,
        lip=lambda t, a, b: 2.0 * max(a, b),
    )


GROWTH_PROBLEMS = [
    make_power_square(1.0),
    make_exponential(1.0),
    make_linear(-1.5, [1.0, 2.0]),
    custom_scalar_problem(),
]


class TestEffectivity:
    """run_errors reports bound / (running max of the true sup error)."""

    CFG = dict(scheme=Scheme.CG, mode=Mode.H, r_init=2, k_init=0.15, tol_star=1e-5)

    def test_ratio(self):
        p = make_power_square(1.0)
        res = h_adapt(p, AdaptConfig(**self.CFG))
        assert res.M > 5
        worst, below_max = 0.0, 0
        for rec, err, eff in zip(res.intervals, *run_errors(p, res)):
            assert err == reconstruction_error(p, rec.reconstruction)
            below_max += err < worst
            worst = max(worst, err)
            assert eff == rec.estimate.bound / worst
        # the running max, not the interval's own error, is the denominator
        assert below_max > 0

    def test_exact_match_gives_inf(self):
        p = zero_rhs()
        res = h_adapt(p, AdaptConfig(**dict(self.CFG, max_intervals=3)))
        assert res.M == 3
        assert run_errors(p, res) == ((0.0,) * 3, (math.inf,) * 3)

    def test_requires_exact(self):
        p = Problem(dim=1, u0=np.ones(1), f=lambda t, u: u * u, lip=lambda t, a, b: a + b)
        res = h_adapt(p, AdaptConfig(**self.CFG))
        assert res.M > 5
        assert run_errors(p, res) == ((None,) * res.M, (None,) * res.M)
        with pytest.raises(ValueError):
            reconstruction_error(p, flat_reconstruction(1.0))

    def test_errors_past_the_largest_double(self):
        # u = 1e306 e^t marched until its end values overflow: on the
        # last five intervals uhat or exact leaves double range at a
        # sample, and the error is inf, without a warning
        p = make_linear(1.0, [1e306])
        cfg = AdaptConfig(scheme=Scheme.CG, mode=Mode.H, r_init=4, k_init=0.1, tol_star=1e296)
        res = h_adapt(p, cfg)
        assert res.termination is Termination.K_MIN_REACHED
        errors, effectivities = run_errors(p, res)
        assert sum(err == math.inf for err in errors) == 5
        assert all(err == math.inf or math.isfinite(err) for err in errors)
        # from the first inf error on, bound / inf would read 0: None
        first = errors.index(math.inf)
        assert 0 < first < res.M - 1
        assert all(eff is None for eff in effectivities[first:])
        assert all(eff is not None and eff > 0.0 for eff in effectivities[:first])


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

    def test_finite_past_squared_overflow(self):
        # uhat and exact near 2^700: the squared differences leave double
        # range, the norm does not, and the power-of-two scaling rounds
        # nothing
        base = make_linear(-1.5, [1.0, 2.0])
        u_hat = l2_project(base.exact, Interval(0.0, 0.3), 3)
        big = 2.0**700
        p = dataclasses.replace(base, exact=lambda t: big * base.exact(t))
        got = reconstruction_error(p, LocalPoly(u_hat.interval, big * u_hat.coeffs))
        assert math.isfinite(got) and got == big * reconstruction_error(base, u_hat)

    def test_inf_past_the_largest_double(self):
        # every value is a double, but the norm sqrt(2) * 1.5e308 is not:
        # both sampled norms return inf rather than raise
        base = make_linear(1.0, [1.0, 2.0])
        p = dataclasses.replace(base, exact=lambda t: np.full((2, np.size(t)), 1.5e308))
        iv = Interval(0.0, 0.1)
        assert reconstruction_error(p, LocalPoly(iv, np.zeros((2, 2)))) == math.inf
        assert LocalPoly(iv, np.array([[1.5e308, 1.5e308], [0.0, 0.0]])).linf_norm() == math.inf

    def test_overflowing_difference_is_inf(self):
        # exact 1.5e308 against uhat = -1e308 in both components: the
        # difference leaves double range, under the errstate, so no
        # warning escapes (RuntimeWarnings are errors in this suite)
        base = make_linear(1.0, [1.0, 2.0])
        p = dataclasses.replace(base, exact=lambda t: np.full((2, np.size(t)), 1.5e308))
        u_hat = LocalPoly(Interval(0.0, 0.1), np.full((1, 2), -1e308))
        assert reconstruction_error(p, u_hat) == math.inf

    def test_transposed_exact_rejected(self):
        base = make_linear(1.0, [1.0, 2.0])
        p = Problem(dim=2, u0=base.u0, f=base.f, lip=base.lip, exact=lambda t: base.exact(t).T)
        u_hat = constant(Interval(0.0, 0.1), np.array([1.0, 2.0]), degree=2)
        with pytest.raises(ValueError, match="expected"):
            reconstruction_error(p, u_hat)
