import dataclasses
import json
import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hpgalerkin.adapt import (
    THETA_STAR,
    AdaptConfig,
    IntervalRecord,
    Mode,
    RunResult,
    Termination,
    h_adapt,
    hp_adapt,
    run_errors,
    smoothness,
)
import hpgalerkin.adapt as adapt_module
from hpgalerkin.estimator import DeltaNotFound, StepEstimate, residual_estimator, solve_delta
from hpgalerkin.galerkin import (
    PicardConfig,
    Scheme,
    Start,
    StepInput,
    picard_operator,
    reconstruct,
    step,
)
import hpgalerkin.poly as poly_module
from hpgalerkin.poly import MAX_DEGREE, Interval, LocalPoly, basis
import hpgalerkin.problems as problems
from hpgalerkin.problems import (
    NumericOverflow,
    Problem,
    make_exponential,
    make_linear,
    make_power_square,
)

from _oracles import (
    constant,
    l2_project,
    looks_like_a_pole,
    next_interval_start,
    parent_smoothness,
    raise_by,
    raise_row,
    raise_start,
    reciprocal_fit,
    reference_smoothness,
    residual_f_vals,
    residual_nodes,
    start_guess,
    step_nodes,
    zero_rhs,
)


HALVINGS = ("halve_k_predicted", "halve_k_pole", "halve_k_existence", "halve_k_overflow", "halve_k")


def carries_k_and_r(records):
    """How many times the last accepted interval halved k, 0 or 1, on its
    way to the k and r that the next interval carries, the one before it
    having carried the same r at 2^m times that k (up to the rounding of
    t + k - t); None after a degree raise, after two or more halvings and
    before two intervals were accepted, where the prediction is silent."""
    if len(records) < 2:
        return None
    decisions = records[-1].decisions
    assert set(decisions) <= {"raise_r", *HALVINGS}
    if "raise_r" in decisions or len(decisions) > 1:
        return None
    m = len(decisions)
    assert records[-1].r == records[-2].r
    assert records[-1].interval.k == pytest.approx(records[-2].interval.k / 2**m, rel=1e-6)
    return m


def predictions(records):
    """The predictions of the next estimator from the accepted intervals
    records, in exact rational arithmetic, under eta = C k^(r+2): the
    geometric one, e1^2 / e0 scaled by 2^(m (r+2)) after m =
    ``carries_k_and_r`` halvings, and, where the last three intervals
    share k and r, the curvature one, e1^3 ea / e0^3.  None from e0 = 0:
    an empty list."""
    m = carries_k_and_r(records)
    assert m is not None
    etas = [Fraction(rec.estimate.eta_res) for rec in records[-3:]]
    e0, e1 = etas[-2:]
    if e0 == 0:
        return []
    got = [e1 * e1 / e0 * 2 ** (m * (records[-1].r + 2))]
    if len(etas) == 3 and not records[-1].decisions and not records[-2].decisions:
        got.append(e1**3 * etas[0] / e0**3)
    return got


def prediction_exceeds(records, tol):
    """A prediction of ``predictions`` exceeds tol (m not None)."""
    return any(eta > Fraction(tol) for eta in predictions(records))


def last_step_raises(cfg, records):
    """An HP rejection after the last accepted step would raise r: the
    step is smooth and r is below r_max."""
    last = records[-1]
    return last.r < cfg.r_max and smoothness(last.output.u, last.r) >= THETA_STAR


def predicts_rejection(cfg, records, tol):
    """The drivers' prediction rule, written out: halve k before the
    first attempt of the interval after records, at running tolerance
    tol."""
    return (
        carries_k_and_r(records) is not None
        and prediction_exceeds(records, tol)
        and (cfg.mode is Mode.H or not last_step_raises(cfg, records))
    )


class TestSmoothness:
    def test_constant_saturates_embedding(self):
        # r=1 applies the indicator to u itself; a constant attains the bound
        u = constant(Interval(0.0, 0.5), np.array([-2.5]))
        theta = smoothness(u, 1)
        assert theta == pytest.approx(1.0, abs=1e-12)
        assert theta >= THETA_STAR
        # r=2 differentiates once: a linear u also saturates
        lin = l2_project(lambda t: np.array([2.0 + 3.0 * t]), Interval(0.0, 0.5), 1)
        assert smoothness(lin, 2) == pytest.approx(1.0, abs=1e-12)

    def test_zero_polynomial(self):
        u = constant(Interval(0.0, 1.0), np.array([0.0]), degree=2)
        assert smoothness(u, 2) == 1.0

    def test_ramp_analytic_value(self):
        # w(t) = t on (0,1): theta = 1 / (1/sqrt(3) + 1/sqrt(2))
        u = l2_project(lambda t: np.array([t]), Interval(0.0, 1.0), 1)
        theta = smoothness(u, 1)
        assert theta == pytest.approx(1.0 / (1.0 / math.sqrt(3) + 1.0 / math.sqrt(2)), abs=1e-3)
        assert not theta >= THETA_STAR  # 0.778 < 0.85

    @pytest.mark.parametrize("k", [1e-155, 1e-160, 1e-300, 1e-310, 5e-324])
    def test_tiny_interval_closed_form(self, k):
        # u = 1 + 0.5 P_1 at r = 1: w = u, ||w||_inf = 1.5, the L2 term
        # k^{-1/2} ||w||_2 = sqrt(1 + 0.25 / 3) and the H^1 term
        # k^{1/2} ||w'||_2 / sqrt(2) = sqrt(2) * 0.5, whatever k is; below
        # about k = 1e-154, (w_1 2/k)^2 overflows, and theta must not read
        # 0; below about 1e-307, k ||w||^2 is subnormal
        want = 1.5 / (math.sqrt(1.0 + 0.25 / 3.0) + math.sqrt(2.0) * 0.5)
        theta = smoothness(LocalPoly(Interval(0.0, k), [[1.0], [0.5]]), 1)
        assert _ulps(theta, want) <= 4
        assert theta >= THETA_STAR  # 0.858
        # a constant attains the bound: theta = 1, where 2/k overflows to
        # inf and 0 * inf is nan, and where k ||w||^2 underflows to 0
        assert _ulps(smoothness(LocalPoly(Interval(0.0, k), [[1.0], [0.0]]), 1), 1.0) <= 4

    def test_degree_zero_rejected(self):
        u = constant(Interval(0.0, 1.0), np.array([1.0]))
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
    """Closed-form norms of the affine w against r-1 oracle derivatives
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
            got = smoothness(u, r)
            theta, smooth = reference_smoothness(u, r)
            assert (got >= THETA_STAR) == smooth
            if d == 1 or kind != "nearly-constant":
                assert got == theta, kind
            else:
                # |w| is convex, so its sup is max(|w(-1)|, |w(1)|); an
                # interior sample can exceed that by rounding when w is
                # nearly constant and d > 1, by at most a few ulp
                assert got <= theta and _ulps(got, theta) <= 4, kind


SMOOTHNESS_KINDS = [
    "generic", "constant", "nearly-constant", "vanishing", "below-r", "empty", "overflow"
]


@st.composite
def smoothness_inputs(draw, dims):
    """(u, r, kind): a candidate of degree r on an interval of length
    1e-12..3, its coefficients scaled by 2^-700, 1 or 2^700, with a
    generic, constant, nearly constant or vanishing (r-1)-th derivative
    w; of degree r-1 (w of one row) or below (w empty); or with its top
    two rows near the largest double, so that the scalings of w
    overflow to inf (r >= 2)."""
    r, d = draw(st.integers(1, 8)), draw(st.sampled_from(dims))
    kind = draw(st.sampled_from(SMOOTHNESS_KINDS))
    assume(r >= 2 or kind not in ("empty", "overflow"))
    t0, k = draw(st.floats(-2.0, 2.0)), 10.0 ** draw(st.floats(-12.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.standard_normal((r + 1, d)) * 10.0 ** rng.uniform(-3.0, 8.0)
    c *= draw(st.sampled_from([2.0**-700, 1.0, 2.0**700]))
    if kind == "constant":
        c[-1] = 0.0
    elif kind == "nearly-constant":
        c[-1] *= 10.0 ** rng.uniform(-14.0, -4.0)
    elif kind == "vanishing":
        c[-2:] = 0.0
    elif kind == "below-r":
        c = c[:r]
    elif kind == "empty":
        c = c[: draw(st.integers(1, r - 1))]
    elif kind == "overflow":
        # row r is scaled by 2r - 1 >= 3 first: 1.5e308 leaves double range
        c[-2:] = 1.5e308 * rng.choice([-1.0, 1.0], size=(2, d))
    return LocalPoly(Interval(t0, t0 + k), c), r, kind


class TestSmoothnessBitIdentity:
    """``smoothness`` on Python floats against its array form
    (``_oracles.parent_smoothness``).  Each sum of either adds its terms
    left to right below 8 terms, so for d <= 3, where every sum has at
    most 6, the two return the same theta bit for bit.  From 8 terms
    on numpy sums pairwise: for d >= 4 the two agree on theta >=
    THETA_STAR, and theta agrees within the rounding of the two summation orders.
    Each of the three sums of n non-negative terms rounds by at most
    (n - 1) u in either order (u = eps / 2), the square roots halve
    that, and the divisions, roots and the final sum add a few u more:
    (3d + 8) ulp of theta.  Random draws reach 4 ulp at d = 4 and 8 and
    8 ulp at d = 32.  theta is a float, so "the same report" is the same
    theta: ``==`` on two floats."""

    @settings(max_examples=400, deadline=None)
    @given(case=smoothness_inputs((1, 2, 3)))
    def test_same_report_up_to_d_3(self, case):
        u, r, kind = case
        theta = smoothness(u, r)
        assert theta == parent_smoothness(u, r)
        if kind == "overflow":
            assert theta == 0.0
        elif kind in ("vanishing", "empty"):
            assert theta == 1.0

    @pytest.mark.parametrize(
        "iv,want",
        # 2/k = inf: 0 * inf is nan; 2/k = 0 needs an infinite k, which
        # Interval rejects
        [(Interval(0.0, 5e-324), 0.0)],
        ids=["k-subnormal"],
    )
    def test_nan_scaling_reads_as_overflow(self, iv, want):
        # w = [0, 0, nan, 0]: a max that skips the nan would find w
        # vanishing (theta 1); numpy's max propagates it (theta 0)
        u = LocalPoly(iv, [[1.0, 1.0], [0.0, 0.0], [1e308, 0.0]])
        assert smoothness(u, 2) == parent_smoothness(u, 2) == want

    @settings(max_examples=150, deadline=None)
    @given(case=smoothness_inputs((4, 8, 32)))
    def test_summation_order_bound_above_d_3(self, case):
        u, r, _ = case
        theta, parent = smoothness(u, r), parent_smoothness(u, r)
        assert (theta >= THETA_STAR) == (parent >= THETA_STAR)
        assert _ulps(theta, parent) <= 3 * u.coeffs.shape[1] + 8


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

    @pytest.mark.parametrize(
        "value",
        [math.inf, math.nan, 0.0, -1.0, 10**400, -(10**400)],
        ids=["inf", "nan", "0.0", "-1.0", "10**400", "-10**400"],
    )
    @pytest.mark.parametrize("key", ["k_init", "tol_star", "k_min"])
    def test_lengths_and_tolerance_positive_and_finite(self, key, value):
        # an integer past double range reads as an infinity, as 1e400 does
        base = dict(scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=0.1, tol_star=1e-3)
        with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
            AdaptConfig(**{**base, key: value})

    @pytest.mark.parametrize("value", [True, False, np.True_, "0.1", None])
    @pytest.mark.parametrize("key", ["k_init", "tol_star", "k_min"])
    def test_lengths_and_tolerance_must_be_numbers(self, key, value):
        # a bool would build as 1 or 0, a string would meet `<` as a TypeError
        base = dict(scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=0.1, tol_star=1e-3)
        with pytest.raises(ValueError, match=f"{key} must be a real number, got {value!r}"):
            AdaptConfig(**{**base, key: value})

    def test_numpy_float_lengths_accepted(self):
        cfg = AdaptConfig(
            scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=np.float64(0.1),
            tol_star=np.float64(1e-3), k_min=np.float64(1e-14), max_intervals=2,
        )
        assert h_adapt(make_power_square(1.0), cfg).M == 2

    @pytest.mark.parametrize("mode", [Mode.H, Mode.HP])
    @pytest.mark.parametrize(
        "key,value",
        [
            ("r_init", 1.5), ("r_init", 2.0), ("r_max", 3.5), ("max_intervals", 2.5),
            ("r_init", "2"), ("r_init", True), ("max_intervals", True),
        ],
    )
    def test_counts_must_be_integers(self, mode, key, value):
        base = dict(scheme=Scheme.DG, mode=mode, r_init=1, k_init=0.1, tol_star=1e-3)
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
            AdaptConfig(**{**base, key: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = AdaptConfig(
            scheme=Scheme.DG, mode=Mode.HP, r_init=np.int64(1), k_init=0.1, tol_star=1e-3,
            r_max=np.int64(4), max_intervals=np.int64(2),
        )
        assert hp_adapt(make_power_square(1.0), cfg).M == 2

    def test_mode_mismatch_rejected(self):
        cfg = AdaptConfig(scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=0.1, tol_star=1e-3)
        with pytest.raises(ValueError):
            hp_adapt(make_power_square(1.0), cfg)

    def test_h_adapt_rejects_an_hp_config(self):
        cfg = AdaptConfig(scheme=Scheme.CG, mode=Mode.HP, r_init=1, k_init=0.1, tol_star=1e-3)
        with pytest.raises(ValueError, match="h_adapt requires mode == Mode.H"):
            h_adapt(make_power_square(1.0), cfg)

    def test_hp_r_max_below_r_init_rejected(self):
        base = dict(scheme=Scheme.CG, k_init=0.1, tol_star=1e-3)
        AdaptConfig(mode=Mode.HP, r_init=3, r_max=3, **base)
        AdaptConfig(mode=Mode.H, r_init=3, r_max=2, **base)  # r_max unused in H mode
        with pytest.raises(ValueError, match="r_max must be >= r_init"):
            AdaptConfig(mode=Mode.HP, r_init=3, r_max=2, **base)

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("mode", [Mode.H, Mode.HP])
    def test_max_intervals_positive(self, mode, count):
        base = dict(scheme=Scheme.CG, mode=mode, r_init=1, k_init=0.1, tol_star=1e-3)
        AdaptConfig(max_intervals=1, **base)
        with pytest.raises(ValueError, match="max_intervals must be >= 1"):
            AdaptConfig(max_intervals=count, **base)

    def test_numpy_integer_counts_stored_as_ints(self):
        # a numpy integer would reach RunResult.dofs and every
        # IntervalRecord.r, which json cannot write
        from hpgalerkin.cli import _report

        cfg = AdaptConfig(
            scheme=Scheme.CG, mode=Mode.HP, r_init=np.int64(1), k_init=0.1, tol_star=1e-3,
            r_max=np.int32(4), max_intervals=np.int64(3),
        )
        assert [type(cfg.r_init), type(cfg.r_max), type(cfg.max_intervals)] == [int] * 3
        res = hp_adapt(make_power_square(1.0), cfg)
        assert res.M == 3 and type(res.dofs) is int
        assert all(type(rec.r) is int and type(rec.dofs) is int for rec in res.intervals)
        config = {
            "problem": {"name": "power2", "u0": 1.0}, "scheme": "cg", "mode": "hp", "r": 1,
            "k_init": 0.1, "tol_star": 1e-3, "max_intervals": 3,
        }
        assert json.loads(json.dumps(_report(config, res)))["dofs"] == res.dofs

    def test_numpy_float_lengths_stored_as_floats(self):
        # a float32 k would keep every t + k of the march in float32, and
        # json cannot write the T it sums to
        from hpgalerkin.cli import _report

        cfg = AdaptConfig(
            scheme=Scheme.CG, mode=Mode.HP, r_init=1, k_init=np.float32(0.1),
            tol_star=np.float32(1e-3), k_min=np.float32(1e-14), max_intervals=3,
        )
        assert [type(cfg.k_init), type(cfg.tol_star), type(cfg.k_min)] == [float] * 3
        res = hp_adapt(make_power_square(1.0), cfg)
        assert res.M == 3 and type(res.T) is float
        config = {
            "problem": {"name": "power2", "u0": 1.0}, "scheme": "cg", "mode": "hp", "r": 1,
            "k_init": 0.1, "tol_star": 1e-3, "max_intervals": 3,
        }
        assert json.loads(json.dumps(_report(config, res)))["T"] == res.T


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

        def first_overflows(p, u_hat, u_left, f_vals):
            calls[0] += 1
            if calls[0] == 1:
                zero, u_hat = zero_rhs(), LocalPoly(u_hat.interval, [[1.5e308], [0.0]])
                return residual(zero, u_hat, [-1.5e308], residual_f_vals(zero, u_hat))
            return residual(p, u_hat, u_left, f_vals)

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
                assert d in (
                    "halve_k",
                    "halve_k_existence",
                    "halve_k_overflow",
                    "halve_k_pole",
                    "halve_k_predicted",
                    "raise_r",
                )

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
        cfg = AdaptConfig(scheme=Scheme.CG, mode=Mode.HP, r_init=3, k_init=0.1, tol_star=1e-6)
        res = hp_adapt(make_linear(1.0, [1e306]), cfg)
        assert res.termination is Termination.K_MIN_REACHED and res.M == 0
        u = LocalPoly(Interval(0.0, 1e-3), [[1e306], [1e306], [1e306], [1e306]])
        assert smoothness(u, 3) == 0.0

    def test_hp_beats_h_at_equal_tolerance(self):
        p = make_power_square(1.0)
        base = dict(r_init=1, k_init=0.15, tol_star=1e-6)
        res_h = h_adapt(p, AdaptConfig(scheme=Scheme.CG, mode=Mode.H, **base))
        res_hp = hp_adapt(p, AdaptConfig(scheme=Scheme.CG, mode=Mode.HP, **base))
        assert abs(res_hp.T - 1.0) <= abs(res_h.T - 1.0)
        assert res_hp.dofs < res_h.dofs


def counted_smoothness(monkeypatch):
    """Wrap ``adapt.smoothness`` as the benchmark's tracer does; returns
    the list that records the degree of every call."""
    calls, score = [], adapt_module.smoothness

    def counted(u, r):
        calls.append(r)
        return score(u, r)

    monkeypatch.setattr(adapt_module, "smoothness", counted)
    return calls


def march(res):
    return res.T, res.termination, [
        (rec.interval, rec.r, rec.attempts, rec.decisions) for rec in res.intervals
    ]


class TestIndicatorAtTheDegreeCap:
    """At r = r_max an HP rejection halves k whatever the candidate's
    smoothness, so the driver does not compute it: an HP run started at
    its cap never calls the indicator and marches as the H run of the
    same degree."""

    @pytest.mark.parametrize(
        "p,scheme,r",
        [
            (make_power_square(1.0), Scheme.CG, 1),
            (make_power_square(1.0), Scheme.DG, 2),
            (make_exponential(1.0), Scheme.CG, 3),
        ],
        ids=["power2-cg-1", "power2-dg-2", "exp-cg-3"],
    )
    def test_no_call_and_the_h_march(self, p, scheme, r, monkeypatch):
        calls = counted_smoothness(monkeypatch)
        base = dict(scheme=scheme, r_init=r, k_init=0.15, tol_star=1e-6)
        res = hp_adapt(p, AdaptConfig(mode=Mode.HP, r_max=r, **base))
        assert calls == []
        # accuracy rejections and predicted halvings, which read the
        # indicator below the cap, both occur
        decisions = [d for rec in res.intervals for d in rec.decisions]
        assert "halve_k" in decisions and "halve_k_predicted" in decisions
        assert march(res) == march(h_adapt(p, AdaptConfig(mode=Mode.H, **base)))
        # below the cap the same wrapper sees the indicator
        hp_adapt(p, AdaptConfig(mode=Mode.HP, r_max=r + 1, **base))
        assert calls


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


class TestScaleInvariance:
    """power2 from u0 = 2^24, with k_init scaled as t and tol_star as u,
    is the march from u0 = 1 in the units t u0 and u / u0: with no
    divergence cap no rule of the march reads a unit of u, so every step
    length, decision and delta is the same bit for bit."""

    @staticmethod
    def run(scheme, mode, r, u0):
        cfg = AdaptConfig(scheme=scheme, mode=mode, r_init=r, k_init=0.15 / u0, tol_star=1e-7 * u0)
        return (hp_adapt if mode is Mode.HP else h_adapt)(make_power_square(u0), cfg)

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG], ids=lambda v: v.value)
    @pytest.mark.parametrize("mode,r", [(Mode.HP, 1), (Mode.H, 2)], ids=["hp-r1", "h-r2"])
    def test_power2_at_two_to_the_24(self, scheme, mode, r):
        unit, scaled = self.run(scheme, mode, r, 1.0), self.run(scheme, mode, r, 2.0**24)
        assert unit.termination is Termination.DELTA_NOT_FOUND
        assert (scaled.termination, scaled.M, scaled.dofs, scaled.T * 2.0**24) == (
            unit.termination, unit.M, unit.dofs, unit.T
        )
        for a, b in zip(unit.intervals, scaled.intervals):
            assert (a.decisions, a.estimate.delta) == (b.decisions, b.estimate.delta)


def cross_square(u0, exact=None):
    """u' = v^2, v' = u^2: |f(v) - f(w)| <= (|v| + |w|) |v - w|, as
    v_i^2 - w_i^2 = (v_i - w_i)(v_i + w_i)."""
    return Problem(
        dim=2, u0=u0, f=lambda t, u: u[::-1] ** 2, lip=lambda t, a, b: a + b, exact=exact,
        f_batch=lambda ts, us: us[:, ::-1] ** 2, lip_batch=lambda ts, a, b: a + b,
    )


class TestCoupledSystem:
    """A certificate on a coupled Jacobian: the envelope's a + b bounds
    the cross terms, not a scalar derivative."""

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG], ids=lambda v: v.value)
    def test_diagonal_start_certified(self, scheme):
        # from (1, 1) both components are 1 / (1 - t)
        def exact(t):
            return np.stack([1.0 / (1.0 - np.asarray(t, dtype=float))] * 2)

        p = cross_square([1.0, 1.0], exact)
        cfg = AdaptConfig(scheme=scheme, mode=Mode.HP, r_init=1, k_init=0.1, tol_star=1e-7)
        res = hp_adapt(p, cfg)
        assert res.termination is Termination.DELTA_NOT_FOUND and 0.0 < res.T < 1.0
        for rec, err in zip(res.intervals, run_errors(p, res)[0]):
            assert err <= rec.estimate.bound

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG], ids=lambda v: v.value)
    def test_off_diagonal_start_below_blowup(self, scheme):
        # u^3 - v^3 = 0.875 is invariant, so T_inf = int_1^inf (u^3 -
        # 0.875)^(-2/3) du = int_0^1 (1 - 0.875 s^3)^(-2/3) ds (u = 1 / s),
        # whose integrand is smooth on [0, 1]
        x, w = np.polynomial.legendre.leggauss(64)
        s = 0.5 * (x + 1.0)
        t_inf = 0.5 * float(np.dot(w, (1.0 - 0.875 * s**3) ** (-2.0 / 3.0)))
        assert t_inf == pytest.approx(1.3126966, abs=1e-7)
        cfg = AdaptConfig(scheme=scheme, mode=Mode.HP, r_init=1, k_init=0.1, tol_star=1e-7)
        res = hp_adapt(cross_square([1.0, 0.5]), cfg)
        assert res.termination is Termination.DELTA_NOT_FOUND and 1.0 < res.T < t_inf


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
    def test_march_stops_where_u_leaves_double_range(self, scheme, r, monkeypatch):
        # u = 1e306 e^t passes the largest double at T = ln(max / 1e306):
        # a candidate whose end value overflows halves the step, and the
        # march aborts there without a warning; the attempt after an
        # overflow starts from the constant (``Start.CONSTANT``)
        guesses = []

        def spy(p, inp, cfg, *, guess=None, atol=0.0):
            guesses.append((inp.interval.t_start, guess))
            return step(p, inp, cfg, guess=guess, atol=atol)

        monkeypatch.setattr(adapt_module, "step", spy)
        cfg = AdaptConfig(scheme=scheme, mode=Mode.H, r_init=r, k_init=0.1, tol_star=1e296)
        res = h_adapt(make_linear(1.0, [1e306]), cfg)
        assert res.termination is Termination.K_MIN_REACHED
        assert res.T == pytest.approx(math.log(sys.float_info.max / 1e306), rel=1e-9)
        after = 0
        for rec in res.intervals:
            # one step per attempt, each but the first after one decision
            # that is neither a predicted nor a pole halving
            mine = [guess for t, guess in guesses if t == rec.interval.t_start]
            made = [d for d in rec.decisions if d not in ("halve_k_predicted", "halve_k_pole")]
            assert len(mine) == rec.attempts == len(made) + 1
            for decision, guess in zip(made, mine[1:]):
                if decision == "halve_k_overflow":
                    assert guess is None
                    after += 1
        assert after > 0

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG])
    def test_end_value_alone_overflows(self, scheme):
        # u = u0 e^t from just below the largest double: on the first
        # attempt the candidate's coefficients, its residual and the
        # values at every node are finite, but their sum, the end value,
        # overflows; the step halves, and the half step ends in range
        k_init = 2.0**-20 + 20 * 2.0**-40
        cfg = AdaptConfig(
            scheme=scheme, mode=Mode.H, r_init=1, k_init=k_init, tol_star=1e300,
            max_intervals=1,
        )
        (rec,) = h_adapt(make_linear(1.0, [sys.float_info.max * (1 - 2.0**-20)]), cfg).intervals
        assert rec.decisions == ("halve_k_overflow",)
        assert rec.interval.k == k_init / 2
        with np.errstate(over="ignore"):
            assert np.isfinite(np.add.reduce(rec.reconstruction.coeffs, 0)).all()


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

    # an HP run raises r once, by as many degrees as the decay of its
    # coefficients predicts (``adapt._raise_by``): several tolerances
    # give jumps of several sizes, and r_max = 2 leaves room for one
    RUNS = [
        (make, k_init, scheme, mode, tol, r_max)
        for make, k_init in ((make_power_square, 0.15), (make_exponential, 0.09))
        for scheme in (Scheme.CG, Scheme.DG)
        for mode, tol, r_max in (
            (Mode.H, 1e-4, 30), (Mode.HP, 1e-6, 30), (Mode.HP, 1e-9, 30), (Mode.HP, 1e-6, 2)
        )
    ]

    def test_guesses_and_decisions(self, monkeypatch):
        calls = []

        def spy(p, inp, cfg, *, guess=None, atol=0.0):
            out = step(p, inp, cfg, guess=guess, atol=atol)
            cold = step(p, inp, cfg, atol=atol) if guess is not None else out
            calls.append((inp, guess, out, (cold.converged, cold.failure)))
            return out

        monkeypatch.setattr(adapt_module, "step", spy)
        kinds, pole_starts, jumps = {"next": 0, "predicted": 0, "halve": 0, "raise": 0}, 0, set()
        for make, k_init, scheme, mode, tol, r_max in self.RUNS:
            cfg = AdaptConfig(
                scheme=scheme,
                mode=mode,
                r_init=1,
                k_init=k_init,
                tol_star=tol,
                r_max=r_max,
                picard=PicardConfig(divergence_cap=1e12),
            )
            calls.clear()
            p = make(1.0)
            res = (hp_adapt if mode is Mode.HP else h_adapt)(p, cfg)
            # the intervals whose k the driver halved before their first
            # attempt, the discarded last one included
            predicted = {
                rec.interval.t_start
                for rec in res.intervals
                if rec.decisions[:1] == ("halve_k_predicted",)
            }
            if res.M and predicts_rejection(cfg, res.intervals, res.tol_trace[-1]):
                predicted.add(res.T)
            assert calls[0][1] is None
            for (prev, _, prev_out, _), (inp, guess, out, cold) in zip(calls, calls[1:]):
                assert (out.converged, out.failure) == cold
                if not prev_out.converged:
                    assert guess is None
                    continue
                # every guess is a Picard update from the f values of the
                # residual of the candidate before it
                u_hat = reconstruct(p, prev, prev_out.f_vals)
                k, r = prev.interval.k, prev.r
                if inp.interval.t_start == prev.interval.t_end:
                    # the next interval starts at the reconstruction's end
                    # value; halved before the attempt on the prediction
                    # or on a pole, the guess is on the first half, or the
                    # constant after two halvings
                    halved = inp.interval.t_start in predicted
                    poles, want = next_interval_start(p, inp, u_hat, predicted=halved)
                    kind = "predicted" if halved else "next"
                    k *= 0.5 ** (halved + poles)
                    pole_starts += poles > 0
                else:
                    assert inp.interval.t_start == prev.interval.t_start
                    if inp.r > prev.r:
                        m = inp.r - prev.r
                        kind, want, r = "raise", start_guess(p, inp, u_hat, raise_start(m)), r + m
                        jumps.add(m)
                    else:
                        kind, want, k = "halve", start_guess(p, inp, u_hat, Start.HALVE), 0.5 * k
                # same step length up to the rounding of t + k - t
                assert inp.r == r
                assert inp.interval.k == pytest.approx(k, rel=1e-6)
                assert guess is want is None or np.array_equal(guess, want)
                kinds[kind] += 1
        assert min(kinds.values()) > 10 and pole_starts > 0, (kinds, pole_starts)
        assert len(jumps) > 2 and 1 in jumps, jumps


def top_rows(below, top):
    """A degree 3 reconstruction on [0, 0.1] whose top two coefficient
    rows are below and top, under two rows of ones."""
    d = len(below)
    return LocalPoly(Interval(0.0, 0.1), [[1.0] * d, [1.0] * d, below, top])


class TestRaiseBy:
    """An HP raise adds m = ceil(log(tol / eta) / log(rho)) degrees,
    rho the ratio of the Euclidean norms of the reconstruction's top two
    coefficient rows, clamped to [1, r_max - r]
    (``adapt._raise_by``); the attempt after it starts from the row of
    ``SchemeOperator.H`` for that m."""

    @pytest.mark.parametrize(
        "below, top, eta",
        [
            ([1.0], [0.5], math.inf),  # eta not finite
            ([1.0], [0.5], math.nan),
            ([1e308, 1e308], [1e308, 1e308], 1.0),  # both norms overflow: rho nan
            ([1.0, 1.0], [1e308, 1e308], 1.0),  # the top norm overflows: rho inf
            ([1.0], [0.0], 1.0),  # a zero row
            ([0.0], [0.5], 1.0),
            ([0.0, 0.0], [0.0, 0.0], 1.0),
            ([1e-300], [1e300], 1.0),  # rho overflows
            ([1e300], [1e-300], 1.0),  # rho underflows to 0
            ([0.5], [0.5], 1.0),  # rho = 1
            ([0.5], [-2.0], 1.0),  # rho > 1
        ],
    )
    def test_one_degree_where_the_fit_says_nothing(self, below, top, eta):
        assert adapt_module._raise_by(top_rows(below, top), eta, 1e-6, 10) == 1

    def test_no_quotient_underflows(self):
        # tol / eta would underflow to 0, whose log raises; the logs are
        # taken apart
        assert adapt_module._raise_by(top_rows([1.0], [0.5]), 1e300, 1e-300, 58) == 58

    @pytest.mark.parametrize("room, want", [(1, 1), (5, 5), (19, 19), (20, 20), (30, 20)])
    def test_clamped_at_the_room_below_r_max(self, room, want):
        # rho = 1/2 and eta = 2^19.5 tol: 20 degrees, at most room
        u_hat = top_rows([1.0], [0.5])
        assert adapt_module._raise_by(u_hat, 2.0**19.5 * 1e-6, 1e-6, room) == want
        assert raise_by(u_hat.coeffs, 2.0**19.5 * 1e-6, 1e-6, room) == want

    def test_euclidean_row_norms(self):
        # |(3, 4)| = 5 and |(1, 0)| = 1: rho = 1/5 asks for 3 degrees at
        # eta just below 125 tol, where the largest entries (rho = 1/4)
        # would ask for 4 and the first component (rho = 1/3) for 5
        u_hat = top_rows([3.0, 4.0], [1.0, 0.0])
        assert adapt_module._raise_by(u_hat, 124.0, 1.0, 30) == 3
        assert adapt_module._raise_by(top_rows([3.0, 4.0, 0.0], [0.0, 0.6, 0.8]), 124.0, 1.0, 30) == 3

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        ratio=st.floats(1.0, 1e12).filter(lambda x: x > 1.0),
        room=st.integers(1, 57),
    )
    def test_against_the_oracle(self, d, seed, ratio, room):
        coeffs = np.random.default_rng(seed).standard_normal((4, d))
        coeffs[-1] *= 0.1
        u_hat = LocalPoly(Interval(0.0, 0.1), coeffs)
        rho = np.linalg.norm(coeffs[-1]) / np.linalg.norm(coeffs[-2])
        x = math.log(ratio) / -math.log(rho) if 0.0 < rho < 1.0 else 0.5
        # away from an integer, where the two roundings could part
        assume(abs(x - round(x)) > 1e-9)
        want = raise_by(coeffs, ratio * 1e-8, 1e-8, room)
        assert adapt_module._raise_by(u_hat, ratio * 1e-8, 1e-8, room) == want

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG], ids=lambda v: v.value)
    @pytest.mark.parametrize("r, m", [(3, 2), (5, 2), (5, 4), (8, 3), (12, 7), (20, 10), (58, 57)])
    def test_jump_row_against_the_oracle(self, scheme, r, m):
        H = picard_operator(r, scheme).H[(Start.RAISE, m)]
        want = raise_row(r, m, scheme)
        assert H.shape == want.shape == (r + 1, residual_nodes(r - m + 1)[0].size)
        assert not H.flags.writeable
        scale = np.abs(want).max()
        assert np.abs(H - want).max() <= 1e-12 * max(scale, 1.0) * (r + 1)

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG], ids=lambda v: v.value)
    def test_one_degree_row_unchanged(self, scheme):
        # Start.RAISE is the row of a raise by one, formed as it was
        # before the jumps: G @ (legvander(nodes, n - 1) @ res_proj) on
        # the rule of a degree r reconstruction; the jump rows sit next
        # to it, one per m = 2 .. r - 1
        for r in range(1, MAX_DEGREE + 1):
            op, b = picard_operator(r, scheme), basis(r)
            nodes = np.polynomial.legendre.leggauss(b.step_offsets.size)[0]
            lagrange = np.polynomial.legendre.legvander(nodes, b.res_proj.shape[0] - 1)
            assert op.H[Start.RAISE].tobytes() == (op.G @ (lagrange @ b.res_proj)).tobytes()
            assert {key for key in op.H if isinstance(key, tuple)} == {
                (Start.RAISE, m) for m in range(2, r)
            }

    def test_the_march_raises_by_the_rule(self, monkeypatch):
        # every raise of an HP march adds what the rule returns for the
        # rejected candidate, and the next attempt is at that degree
        made, steps, rule, run = [], [], adapt_module._raise_by, adapt_module.step

        def spy_rule(u_hat, eta, tol, room):
            made.append((rule(u_hat, eta, tol, room), raise_by(u_hat.coeffs, eta, tol, room), room))
            return made[-1][0]

        def spy_step(p, inp, cfg, **kwargs):
            steps.append(inp.r)
            return run(p, inp, cfg, **kwargs)

        monkeypatch.setattr(adapt_module, "_raise_by", spy_rule)
        monkeypatch.setattr(adapt_module, "step", spy_step)
        sizes = set()
        for make, k_init in ((make_power_square, 0.15), (make_exponential, 0.09)):
            for scheme in (Scheme.CG, Scheme.DG):
                for tol, r_max in ((1e-5, 30), (1e-9, 30), (1e-9, 4)):
                    made.clear(), steps.clear()
                    cfg = AdaptConfig(
                        scheme=scheme, mode=Mode.HP, r_init=1, k_init=k_init, tol_star=tol,
                        r_max=r_max,
                    )
                    res = hp_adapt(make(1.0), cfg)
                    rises = [b - a for a, b in zip(steps, steps[1:]) if b > a]
                    assert rises == [m for m, _, _ in made]
                    assert all(got == want and 1 <= got <= room for got, want, room in made)
                    assert max(steps) <= r_max
                    assert sum("raise_r" in rec.decisions for rec in res.intervals) <= len(made)
                    sizes.update(rises)
        assert len(sizes) > 3 and 1 in sizes, sizes


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
            lifted = reconstruct(p, inp, out.f_vals)
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


def counting_problem(base, points):
    """base with its f counted: points[0] grows by one per point at
    which f is evaluated, through ``f_batch`` when base has one, else
    through the scalar f."""
    if base.f_batch is not None:

        def f_batch(ts, us):
            points[0] += len(ts)
            return base.f_batch(ts, us)

        return dataclasses.replace(base, f_batch=f_batch)

    def f(t, u):
        points[0] += 1
        return base.f(t, u)

    return dataclasses.replace(base, f=f)


class TestFPointLedger:
    """The march evaluates f only in the Picard updates, on the step's
    rule of min(r + 1, 64) points, and once for the residual of each
    reconstruction that ``reconstruct`` returns, on the residual's rule
    of the degree r + 1 reconstruction, min(r + 5, 64) points: the
    reconstruction lifts the step's own f values, the drivers' first
    iterates are Picard updates from values already evaluated, and no
    layer evaluates f twice."""

    PROBLEMS = {
        "power2": lambda: make_power_square(1.0),
        "exp": lambda: make_exponential(1.0),
        "custom": norm_square_scalar,
    }

    @pytest.mark.parametrize("mode,r", [(Mode.HP, 1), (Mode.H, 2)], ids=["hp", "h"])
    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG], ids=lambda v: v.value)
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_points_equal_the_ledger(self, name, scheme, mode, r, monkeypatch):
        points, steps, lifts = [0], [], []

        def counted_step(p, inp, cfg, **kwargs):
            out = step(p, inp, cfg, **kwargs)
            steps.append((inp.r, out.picard_iters))
            return out

        def counted_reconstruct(p, inp, f_vals):
            u_hat = reconstruct(p, inp, f_vals)
            lifts.append(inp.r)
            return u_hat

        monkeypatch.setattr(adapt_module, "step", counted_step)
        monkeypatch.setattr(adapt_module, "reconstruct", counted_reconstruct)
        p = counting_problem(self.PROBLEMS[name](), points)
        cfg = AdaptConfig(scheme=scheme, mode=mode, r_init=r, k_init=0.15, tol_star=1e-7)
        res = (hp_adapt if mode is Mode.HP else h_adapt)(p, cfg)
        assert res.M > 10 and lifts
        want = sum(iters * min(r + 1, 64) for r, iters in steps)
        want += sum(min(r + 5, 64) for r in lifts)
        assert points[0] == want


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
        score = adapt_module.smoothness
        calls = counted_smoothness(monkeypatch)
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
                assert rec.theta == score(rec.output.u, rec.r)


PREDICTION_RUNS = {
    "power2-cg-h-1": (make_power_square(1.0), Scheme.CG, Mode.H, 1, 0.15, 1e-4, 30),
    "power2-dg-h-4": (make_power_square(1.0), Scheme.DG, Mode.H, 4, 0.15, 1e-6, 30),
    "exp-dg-h-4": (make_exponential(1.0), Scheme.DG, Mode.H, 4, 0.09, 1e-5, 30),
    "exp-cg-hp-1": (make_exponential(1.0), Scheme.CG, Mode.HP, 1, 0.09, 1e-7, 30),
    "exp-cg-hp-1-max2": (make_exponential(1.0), Scheme.CG, Mode.HP, 1, 0.09, 1e-5, 2),
    "power2-dg-hp-1": (make_power_square(1.0), Scheme.DG, Mode.HP, 1, 0.15, 1e-7, 30),
    "custom-cg-hp-1": (norm_square_scalar(), Scheme.CG, Mode.HP, 1, 0.15, 1e-7, 30),
    # two halvings, a predicted and a pole one, with a scaled prediction
    # above tol: on the residual's deg + 4-point rule no run above has one
    "exp-dg-h-4-1e-4": (make_exponential(1.0), Scheme.DG, Mode.H, 4, 0.09, 1e-4, 30),
}


@pytest.fixture(scope="module")
def predicted_runs():
    """Per PREDICTION_RUNS entry: its config, its result, the running
    tolerance before each accepted interval and every step call
    (inp, guess, out) in order."""
    runs, calls = {}, []

    def spy(p, inp, cfg, *, guess=None, atol=0.0):
        out = step(p, inp, cfg, guess=guess, atol=atol)
        calls.append((inp, guess, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adapt_module, "step", spy)
        for name, (p, scheme, mode, r, k_init, tol, r_max) in PREDICTION_RUNS.items():
            cfg = AdaptConfig(
                scheme=scheme, mode=mode, r_init=r, k_init=k_init, tol_star=tol, r_max=r_max,
                picard=PicardConfig(divergence_cap=1e12),
            )
            res = (hp_adapt if mode is Mode.HP else h_adapt)(p, cfg)
            runs[name] = (cfg, res, (tol,) + res.tol_trace, list(calls))
            calls.clear()
    return runs


def fired(rec):
    return rec.decisions[:1] == ("halve_k_predicted",)


def fired_and_predicted(cfg, res):
    """Per accepted interval: whether its k was halved on the prediction,
    and whether the written-out rule predicts that."""
    tols = (cfg.tol_star,) + res.tol_trace
    got = [fired(rec) for rec in res.intervals]
    return got, [predicts_rejection(cfg, res.intervals[:i], tols[i]) for i in range(res.M)]


class TestPredictedHalving:
    """The drivers halve k before an interval's first attempt when the
    estimators of the last accepted intervals, scaled to the k it
    carries, predict one above the running tolerance
    (``predicts_rejection``)."""

    @pytest.mark.parametrize("name", PREDICTION_RUNS)
    def test_fires_exactly_where_predicted(self, predicted_runs, name):
        cfg, res, _, _ = predicted_runs[name]
        got, want = fired_and_predicted(cfg, res)
        assert got == want
        assert any(got)

    def test_silent_after_a_raise(self, predicted_runs):
        # a raise changes the constant of eta = C k^(r+2) by a factor no
        # model of k gives (``TestPredictionRule`` holds a prediction far
        # above tol)
        after = 0
        for cfg, res, _, _ in predicted_runs.values():
            for prev, rec in zip(res.intervals, res.intervals[1:]):
                if "raise_r" in prev.decisions:
                    after += 1
                    assert not fired(rec)
        assert after > 0

    def test_normalised_after_one_halving(self, predicted_runs):
        # after one halving the growth is scaled by 2^(r+2); the march
        # holds halvings the unscaled growth would not have predicted
        kinds, scaled = set(), 0
        for cfg, res, tols, _ in predicted_runs.values():
            for i in range(2, res.M):
                head = res.intervals[:i]
                if carries_k_and_r(head) != 1 or not fired(res.intervals[i]):
                    continue
                kinds.add(head[-1].decisions[0])
                e0, e1 = (Fraction(rec.estimate.eta_res) for rec in head[-2:])
                scaled += e1 * e1 <= e0 * Fraction(tols[i])
        assert scaled > 0
        assert {"halve_k_predicted", "halve_k_pole"} <= kinds, kinds

    def test_silent_after_two_halvings(self, predicted_runs):
        # over two halvings the scaled growth overstates the next
        # estimator: no prediction, however far it exceeds tol
        silent, kinds = 0, set()
        for cfg, res, tols, _ in predicted_runs.values():
            for i in range(2, res.M):
                head = res.intervals[:i]
                decisions = head[-1].decisions
                if len(decisions) < 2 or "raise_r" in decisions:
                    continue
                e0, e1 = (Fraction(rec.estimate.eta_res) for rec in head[-2:])
                scale = 2 ** (len(decisions) * (head[-1].r + 2))
                if e1 * e1 * scale > e0 * Fraction(tols[i]):
                    silent += 1
                    kinds.update(decisions)
                    assert not fired(res.intervals[i])
        assert silent > 0
        assert {"halve_k_predicted", "halve_k_pole"} <= kinds, kinds

    def test_curvature_term(self, predicted_runs):
        # three intervals of equal k and r: the change of the growth
        # halves where the geometric prediction alone stays below tol
        added = 0
        for cfg, res, tols, _ in predicted_runs.values():
            for i in range(3, res.M):
                head = res.intervals[:i]
                if carries_k_and_r(head) != 0 or head[-2].decisions:
                    continue
                geometric, curvature = predictions(head)
                if curvature > Fraction(tols[i]) >= geometric:
                    added += fired(res.intervals[i])
        assert added > 0

    def test_h_mode_fires_whenever_the_prediction_exceeds_tol(self, predicted_runs):
        checked = 0
        for cfg, res, tols, _ in predicted_runs.values():
            if cfg.mode is not Mode.H:
                continue
            for i in range(2, res.M):
                head = res.intervals[:i]
                if carries_k_and_r(head) is not None and prediction_exceeds(head, tols[i]):
                    checked += 1
                    assert fired(res.intervals[i])
        assert checked > 10

    def test_hp_mode_never_fires_after_a_smooth_step(self, predicted_runs):
        # below r_max; at r_max a rejection halves k, smooth or not
        skipped, at_max = 0, 0
        for cfg, res, tols, _ in predicted_runs.values():
            if cfg.mode is not Mode.HP:
                continue
            for i in range(2, res.M):
                head = res.intervals[:i]
                if not smoothness(head[-1].output.u, head[-1].r) >= THETA_STAR:
                    continue
                exceeds = carries_k_and_r(head) is not None and prediction_exceeds(head, tols[i])
                if head[-1].r < cfg.r_max:
                    assert not fired(res.intervals[i])
                    skipped += exceeds
                elif exceeds:
                    assert fired(res.intervals[i])
                    at_max += 1
        # the smooth case, where a rejection would raise r, does occur
        assert skipped > 0 and at_max > 0

    def test_one_decision_per_jump(self, predicted_runs):
        # a raise by several degrees is one rejected attempt and one
        # "raise_r", as a raise by one is: the interval keeps one decision
        # per rejected attempt, after the predicted and pole halvings
        jumps = 0
        for cfg, res, _, calls in predicted_runs.values():
            for i, rec in enumerate(res.intervals):
                degrees = [inp.r for inp, _, _ in calls if inp.interval.t_start == rec.interval.t_start]
                rises = [b - a for a, b in zip(degrees, degrees[1:]) if b > a]
                if not any(m > 1 for m in rises):
                    continue
                jumps += 1
                poles = rec.decisions.count("halve_k_pole")
                assert rec.attempts == len(degrees)
                assert len(rec.decisions) == rec.attempts - 1 + fired(rec) + poles
                assert rec.decisions.count("raise_r") == len(rises)
                assert rec.r == (res.intervals[i - 1].r if i else cfg.r_init) + sum(rises)
        assert jumps > 0

    @pytest.mark.parametrize("name", PREDICTION_RUNS)
    def test_halved_guess_and_attempts(self, predicted_runs, name):
        cfg, res, _, calls = predicted_runs[name]
        p = PREDICTION_RUNS[name][0]
        for prev, rec in zip(res.intervals, res.intervals[1:]):
            mine = [(inp, guess) for inp, guess, _ in calls if inp.interval.t_start == rec.interval.t_start]
            # every step at this start is counted, and the skipped ones
            # are not steps: one decision per rejected attempt, after the
            # predicted halving and the pole halvings
            inp, guess = mine[0]
            poles, want = next_interval_start(p, inp, prev.reconstruction, predicted=fired(rec))
            assert rec.attempts == len(mine)
            assert len(rec.decisions) == rec.attempts - 1 + fired(rec) + poles
            assert rec.decisions[fired(rec) : fired(rec) + poles] == ("halve_k_pole",) * poles
            if not fired(rec):
                continue
            assert inp.r == prev.r
            assert inp.interval.k == pytest.approx(0.5 ** (1 + poles) * prev.interval.k, rel=1e-6)
            assert guess is want is None or guess.tobytes() == want.tobytes()


def accepted(*etas, decisions=None, r=1):
    """Accepted h intervals of degree r with residual estimators etas,
    each after its decisions (a tuple per interval, none by default):
    each halving halves the length, 0.1 on the first, and each raise
    raises r.  The prediction reads nothing else."""
    records, t, k = [], 0.0, 0.1
    for eta, made in zip(etas, decisions or [()] * len(etas)):
        k /= 2 ** sum(name in HALVINGS for name in made)
        r += made.count("raise_r")
        records.append(
            IntervalRecord(
                interval=Interval(t, t + k),
                r=r,
                output=None,
                reconstruction=None,
                estimate=StepEstimate(eta_res=eta, psi=eta, delta=1.0, bound=eta, delta_hat=1.0),
                attempts=1,
                decisions=made,
                dofs=1,
            )
        )
        t += k
    return records


H_CFG = AdaptConfig(scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=0.1, tol_star=1.0)


def rule(records, tol):
    """The drivers' rule on records, at running tolerance tol, checked
    against the written-out one."""
    got = adapt_module._predicts_rejection(H_CFG, records, tol)
    assert got is predicts_rejection(H_CFG, records, tol)
    return got


class TestPredictionRule:
    """What the prediction needs, on hand-made records: the growth is
    scaled by 2^(r+2) after one halving of any kind, and the rule is
    silent after a raise or two halvings; three intervals of equal k and
    r add the curvature term."""

    @pytest.mark.parametrize("r", [1, 4])
    @pytest.mark.parametrize("kind", HALVINGS)
    def test_normalised_after_one_halving(self, kind, r):
        # e1 = e0: the growth at equal k is 2^(r+2)
        records = accepted(0.5, 0.5, decisions=[(), (kind,)], r=r)
        scaled = math.ldexp(0.5, r + 2)
        assert rule(records, math.nextafter(scaled, 0.0))
        assert not rule(records, scaled)
        assert not rule(accepted(0.5, 0.5, r=r), 0.5)

    @pytest.mark.parametrize(
        "made",
        [
            ("halve_k_predicted", "halve_k_pole"),
            ("halve_k_pole", "halve_k_pole"),
            ("halve_k_predicted", "halve_k"),
            ("halve_k_pole", "halve_k_existence"),
            ("halve_k_existence", "halve_k_overflow"),
            ("halve_k_predicted", "halve_k_pole", "halve_k_existence"),
        ],
    )
    def test_silent_after_two_halvings(self, made):
        records = accepted(1e-3, 1.0, decisions=[(), made])
        assert not rule(records, 1e-300)

    @pytest.mark.parametrize("made", [("raise_r",), ("halve_k", "raise_r"), ("raise_r", "halve_k")])
    def test_silent_after_a_raise(self, made):
        assert not rule(accepted(1e-3, 1.0, decisions=[(), made]), 1e-300)

    def test_curvature_term(self):
        # growth 1 then 2: geometric 4, curvature 8
        assert rule(accepted(1.0, 1.0, 2.0), 7.0)
        assert not rule(accepted(1.0, 1.0, 2.0), 8.0)
        # the first interval's own decisions do not matter, the second's do
        assert rule(accepted(1.0, 1.0, 2.0, decisions=[("halve_k",), (), ()]), 7.0)
        assert not rule(accepted(1.0, 1.0, 2.0, decisions=[(), ("halve_k",), ()]), 7.0)
        # a slowing growth (4 then 2): the geometric prediction, 16, counts
        assert rule(accepted(1.0, 4.0, 8.0), 15.0)
        assert not rule(accepted(1.0, 4.0, 8.0), 16.0)


def time_linear(u0):
    """u' = 2 t u: linear in u, so a power-of-two u0 scales every
    coefficient and estimator exactly; lip does not read u."""
    return Problem(
        dim=1,
        u0=np.array([u0]),
        f=lambda t, u: 2.0 * t * u,
        lip=lambda t, a, b: 2.0 * abs(t),
        f_batch=lambda ts, us: 2.0 * ts[:, None] * us,
        lip_batch=lambda ts, a, b: 2.0 * np.abs(ts),
    )


class TestPredictionRange:
    """The predictions eta_M * (eta_M / eta_(M-1)), its scaling by
    2^(r+2) and its curvature term stay right where a square, a ratio or
    the scaling leaves double range."""

    @pytest.mark.parametrize(
        "etas,made,tol,want",
        [
            ((1e300, 1e300), (), 1.5e300, False),  # e1^2 overflows to inf
            ((1e300, 2e300), (), 3e300, True),
            ((4e-310, 8e-310), (), 1e-309, True),  # e1^2 underflows to 0
            ((1e-310, 1e-310), (), 1.5e-310, False),
            ((5e-324, 1e300), (), 1e308, True),  # e1 / e0 overflows: growth past range
            ((0.0, 1e-3), (), 1e-2, False),  # no prediction from a zero estimator
            ((1e-3, 0.0), (), 1e-2, False),
            # e1 (e1 / e0) = 1e308 in range, times 2^3 past it
            ((1e300, 1e304), ("halve_k",), 1.7e308, True),
            ((1e300, 1e304), (), 1.7e308, False),
            # a subnormal prediction, 2^-1072, scaled exactly to 2^-1069
            ((1.0, 2.0**-536), ("halve_k_pole",), 2.0**-1070, True),
            ((1.0, 2.0**-536), ("halve_k_pole",), 2.0**-1069, False),
            ((1.0, 2.0**-536), (), 2.0**-1073, True),
            # ea = 0: no curvature term, the geometric prediction is 4
            ((0.0, 1.0, 2.0), (), 3.0, True),
            ((0.0, 1.0, 2.0), (), 4.0, False),
            # e0 / ea underflows to 0: the growth's change overflows
            ((1e300, 1e-300, 1e-300), (), 1e-290, True),
            # e0 / ea overflows: the growth's change is 5e-324 / 1e300
            ((5e-324, 1e300, 1e300), (), 2e300, False),
        ],
    )
    def test_rule_at_the_edges_of_double_range(self, etas, made, tol, want):
        decisions = [()] * (len(etas) - 1) + [made]
        assert rule(accepted(*etas, decisions=decisions), tol) is want

    @pytest.mark.parametrize("scheme,r", [(Scheme.CG, 1), (Scheme.DG, 0), (Scheme.CG, 3)])
    def test_march_with_estimators_near_1e300(self, scheme, r):
        # scaled by 2^960 the estimators reach 1e286 to 1e301, whose
        # squares overflow; every step and decision stays that of the
        # unscaled march, and every estimator is scaled exactly
        def run(scale):
            cfg = AdaptConfig(
                scheme=scheme, mode=Mode.H, r_init=r, k_init=0.1,
                tol_star=math.ldexp(1e-4, scale), max_intervals=80,
            )
            return h_adapt(time_linear(math.ldexp(1.0, scale)), cfg)

        plain, scaled = run(0), run(960)
        assert scaled.M == plain.M == 80
        assert any(fired(rec) for rec in plain.intervals)
        assert max(rec.estimate.eta_res for rec in scaled.intervals) > 1e284
        for a, b in zip(plain.intervals, scaled.intervals):
            assert (a.interval, a.r, a.attempts, a.decisions) == (b.interval, b.r, b.attempts, b.decisions)
            assert math.ldexp(a.estimate.eta_res, 960) == b.estimate.eta_res

    @pytest.mark.parametrize("scheme,r,tol", [(Scheme.CG, 1, 1e-4), (Scheme.CG, 1, 1e-6), (Scheme.DG, 0, 1e-4)])
    def test_march_with_subnormal_estimators(self, scheme, r, tol):
        # scaled by 2^-1020 every estimator is subnormal, where e1^2
        # underflows to 0; the rule still fires where the exact
        # prediction exceeds tol
        cfg = AdaptConfig(
            scheme=scheme, mode=Mode.H, r_init=r, k_init=0.1,
            tol_star=math.ldexp(tol, -1020), max_intervals=80,
        )
        res = h_adapt(time_linear(math.ldexp(1.0, -1020)), cfg)
        assert all(0.0 < rec.estimate.eta_res < sys.float_info.min for rec in res.intervals)
        got, want = fired_and_predicted(cfg, res)
        assert got == want
        assert any(got)


def counted_errstate(monkeypatch):
    """The np.errstate objects entered from now on, in order."""
    entries = []
    enter = np.errstate.__enter__

    def counted(self):
        entries.append(self)
        return enter(self)

    monkeypatch.setattr(np.errstate, "__enter__", counted)
    return entries


def overflowing_calls():
    """Call each callee of the march directly on inputs whose arithmetic
    leaves double range, with RuntimeWarnings as errors: each must hold
    an errstate of its own.  Five calls, five errstates."""
    p, iv, wide = make_power_square(1.0), Interval(0.0, 1.0), Interval(0.0, 100.0)
    u_hat = LocalPoly(iv, [[1.0], [1.0], [0.5], [0.25]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # f = u^2 overflows at u = 1e200: the sweep diverges
        assert not step(p, StepInput(iv, 2, [1e200], Scheme.CG)).converged
        huge = np.full((basis(2).step_offsets.size, 1), 1e308)
        with pytest.raises(NumericOverflow):
            reconstruct(p, StepInput(wide, 2, [1.0], Scheme.CG), huge)
        huge = np.full((basis(3).res_offsets.size, 1), 1e308)
        with pytest.raises(NumericOverflow):
            residual_estimator(p, LocalPoly(wide, u_hat.coeffs), [1.0], huge)
        # e^(800 delta) overflows: no certificate
        assert isinstance(solve_delta(make_exponential(1.0), iv, u_hat, 800.0), DeltaNotFound)
        # the squares of the samples overflow, the norm does not
        assert LocalPoly(iv, [[1e200], [1e200]]).linf_norm() == 2e200


class TestOneErrstatePerMarch:
    """A march holds one np.errstate for its whole loop
    (``poly._marching``); its callees enter none of their own during it,
    and their own whenever they are called outside a march, in this
    thread or while another thread marches (``poly._quiet``)."""

    @pytest.mark.parametrize("mode", [Mode.H, Mode.HP])
    def test_one_entry_per_march(self, mode, monkeypatch):
        cfg = AdaptConfig(scheme=Scheme.CG, mode=mode, r_init=1, k_init=0.1, tol_star=1e-6)
        driver, p = h_adapt if mode is Mode.H else hp_adapt, make_power_square(1.0)
        # a first run fills the caches of basis and picard_operator, whose
        # set-up (np.linalg.inv) enters errstates of its own
        driver(p, cfg)
        entries = counted_errstate(monkeypatch)
        res = driver(p, cfg)
        assert res.termination is Termination.DELTA_NOT_FOUND and res.M > 10
        assert len(entries) == 1

    def test_direct_calls_hold_their_own(self, monkeypatch):
        overflowing_calls()  # the cached set-up first, as above
        entries = counted_errstate(monkeypatch)
        overflowing_calls()
        assert len(entries) == 5

    def test_flag_unset_after_a_march(self):
        cfg = AdaptConfig(scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=0.1, tol_star=1e-3)
        assert h_adapt(make_power_square(1.0), cfg).M > 1
        assert poly_module._MARCHING.get() is False
        overflowing_calls()
        # a march that raises: f returns the wrong shape on the first step
        bad = Problem(dim=1, u0=[1.0], f=lambda t, u: np.ones(2), lip=lambda t, a, b: a + b)
        with pytest.raises(ValueError, match="right-hand side returned shape"):
            h_adapt(bad, cfg)
        assert poly_module._MARCHING.get() is False
        overflowing_calls()

    def test_a_march_in_another_thread(self):
        # the march blocks inside its f, holding its errstate, while this
        # thread measures a norm whose squares overflow
        entered, release, results = threading.Event(), threading.Event(), []

        def f_batch(ts, us):
            entered.set()
            release.wait(timeout=60.0)
            return us * us

        p = dataclasses.replace(make_power_square(1.0), f_batch=f_batch)
        cfg = AdaptConfig(
            scheme=Scheme.CG, mode=Mode.H, r_init=1, k_init=0.1, tol_star=1e-3, max_intervals=2
        )
        worker = threading.Thread(target=lambda: results.append(h_adapt(p, cfg)))
        worker.start()
        try:
            assert entered.wait(timeout=60.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                norm = LocalPoly(Interval(0.0, 1.0), [[1e200], [1e200]]).linf_norm()
        finally:
            release.set()
            worker.join(timeout=60.0)
        assert norm == 2e200
        assert not worker.is_alive() and len(results) == 1 and results[0].M == 2



def run_bits(res):
    """Every number of a run, coefficient bytes included."""
    return (
        repr((res.T, res.M, res.dofs, res.termination, res.tol_trace)),
        [
            (
                rec.interval, rec.r, rec.attempts, rec.decisions, rec.output.picard_iters,
                rec.output.u.coeffs.tobytes(), rec.reconstruction.coeffs.tobytes(),
                repr(dataclasses.astuple(rec.estimate)),
            )
            for rec in res.intervals
        ],
    )


def rotation():
    """u' = (u_2, -u_1) from (1, 0): each component changes sign."""
    return Problem(
        dim=2,
        u0=np.array([1.0, 0.0]),
        f=lambda t, u: np.array([u[1], -u[0]]),
        lip=lambda t, a, b: 1.0,
        f_batch=lambda ts, us: np.stack([us[:, 1], -us[:, 0]], -1),
    )


def reciprocal_calls(monkeypatch, force_polynomial=False):
    """Record every result of ``adapt._reciprocal_iterate``; with
    force_polynomial it returns None, so every next interval starts
    from the polynomial continuation."""
    results = []
    inner = adapt_module._reciprocal_iterate

    def spy(*args):
        guess = None if force_polynomial else inner(*args)
        results.append(guess)
        return guess

    monkeypatch.setattr(adapt_module, "_reciprocal_iterate", spy)
    return results


class TestReciprocalContinuation:
    """The next interval's first iterate continues 1/f at degree 2 where
    every component of f keeps one sign and looks like a pole, and the
    polynomial continuation of f everywhere else
    (``galerkin.SchemeOperator``)."""

    @pytest.mark.parametrize("r", [3, 4, 6])
    @pytest.mark.parametrize("make", [make_power_square, make_exponential], ids=["power2", "exp"])
    def test_exact_where_1_over_f_is_quadratic(self, make, r):
        # on the exact solutions 1/f is (T - t)^2 (power2) or a line
        # (exp): continued from the residual's nodes of [t0, t0 + k], it
        # gives f at the step's nodes of the next interval and of its
        # first half, and the driver's test takes it
        p = make(1.0)
        t0, k = 0.5 * p.t_blowup, 0.1 * p.t_blowup
        op = picard_operator(r, Scheme.CG)

        def f_at(x):  # f on the exact solution at reference points x of [t0, t0 + k]
            ts = t0 + 0.5 * k * (x + 1.0)
            return p.f_batch(ts, p.exact(ts).T)

        f_res = f_at(residual_nodes(r + 1)[0])
        assert looks_like_a_pole(r, f_res)
        nodes = step_nodes(r)[0]
        inp = StepInput(Interval(t0 + k, t0 + 2.0 * k), r, p.u0, Scheme.CG)
        for R, x in ((op.R[Start.NEXT], nodes + 2.0), (op.R[Start.NEXT_HALF], 0.5 * (nodes + 3.0))):
            assert R.tobytes() == reciprocal_fit(r, x).tobytes()
            got = 1.0 / (R @ (1.0 / f_res))
            assert np.abs(got / f_at(x) - 1.0).max() <= 1e-12
            assert adapt_module._reciprocal_iterate(inp, op, R, f_res) is not None

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG])
    @pytest.mark.parametrize(
        "make",
        [lambda: make_linear(1.0, [1.0]), lambda: make_linear(-1.0, [1.0]), rotation, zero_rhs],
        ids=["linear+1", "linear-1", "rotation", "zero"],
    )
    def test_no_pole_marches_as_the_polynomial_continuation(self, make, scheme, monkeypatch):
        # an exponential, a rotation and f = 0 never look like a pole:
        # every next interval starts from the polynomial continuation, and
        # the march keeps every bit of the one that never tries the other
        cfg = AdaptConfig(
            scheme=scheme, mode=Mode.H, r_init=4, k_init=0.1, tol_star=1e-8, max_intervals=40,
        )
        with monkeypatch.context() as m:
            forced = reciprocal_calls(m, force_polynomial=True)
            want = run_bits(h_adapt(make(), cfg))
        tried = reciprocal_calls(monkeypatch)
        assert run_bits(h_adapt(make(), cfg)) == want
        assert len(tried) == len(forced) > 30
        assert all(guess is None for guess in tried)

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG])
    @pytest.mark.parametrize("mode", [Mode.H, Mode.HP])
    def test_fast_exponential_takes_no_more_f_points(self, scheme, mode, monkeypatch):
        # u' = 5 u: 1/f is an exponential, not a polynomial, and log|f| is
        # a line, so the pole test keeps the polynomial continuation
        cfg = AdaptConfig(
            scheme=scheme, mode=mode, r_init=4 if mode is Mode.H else 1, k_init=0.1,
            tol_star=1e-8, max_intervals=60,
        )
        points = {}
        for force in (True, False):
            with monkeypatch.context() as m:
                tried = reciprocal_calls(m, force_polynomial=force)
                counted = [0]
                res = (hp_adapt if mode is Mode.HP else h_adapt)(
                    counting_problem(make_linear(5.0, [1.0]), counted), cfg
                )
                assert res.M == 60 and len(tried) > 30
                points[force] = counted[0]
        assert points[False] <= points[True]

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG])
    @pytest.mark.parametrize(
        "g",
        [lambda t: 1.0 + (t - 0.3) ** 2, lambda t: 1.0 + (t - 1.0) ** 2, lambda t: 2.0 + np.cos(t)],
        ids=["1+(t-0.3)^2", "1+(t-1)^2", "2+cos"],
    )
    def test_interior_minimum_takes_no_more_f_points(self, g, scheme, monkeypatch):
        # u' = g(t) > 0 with an interior minimum: past it log g rises and
        # is convex for a while, as at a pole, but its third derivative
        # is negative, so the pole test keeps the polynomial
        # continuation, which is exact for the quadratic g
        base = Problem(
            dim=1, u0=[1.0], f=lambda t, u: np.array([g(t)]), lip=lambda t, a, b: 0.0,
            f_batch=lambda ts, us: g(ts)[:, None],
        )
        cfg = AdaptConfig(
            scheme=scheme, mode=Mode.H, r_init=4, k_init=0.1, tol_star=1e-8, max_intervals=60,
        )
        points = {}
        for force in (True, False):
            with monkeypatch.context() as m:
                tried = reciprocal_calls(m, force_polynomial=force)
                counted = [0]
                res = h_adapt(counting_problem(base, counted), cfg)
                assert res.M == 60 and len(tried) > 30
                points[force] = counted[0]
        assert points[False] <= points[True]

    @pytest.mark.parametrize(
        "column",
        [
            [9.0, 8.0, -7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0],  # a sign change
            [9.0, 8.0, 7.0, 6.0, 5.0, 0.0, 3.0, 2.0, 1.0],  # a zero
            [0.0] * 9,
            [-0.0, -8.0, -7.0, -6.0, -5.0, -4.0, -3.0, -2.0, -1.0],
        ],
    )
    @pytest.mark.parametrize("other", [None, "pole"])
    def test_sign_change_or_zero_falls_back(self, column, other):
        # no reciprocal is formed of a zero: no RuntimeWarning, with no
        # errstate held, and the guess is the polynomial continuation
        r = 4
        op = picard_operator(r, Scheme.CG)
        x = residual_nodes(r + 1)[0]
        assert x.size == len(column)
        f_res = np.array(column)[:, None]
        if other is not None:  # a second component that looks like a pole
            f_res = np.hstack([1.0 / (3.0 - x)[:, None] ** 2, f_res])
        inp = StepInput(Interval(1.0, 1.1), r, np.ones(f_res.shape[1]), Scheme.CG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert adapt_module._reciprocal_iterate(inp, op, op.R[Start.NEXT], f_res) is None
            got = adapt_module._first_iterate(inp, op, Start.NEXT, f_res)
        want = np.outer(op.a, inp.u_left) + inp.interval.k * (op.H[Start.NEXT] @ f_res)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m,pole", [(1.0, True), (0.5, False)])
    def test_fit_that_changes_sign_signals_a_pole(self, m, pole):
        # f = (T - t)^-m, a pole at the middle of the next interval (x = 2
        # in the reference coordinate of this one), where the continued
        # 1/f changes sign.  At m = 1 the test takes it: the blow-up lies
        # on the next interval, so no guess is formed there and the driver
        # halves k; on its first half, before T, the guess is formed.  At
        # m = 1/2, where f is integrable and u does not blow up
        # (``SchemeOperator``), the test fails on both: no pole, and the
        # guess is the polynomial continuation's
        r = 4
        op = picard_operator(r, Scheme.CG)
        f_res = (1.0 / (2.0 - residual_nodes(r + 1)[0]) ** m)[:, None]
        assert looks_like_a_pole(r, f_res) is pole
        fit = op.R[Start.NEXT] @ (1.0 / f_res)
        assert fit.min() < 0.0 < fit.max()
        inp = StepInput(Interval(1.0, 1.1), r, [1.0], Scheme.CG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = adapt_module._reciprocal_iterate(inp, op, op.R[Start.NEXT], f_res)
            assert got is (adapt_module._POLE if pole else None)
            half = adapt_module._reciprocal_iterate(inp, op, op.R[Start.NEXT_HALF], f_res)
            assert (half is not None) is pole and half is not adapt_module._POLE

    @pytest.mark.parametrize(
        "scheme,r", [(Scheme.CG, 1), (Scheme.CG, 2), (Scheme.DG, 0), (Scheme.DG, 1), (Scheme.DG, 2)]
    )
    def test_none_below_degree_three(self, scheme, r):
        # at degrees 1 and 2 the polynomial continuation serves as well
        op = picard_operator(r, scheme)
        assert op.R == {}


def pole_attempts(monkeypatch, force_off=False):
    """Count the poles ``adapt._reciprocal_iterate`` finds, and record
    whether each step that follows one converges; with force_off a pole
    reads as None, so the driver makes the attempt from the polynomial
    continuation instead of halving k."""
    poles, after, pending = [0], [], [False]
    inner_recip, inner_step = adapt_module._reciprocal_iterate, adapt_module.step

    def recip(*args):
        guess = inner_recip(*args)
        pending[0] = guess is adapt_module._POLE
        poles[0] += pending[0]
        return None if force_off and pending[0] else guess

    def spy(p, inp, cfg, *, guess=None, atol=0.0):
        out = inner_step(p, inp, cfg, guess=guess, atol=atol)
        if pending[0]:
            after.append(out.converged)
        pending[0] = False
        return out

    monkeypatch.setattr(adapt_module, "_reciprocal_iterate", recip)
    monkeypatch.setattr(adapt_module, "step", spy)
    return poles, after


class TestPoleHalving:
    """Where the continued 1/f changes sign at a step node, the drivers
    halve k before the attempt ("halve_k_pole"): the attempt they skip
    fails when it is made, so the march is the one it would have been."""

    @pytest.mark.parametrize("scheme", [Scheme.CG, Scheme.DG])
    @pytest.mark.parametrize("mode,r", [(Mode.HP, 1), (Mode.H, 4)], ids=["hp-1", "h-4"])
    @pytest.mark.parametrize(
        "make,k_init", [(make_power_square, 0.15), (make_exponential, 0.09)], ids=["power2", "exp"]
    )
    def test_same_march_and_skipped_attempts_fail(self, make, k_init, scheme, mode, r, monkeypatch):
        skipped = 0
        for tol in (1e-4, 1e-6, 10.0 ** -7.5):
            cfg = AdaptConfig(scheme=scheme, mode=mode, r_init=r, k_init=k_init, tol_star=tol)
            marches = {}
            for force_off in (True, False):
                with monkeypatch.context() as m:
                    poles, after = pole_attempts(m, force_off)
                    res = (hp_adapt if mode is Mode.HP else h_adapt)(make(1.0), cfg)
                marches[force_off] = (
                    res.T, res.M, res.dofs, res.termination,
                    [(rec.interval, rec.r) for rec in res.intervals],
                )
                if force_off:
                    # every attempt a pole halving skips fails
                    assert len(after) == poles[0] and not any(after)
                    skipped += poles[0]
                else:
                    # one halving per pole, those of the discarded last
                    # interval unrecorded
                    halvings = sum(rec.decisions.count("halve_k_pole") for rec in res.intervals)
                    assert halvings <= poles[0]
            assert marches[False] == marches[True]
        # power2 from u0 = 1 meets a pole on the step only on the dG h
        # run at 1e-4 (on the residual's deg + 7-point rule, also on the
        # cG hp run at 10^-7.5, on its discarded last interval)
        assert skipped > 0 or make is make_power_square and not (scheme is Scheme.DG and mode is Mode.H)
