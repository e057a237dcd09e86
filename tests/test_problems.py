import dataclasses
import math

import numpy as np
import pytest

from hpgalerkin.adapt import AdaptConfig, Mode, hp_adapt
from hpgalerkin.estimator import _growth_factory
from hpgalerkin.galerkin import Scheme
from hpgalerkin.poly import Interval
from hpgalerkin.problems import (
    NumericOverflow,
    Problem,
    builtin_problem,
    lip_at,
    make_exponential,
    make_linear,
    make_power_square,
    rhs_at,
)

from _oracles import constant

ALL_BUILTINS = [make_power_square(1.0), make_exponential(1.0), make_linear(-2.0, [1.0])]


class TestPowerSquare:
    def test_exact_midway(self):
        p = make_power_square(1.0)
        np.testing.assert_allclose(p.exact(0.5), [2.0])

    def test_blowup_time(self):
        assert make_power_square(1.0).t_blowup == 1.0
        assert make_power_square(2.0).t_blowup == 0.5

    def test_requires_positive_u0(self):
        with pytest.raises(ValueError):
            make_power_square(0.0)
        with pytest.raises(ValueError):
            make_power_square(-1.0)


class TestInitialValue:
    @pytest.mark.parametrize("u0", [[], [math.inf], [1.0, math.nan], [-math.inf, 0.0]])
    def test_empty_or_nonfinite_u0_rejected(self, u0):
        with pytest.raises(ValueError, match="u0 must be a nonempty vector of finite numbers"):
            Problem(dim=len(u0), u0=u0, f=lambda t, u: u, lip=lambda t, a, b: 1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_linear(1.0, []),
            lambda: make_linear(1.0, [1e300 * 1e300]),
            lambda: make_power_square(math.inf),
        ],
        ids=["linear-empty", "linear-inf", "power2-inf"],
    )
    def test_builtins_reject_bad_u0(self, make):
        with pytest.raises(ValueError, match="u0 must be a nonempty vector of finite numbers"):
            make()

    @pytest.mark.parametrize("u0", [[1.0, 2.0], [[1.0]], [[1.0], [2.0]]], ids=repr)
    def test_u0_shape_must_match_dim(self, u0):
        with pytest.raises(ValueError, match=r"u0 must have shape \(1,\)"):
            Problem(dim=1, u0=u0, f=lambda t, u: u, lip=lambda t, a, b: 1.0)

    def test_exp_u0_keeps_blowup_time_in_range(self):
        assert make_exponential(709.0).t_blowup > 0.0
        assert math.isfinite(make_exponential(-709.0).t_blowup)
        for u0 in (709.5, -710.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"\|u0\| <= 709"):
                make_exponential(u0)


class TestDim:
    """dim is an integer, stored as an int: a bool or an integral float
    would pass the shape test of u0, and a float dim makes every dofs
    count a float."""

    @pytest.mark.parametrize("dim", [True, 1.0, 1.5, "1", None], ids=repr)
    def test_non_integer_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be an integer"):
            Problem(dim=dim, u0=[1.0], f=lambda t, u: u * u, lip=lambda t, a, b: a + b)

    def test_dofs_are_ints(self):
        p = Problem(dim=np.int64(1), u0=[1.0], f=lambda t, u: u * u, lip=lambda t, a, b: a + b)
        assert type(p.dim) is int
        cfg = AdaptConfig(scheme=Scheme.CG, mode=Mode.HP, r_init=1, k_init=0.15, tol_star=1e-4)
        res = hp_adapt(p, cfg)
        assert res.M > 0 and type(res.dofs) is int
        assert all(type(rec.dofs) is int for rec in res.intervals)


class TestExponential:
    def test_blowup_time(self):
        assert abs(make_exponential(1.0).t_blowup - math.exp(-1.0)) < 1e-15
        assert make_exponential(0.0).t_blowup == 1.0

    def test_initial_value(self):
        np.testing.assert_allclose(make_exponential(1.0).exact(0.0), [1.0])

    def test_overflow_is_flagged(self):
        # past u = 709.78 f and lip give inf, under the errstate their
        # callers hold; the callers read overflow from their sums
        p = make_exponential(1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert p.f(0.0, np.array([709.0, 800.0])).tolist() == [math.exp(709.0), math.inf]
            assert p.lip(0.0, 800.0, 0.0) == math.inf


class TestLinear:
    def test_lambda_zero(self):
        p = make_linear(0.0, [3.0])
        for t in (0.0, 0.4, 2.0):
            np.testing.assert_allclose(p.exact(t), [3.0])

    def test_scalar_exponential(self):
        np.testing.assert_allclose(make_linear(1.0, [1.0]).exact(1.0), [math.e])
        np.testing.assert_allclose(make_linear(-2.0, [1.0]).exact(0.5), [math.exp(-1.0)])

    def test_no_blowup(self):
        assert make_linear(5.0, [1.0]).t_blowup is None

    def test_vector_valued(self):
        p = make_linear(0.5, [1.0, -2.0])
        assert p.dim == 2
        np.testing.assert_allclose(p.f(0.0, np.array([2.0, 4.0])), [1.0, 2.0])

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_non_finite_lam_rejected(self, lam):
        # an infinite lam made every step diverge, and the march ended at
        # k_min with no interval instead of naming the parameter
        with pytest.raises(ValueError, match="linear problem requires a finite lam"):
            make_linear(lam, [1.0])


class TestLipIntegral:
    """The envelope integral int_I lip(s, a, b) ds as phi evaluates it:
    a constant reconstruction b with psi = a - b and delta = 1 gives
    the growth E = exp(integral) = phi + 1."""

    @staticmethod
    def envelope_integral(p, iv, a, b):
        u_hat = constant(iv, np.full(p.dim, b))
        return math.log(_growth_factory(p, iv, u_hat, a - b)(1.0))

    def test_constant_envelope(self):
        p = make_linear(-3.0, [1.0])
        val = self.envelope_integral(p, Interval(0.2, 0.7), 2.5, 2.0)
        assert abs(val - 3.0 * 0.5) < 1e-14

    def test_power_square_envelope(self):
        # (3 + 1) * 0.25 = 1
        p = make_power_square(1.0)
        val = self.envelope_integral(p, Interval(0.0, 0.25), 3.0, 1.0)
        assert abs(val - 1.0) < 1e-14

    def test_exponential_envelope_at_zero(self):
        # (e^0 + e^0) / 2 * 1 = 1
        p = make_exponential(1.0)
        val = self.envelope_integral(p, Interval(0.0, 1.0), 0.0, 0.0)
        assert abs(val - 1.0) < 1e-14

    def test_overflow_reported(self):
        # an envelope beyond double range reads as phi = +inf (no
        # certificate), under the errstate solve_delta holds
        p = make_exponential(1.0)
        u_hat = constant(Interval(0.0, 1.0), [0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            assert _growth_factory(p, Interval(0.0, 1.0), u_hat, 800.0)(1.0) == math.inf


class TestEnvelopeConsistency:
    @pytest.mark.parametrize("p", ALL_BUILTINS, ids=lambda p: p.name)
    def test_lipschitz_bound_holds(self, p, rng):
        vs = rng.uniform(-10.0, 10.0, size=(10_000, 2))
        for v1, v2 in vs:
            lhs = abs(float(p.f(0.0, np.array([v1]))[0] - p.f(0.0, np.array([v2]))[0]))
            rhs = p.lip(0.0, abs(v1), abs(v2)) * abs(v1 - v2)
            assert lhs <= rhs * (1.0 + 1e-12)

    @pytest.mark.parametrize("p", ALL_BUILTINS, ids=lambda p: p.name)
    def test_envelope_monotone(self, p, rng):
        for _ in range(200):
            t = rng.uniform(0, 1)
            a, b = rng.uniform(0, 20, size=2)
            da, db = rng.uniform(0, 5, size=2)
            assert p.lip(t, a + da, b) >= p.lip(t, a, b)
            assert p.lip(t, a, b + db) >= p.lip(t, a, b)


class TestExactSolutions:
    @pytest.mark.parametrize(
        "p,t_max",
        [
            (make_power_square(1.0), 0.8),
            (make_exponential(1.0), 0.8 * math.exp(-1.0)),
            (make_linear(1.0, [1.0]), 1.0),
        ],
        ids=["power2", "exp", "linear"],
    )
    def test_exact_satisfies_ode(self, p, t_max, rng):
        h = 1e-6
        for t in rng.uniform(h, t_max, size=100):
            fd = (p.exact(t + h) - p.exact(t - h)) / (2 * h)
            f = p.f(t, p.exact(t))
            np.testing.assert_allclose(fd, f, rtol=1e-5)

    def test_blowup_growth(self):
        p = make_power_square(1.0)
        assert abs(p.exact(p.t_blowup * (1 - 1e-6))[0]) > 1e5
        q = make_exponential(1.0)
        assert q.exact(q.t_blowup * (1 - 1e-6))[0] > 13.0


CONTRACT_CASES = [
    (make_power_square(1.0), 0.95),
    (make_exponential(1.0), 0.95 * math.exp(-1.0)),
    (make_linear(-2.0, [1.0]), 3.0),
    (make_linear(0.7, [1.0, -2.0, 0.5]), 3.0),
]
CONTRACT_IDS = ["power2", "exp", "linear-d1", "linear-d3"]


class TestExactContract:
    """exact maps a scalar time to (d,) and times (n,) to (d, n)."""

    @pytest.mark.parametrize("p,t_max", CONTRACT_CASES, ids=CONTRACT_IDS)
    def test_scalar_shape(self, p, t_max):
        for t in (0.0, 0.5 * t_max, np.float64(t_max)):
            assert np.shape(p.exact(t)) == (p.dim,)

    @pytest.mark.parametrize("p,t_max", CONTRACT_CASES, ids=CONTRACT_IDS)
    def test_array_equals_stacked_scalar_calls(self, p, t_max, rng):
        for n in (1, 7, 98):
            ts = np.sort(rng.uniform(0.0, t_max, size=n))
            vals = p.exact(ts)
            assert vals.shape == (p.dim, n)
            stacked = np.stack([p.exact(t) for t in ts], axis=1)
            np.testing.assert_array_equal(vals, stacked)


def without_batch(p):
    return dataclasses.replace(p, f_batch=None, lip_batch=None)


class TestScalarFallback:
    """rhs_at/lip_at on a problem given by scalar f and lip only."""

    @pytest.mark.parametrize(
        "p",
        ALL_BUILTINS + [make_linear(0.7, [1.0, -2.0, 0.5])],
        ids=["power2", "exp", "linear-d1", "linear-d3"],
    )
    def test_same_bits_as_batch(self, p, rng):
        for n in (1, 11, 64):
            ts = np.sort(rng.uniform(0.0, 0.3, size=n))
            us = rng.uniform(-3.0, 3.0, size=(n, p.dim))
            a, b = rng.uniform(0.0, 5.0, size=(2, n))
            scalar = without_batch(p)
            np.testing.assert_array_equal(rhs_at(scalar, ts, us), rhs_at(p, ts, us))
            np.testing.assert_array_equal(lip_at(scalar, ts, a, b), lip_at(p, ts, a, b))

    def test_argument_types(self):
        # t, a and b arrive as Python floats, u as a row of the states
        seen = []

        def f(t, u):
            seen.append((type(t), type(u), np.shape(u)))
            return u

        def lip(t, a, b):
            seen.append((type(t), type(a), type(b)))
            return 1.0

        p = Problem(dim=2, u0=[1.0, 0.0], f=f, lip=lip)
        ts = np.array([0.0, 0.1])
        rhs_at(p, ts, np.ones((2, 2)))
        lip_at(p, ts, np.ones(2), np.ones(2))
        assert seen == [(float, np.ndarray, (2,))] * 2 + [(float, float, float)] * 2

    def test_scalar_accepted_in_one_dimension(self):
        p = Problem(dim=1, u0=[1.0], f=lambda t, u: float(u[0]) ** 2, lip=lambda t, a, b: a + b)
        ts = np.array([0.0, 0.1, 0.2])
        us = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(rhs_at(p, ts, us), [[1.0], [4.0], [9.0]])

    @pytest.mark.parametrize(
        "f",
        [lambda t, u: 1.0, lambda t, u: np.array([1.0]), lambda t, u: np.ones((2, 1))],
        ids=["scalar", "length-1", "column"],
    )
    def test_wrong_shape_raises_in_two_dimensions(self, f):
        # a scalar or a length-1 row must not broadcast into the (2,) row
        p = Problem(dim=2, u0=[1.0, 0.0], f=f, lip=lambda t, a, b: 1.0)
        with pytest.raises(ValueError, match=r"expected \(2,\)"):
            rhs_at(p, np.array([0.0, 0.1]), np.ones((2, 2)))

    def test_overflow_reported(self):
        # rhs_at and lip_at hand overflow to their callers, which hold the
        # errstate (as here) and read it from their sums; a scalar f or
        # lip may raise NumericOverflow itself
        def lip(t, a, b):
            if a > 709.0 or b > 709.0:
                raise NumericOverflow("exp Lipschitz envelope overflowed")
            return 0.5 * (math.exp(a) + math.exp(b))

        p = without_batch(make_power_square(1.0))
        q = dataclasses.replace(without_batch(make_exponential(1.0)), lip=lip)
        with np.errstate(over="ignore", invalid="ignore"):
            assert rhs_at(p, np.array([0.0]), np.array([[1e200]])).tolist() == [[math.inf]]
            with pytest.raises(NumericOverflow):
                lip_at(q, np.zeros(1), np.array([1e3]), np.zeros(1))

    def test_mixed_scalar_and_row_in_one_dimension(self):
        p = Problem(
            dim=1,
            u0=[1.0],
            f=lambda t, u: float(u[0]) ** 2 if t < 0.15 else np.array([u[0] ** 2]),
            lip=lambda t, a, b: a + b,
        )
        ts = np.array([0.0, 0.1, 0.2])
        us = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(rhs_at(p, ts, us), [[1.0], [4.0], [9.0]])

    @pytest.mark.parametrize(
        "bad",
        [lambda u: 1.0, lambda u: np.ones(3), lambda u: np.ones((2, 1))],
        ids=["scalar", "length-3", "column"],
    )
    def test_ragged_rows_raise_in_two_dimensions(self, bad):
        # one good (2,) row among rows of another shape
        p = Problem(
            dim=2, u0=[1.0, 0.0], f=lambda t, u: u if t < 0.05 else bad(u), lip=lambda t, a, b: 1.0
        )
        with pytest.raises(ValueError, match=r"expected \(2,\)"):
            rhs_at(p, np.array([0.0, 0.1]), np.ones((2, 2)))


class TestRhsShape:
    """rhs_at takes values of the states' shape (n, d) only from f_batch."""

    @pytest.mark.parametrize(
        "bad",
        [lambda us: us[:, 0], lambda us: us.T, lambda us: us[:1], lambda us: 2.0],
        ids=["flat", "transposed", "one-row", "scalar"],
    )
    def test_batch(self, bad):
        p = dataclasses.replace(make_power_square(1.0), f_batch=lambda ts, us: bad(us))
        with pytest.raises(ValueError, match=r"right-hand side returned shape .*expected \(3, 1\)"):
            rhs_at(p, np.zeros(3), np.ones((3, 1)))


class TestLipShape:
    """lip_at takes values of shape (n,) only, from lip_batch and from a
    scalar lip, and names the envelope otherwise, as rhs_at names f."""

    MATCH = r"Lipschitz envelope lip returned .*\(3,\)"

    @pytest.mark.parametrize(
        "bad",
        [lambda v: 2.0, lambda v: v[:, None], lambda v: v[None, :], lambda v: v[:1]],
        ids=["scalar", "column", "row", "length-1"],
    )
    def test_batch(self, bad):
        p = dataclasses.replace(make_power_square(1.0), lip_batch=lambda ts, a, b: bad(a + b))
        with pytest.raises(ValueError, match=self.MATCH):
            lip_at(p, np.zeros(3), np.ones(3), np.ones(3))

    @pytest.mark.parametrize(
        "lip",
        [
            lambda t, a, b: np.array([a + b]),
            lambda t, a, b: [a + b],
            lambda t, a, b: a + b if t < 0.05 else [a + b],
        ],
        ids=["length-1-array", "list", "mixed"],
    )
    def test_scalar(self, lip):
        p = dataclasses.replace(without_batch(make_power_square(1.0)), lip=lip)
        with pytest.raises(ValueError, match=self.MATCH):
            lip_at(p, np.linspace(0.0, 0.1, 3), np.ones(3), np.ones(3))

    @pytest.mark.parametrize("batch", [True, False], ids=["lip_batch-scalar", "lip-list"])
    def test_driver_reports_envelope(self, batch):
        # the driver's first delta solve meets the bad envelope
        p = make_power_square(1.0)
        if batch:
            p = dataclasses.replace(p, lip_batch=lambda ts, a, b: 2.0)
        else:
            p = dataclasses.replace(without_batch(p), lip=lambda t, a, b: [a + b])
        cfg = AdaptConfig(scheme=Scheme.CG, mode=Mode.HP, r_init=1, k_init=0.15, tol_star=1e-6)
        with pytest.raises(ValueError, match=r"Lipschitz envelope lip returned shape"):
            hp_adapt(p, cfg)


class TestBuiltinLookup:
    def test_names(self):
        assert builtin_problem("power2", u0=2.0).t_blowup == 0.5
        assert builtin_problem("exp", u0=0.0).t_blowup == 1.0
        assert builtin_problem("linear", lam=0.0, u0=[1.0, 2.0]).dim == 2
        assert builtin_problem("linear").u0.tolist() == [1.0]

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown problem"):
            builtin_problem("mystery")

    def test_unknown_parameter(self):
        # a misspelt key must not fall back to the default silently
        with pytest.raises(ValueError, match=r"'uO' for problem 'power2'; accepted: u0"):
            builtin_problem("power2", uO=2.0)
        with pytest.raises(ValueError, match=r"'bogus' for problem 'linear'; accepted: lam, u0"):
            builtin_problem("linear", lam=1.0, bogus=3)
