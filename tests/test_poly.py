import dataclasses
import math
import sys

import numpy as np
import pytest
from numpy.polynomial import legendre

from hpgalerkin.poly import (
    _GROWTH_EXTRA_POINTS,
    _RESIDUAL_EXTRA_POINTS,
    _STEP_EXTRA_POINTS,
    Interval,
    LocalPoly,
    _norms,
    _rule,
    _sup_norm,
    _time_map,
    basis,
)

from _oracles import (
    antiderivative,
    constant,
    derivative,
    l2_norm,
    l2_project,
    parent_node_norms,
    parent_sup_norm,
    project_values,
    residual_rule,
)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, np.inf)
    assert Interval(0.25, 0.75).k == 0.5


@pytest.mark.parametrize(
    "t_start,t_end", [(-1e308, 1e308), (-1e308, 8e307), (-sys.float_info.max, sys.float_info.max)]
)
def test_interval_length_must_be_finite(t_start, t_end):
    # finite endpoints whose length overflows: k would be inf, and the
    # reference map nan
    with pytest.raises(ValueError, match="length overflows"):
        Interval(t_start, t_end)


def test_interval_length_is_stored_once():
    # k is a field computed at construction; equality, hashing and repr
    # read the endpoints only, and replace computes the new length
    iv = Interval(0.1, 0.7)
    assert vars(iv)["k"] == 0.7 - 0.1 == iv.k
    assert repr(iv) == "Interval(t_start=0.1, t_end=0.7)"
    assert iv == Interval(0.1, 0.7) and hash(iv) == hash(Interval(0.1, 0.7))
    assert dataclasses.replace(iv, t_end=1.5).k == 1.5 - 0.1
    with pytest.raises(TypeError):
        Interval(0.1, 0.7, 0.6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        iv.k = 1.0


def test_longest_interval_maps_without_warning():
    # the longest finite length still maps and evaluates; RuntimeWarnings
    # are errors in this suite
    iv = Interval(-0.5 * sys.float_info.max, 0.5 * sys.float_info.max)
    assert iv.k == sys.float_info.max and iv.to_reference(0.0) == 0.0
    u = LocalPoly(iv, [[1.0], [1.0]])
    assert u(0.0).tolist() == [1.0] and u.linf_norm() == 2.0


def step_rule(r):
    """The Picard step's rule of basis(r), read back from its arrays: the
    nodes from the offsets nodes + 1, the weights from row 0 of the
    projection, (0 + 1/2) w_q P_0 = w_q / 2."""
    b = basis(r)
    return b.step_offsets - 1.0, 2.0 * b.step_proj[0]


def res_rule(r):
    """The residual's rule of basis(r), read back as ``step_rule``
    reads the step's."""
    b = basis(r)
    return b.res_offsets - 1.0, 2.0 * b.res_proj[0]


def grow_rule(r):
    """The growth integral's rule of basis(r), read back from its
    offsets and its weights grow_w = w_q / 2."""
    b = basis(r)
    return b.grow_offsets - 1.0, 2.0 * b.grow_w


def rules(n):
    """Every rule of the cached bases with n points: the step's rule of
    basis(n - _STEP_EXTRA_POINTS), for n >= 4 the residual's rule of
    basis(n - _RESIDUAL_EXTRA_POINTS), and for n >= 7 the growth rule of
    basis(n - _GROWTH_EXTRA_POINTS) (of every degree from 57 on at
    n = 64)."""
    found = [step_rule(n - _STEP_EXTRA_POINTS)]
    if n >= _RESIDUAL_EXTRA_POINTS:
        found.append(res_rule(n - _RESIDUAL_EXTRA_POINTS))
    if n >= _GROWTH_EXTRA_POINTS:
        found.append(grow_rule(n - _GROWTH_EXTRA_POINTS))
    return found


class TestGaussLegendre:
    """The Gauss-Legendre rules that basis(r) integrates and projects on."""

    def test_two_point(self):
        nodes, weights = step_rule(2 - _STEP_EXTRA_POINTS)
        np.testing.assert_allclose(nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], rtol=1e-14)
        np.testing.assert_allclose(weights, [1.0, 1.0], rtol=1e-14)

    def test_three_point(self):
        # the rule of the degree-1 steps every benchmark ladder starts with
        nodes, weights = step_rule(3 - _STEP_EXTRA_POINTS)
        np.testing.assert_allclose(nodes, [-np.sqrt(0.6), 0.0, np.sqrt(0.6)], rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(weights, [5 / 9, 8 / 9, 5 / 9], rtol=1e-14)

    def test_five_point_on_x8(self):
        # oracle: exact antiderivative x^9/9 over [-1, 1] gives 2/9
        nodes, weights = step_rule(5 - _STEP_EXTRA_POINTS)
        approx = float(np.dot(weights, nodes**8))
        assert abs(approx - 2.0 / 9.0) < 1e-12

    @pytest.mark.parametrize("n", range(_STEP_EXTRA_POINTS, 21))
    def test_exactness_up_to_2n_minus_1(self, n):
        for nodes, weights in rules(n):
            for m in range(2 * n):
                exact = 0.0 if m % 2 else 2.0 / (m + 1)
                approx = float(np.dot(weights, nodes**m))
                assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_weight_sum_and_node_order(self):
        for n in (2, 7, 33, 64):
            for nodes, weights in rules(n):
                assert abs(weights.sum() - 2.0) < 1e-13
                assert np.all(np.diff(nodes) > 0)
                assert np.all(weights > 0)


def lifted(iv, r, f, left):
    """The program's antiderivative of the projection: the coefficients
    k lift @ f of the degree-r lift on basis(r)'s residual rule
    (``residual_rule``), f the (n, d) values at the mapped nodes, with
    the left value added, as ``galerkin.reconstruct`` lifts on the
    step's rule."""
    coeffs = iv.k * (residual_rule(r)[2] @ f)
    coeffs[0] += left
    return LocalPoly(iv, coeffs)


def node_values(iv, r, g):
    """The (n, d) values of g, a function of one time, at the nodes of
    basis(r)'s residual rule mapped onto iv."""
    ts = _time_map(iv.t_start, iv.k, basis(r).res_offsets)
    return np.stack([np.atleast_1d(np.asarray(g(t), dtype=float)) for t in ts])


class TestEval:
    def test_constant(self):
        p = constant(Interval(-2.0, 5.0), np.array([3.0, -1.0]))
        np.testing.assert_allclose(p(0.7), [3.0, -1.0])

    def test_pure_p1_endpoint(self):
        p = LocalPoly(Interval(0.0, 2.0), np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(p(2.0), [1.0])
        np.testing.assert_allclose(p(0.0), [-1.0])

    def test_projection_reproduces_polynomial(self):
        iv = Interval(0.0, 1.0)
        p = LocalPoly(iv, residual_rule(2)[1] @ node_values(iv, 2, lambda t: t * t))
        np.testing.assert_allclose(p(0.5), [0.25], atol=1e-14)

    def test_flat_coefficients_are_one_component(self):
        p = LocalPoly(Interval(0.0, 2.0), [0.5, 1.0])
        assert p.coeffs.shape == (2, 1)
        np.testing.assert_allclose(p(2.0), [1.5])

    @pytest.mark.parametrize(
        "coeffs", [np.zeros((2, 1, 1)), np.zeros((0, 1)), np.zeros((2, 0)), np.zeros(())],
        ids=["3-d", "no-rows", "no-columns", "0-d"],
    )
    def test_badly_shaped_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match=r"coeffs must have shape \(r\+1, d\)"):
            LocalPoly(Interval(0.0, 1.0), coeffs)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            LocalPoly(Interval(0.0, 1.0), [[1.0, 0.0], [bad, 2.0]])

    def test_outside_interval_raises(self):
        p = constant(Interval(0.0, 1.0), np.array([1.0]))
        with pytest.raises(ValueError):
            p(1.5)
        with pytest.raises(ValueError):
            p(-0.01)


class TestCalculus:
    """The derivative oracle that ``reference_smoothness`` rests on, and
    the lift of ``poly._rule`` as the antiderivative of the projection."""

    def test_derivative_of_constant_is_zero_poly(self):
        p = constant(Interval(0.0, 1.0), np.array([4.0]))
        dp = derivative(p)
        assert dp.degree == 0
        np.testing.assert_allclose(dp.coeffs, 0.0)

    def test_derivative_of_t(self):
        p = l2_project(lambda t: np.array([t]), Interval(0.0, 1.0), 1)
        np.testing.assert_allclose(derivative(p)(0.3), [1.0], atol=1e-14)

    def test_derivative_of_cubic(self):
        # q = (t^3)' evaluated at 1 must be 3
        p = l2_project(lambda t: np.array([t**3]), Interval(0.0, 2.0), 3)
        q = derivative(p)
        np.testing.assert_allclose(q(1.0), [3.0], atol=1e-12)

    def test_antiderivative_of_zero(self):
        iv = Interval(0.0, 1.0)
        q = lifted(iv, 0, np.zeros((basis(0).res_offsets.size, 1)), [2.5])
        np.testing.assert_allclose(q(0.77), [2.5], atol=1e-15)

    def test_antiderivative_of_one(self):
        iv = Interval(0.0, 1.0)
        q = lifted(iv, 0, np.ones((basis(0).res_offsets.size, 1)), [0.0])
        np.testing.assert_allclose(q(1.0), [1.0], atol=1e-14)
        np.testing.assert_allclose(q(0.25), [0.25], atol=1e-14)

    def test_antiderivative_of_2t(self):
        # oracle: integral of 2t from 0 to 1 equals 1
        iv = Interval(0.0, 1.0)
        q = lifted(iv, 1, node_values(iv, 1, lambda t: 2 * t), [0.0])
        np.testing.assert_allclose(q(1.0), [1.0], atol=1e-14)

    def test_round_trip_random(self, rng):
        for _ in range(50):
            a = rng.uniform(-3, 3)
            k = 10.0 ** rng.uniform(-4, 1)
            r = int(rng.integers(0, 9))
            d = int(rng.integers(1, 5))
            p = LocalPoly(Interval(a, a + k), rng.standard_normal((r + 1, d)))
            v = rng.standard_normal(d)
            q = lifted(p.interval, r, node_values(p.interval, r, p), v)
            want = antiderivative(p, v).coeffs
            np.testing.assert_allclose(q.coeffs, want, atol=1e-12, rtol=1e-12)
            np.testing.assert_allclose(q(a), v, atol=1e-13 * max(1.0, np.abs(v).max()))


class TestProjection:
    """The projection of ``poly._rule`` on the residual's rule
    (``residual_rule``) and basis(r).step_proj, the quadrature L2
    projections."""

    def test_constant(self):
        iv = Interval(2.0, 3.0)
        coeffs = residual_rule(4)[1] @ node_values(iv, 4, lambda t: 7.0)
        np.testing.assert_allclose(coeffs[0], [7.0])
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-13)

    def test_mean_of_t(self):
        iv = Interval(0.0, 1.0)
        coeffs = residual_rule(0)[1] @ node_values(iv, 0, lambda t: t)
        np.testing.assert_allclose(coeffs, [[0.5]], atol=1e-15)

    def test_t_squared_coefficients(self):
        # oracle: (t^2, P0) = 2/3 and (t^2, P1) = 0 on [-1, 1], so the
        # Legendre coefficients are [1/3, 0]
        iv = Interval(-1.0, 1.0)
        coeffs = residual_rule(1)[1] @ node_values(iv, 1, lambda t: t * t)
        np.testing.assert_allclose(coeffs[:, 0], [1.0 / 3.0, 0.0], atol=1e-15)

    def test_idempotence_random(self, rng):
        for _ in range(40):
            r = int(rng.integers(0, 7))
            d = int(rng.integers(1, 5))
            iv = Interval(rng.uniform(-2, 2), rng.uniform(2.5, 4))
            p = LocalPoly(iv, rng.standard_normal((r + 1, d)))
            b = basis(r)
            for offsets, proj in ((b.res_offsets, residual_rule(r)[1]), (b.step_offsets, b.step_proj)):
                q = proj @ p(_time_map(iv.t_start, iv.k, offsets)).T
                np.testing.assert_allclose(q, p.coeffs, atol=1e-12, rtol=1e-12)


class TestNorms:
    """LocalPoly.linf_norm, and the Parseval L2 norm oracle that
    ``reference_smoothness`` rests on."""

    def test_constant(self):
        p = constant(Interval(0.0, 1.0), np.array([-2.0]))
        assert abs(l2_norm(p) - 2.0) < 1e-14
        assert l2_norm(derivative(p)) == 0.0
        assert abs(p.linf_norm() - 2.0) < 1e-14

    def test_linear(self):
        # p(t) = t on (0,1): L2 = 1/sqrt(3), |p'|_L2 = 1, sup = 1
        p = l2_project(lambda t: np.array([t]), Interval(0.0, 1.0), 1)
        assert abs(l2_norm(p) - 1 / np.sqrt(3)) < 1e-13
        assert abs(l2_norm(derivative(p)) - 1.0) < 1e-13
        assert abs(p.linf_norm() - 1.0) < 1e-13

    def test_zero(self):
        p = constant(Interval(0.0, 1.0), np.array([0.0]), degree=3)
        assert l2_norm(p) == 0.0 and l2_norm(derivative(p)) == 0.0 and p.linf_norm() == 0.0

    def test_parseval_against_quadrature(self, rng):
        # independent oracle: 64-point quadrature of |p(t)|^2
        for _ in range(25):
            r = int(rng.integers(0, 9))
            d = int(rng.integers(1, 4))
            iv = Interval(rng.uniform(-1, 0), rng.uniform(0.5, 2))
            p = LocalPoly(iv, rng.standard_normal((r + 1, d)))
            nodes, weights = legendre.leggauss(64)
            vals = legendre.legval(nodes, p.coeffs)
            oracle = 0.5 * iv.k * float(np.dot(weights, np.sum(vals**2, axis=0)))
            assert abs(l2_norm(p) ** 2 - oracle) <= 1e-12 * max(1.0, oracle)

    @pytest.mark.parametrize("exp", [600, -600])
    @pytest.mark.parametrize("d", [1, 2])
    def test_linf_norm_scale_free_past_squared_range(self, exp, d, rng):
        # at 2^600 the squares overflow and at 2^-600 they underflow; a
        # power of two scales the sampled norm exactly
        for r in (0, 1, 3, 8):
            iv = Interval(0.0, 0.5)
            c = rng.standard_normal((r + 1, d))
            got = LocalPoly(iv, np.ldexp(c, exp)).linf_norm()
            assert got == math.ldexp(LocalPoly(iv, c).linf_norm(), exp)

    def test_trusted_wraps_without_copy(self):
        c = np.arange(6.0).reshape(3, 2)
        u = LocalPoly._trusted(Interval(0.0, 1.0), c)
        assert u.coeffs is c and not c.flags.writeable
        assert u.degree == 2
        assert u.linf_norm() == LocalPoly(u.interval, np.arange(6.0).reshape(3, 2)).linf_norm()

    def test_sampled_linf_near_tight(self, rng):
        # 10x denser Chebyshev sampling must not beat the default grid
        # by more than 0.1%
        from hpgalerkin.poly import _LINF_SAMPLES_PER_DEGREE

        for _ in range(100):
            r = int(rng.integers(0, 9))
            iv = Interval(0.0, float(10.0 ** rng.uniform(-3, 0.5)))
            p = LocalPoly(iv, rng.standard_normal((r + 1, 1)))
            n_dense = 10 * _LINF_SAMPLES_PER_DEGREE * (p.degree + 2)
            xs = np.concatenate(
                ([-1.0, 1.0], np.cos(np.pi * (2 * np.arange(n_dense) + 1) / (2 * n_dense)))
            )
            dense = float(np.max(np.abs(legendre.legval(xs, p.coeffs))))
            assert p.linf_norm() >= 0.999 * dense


def value_draws(seed, count):
    """Seeded (n, d) arrays of values, n up to 11 points and d up to 6:
    half with every point's magnitudes within 2^+-400, where the plain
    square sums serve, half with each point at its own power of two from
    the subnormal range to past the largest double, and its values up to
    2^59 apart; a tenth of the points 0."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 7))
        low, high = (-400, 400) if i % 2 else (-1090, 1030)
        scale = rng.integers(low, high, size=(n, 1)) - rng.integers(0, 60, size=(n, d))
        vals = np.ldexp(rng.uniform(-1.0, 1.0, (n, d)), scale)
        vals[rng.random(n) < 0.1] = 0.0
        yield vals


def plain_sums_serve(vals):
    """Whether every square sum along axis 1 is a normal double."""
    sq = np.add.reduce(vals * vals, 1).tolist()
    return sys.float_info.min <= min(sq) and max(sq) < math.inf


def one_component_regimes(vals):
    """The regimes a one-component draw (n, 1) takes in the general
    formula: "plain" when the plain square sums serve, otherwise the
    kinds of value it holds that the scaled fallback takes."""
    if plain_sums_serve(vals):
        return {"plain"}
    x = np.abs(vals.ravel())
    finite = np.isfinite(x)
    kinds = {
        "subnormal": (0.0 < x) & (x < sys.float_info.min),
        "overflowing": finite & (x > math.sqrt(sys.float_info.max)),
        "inf": np.isinf(x),
        "nan": np.isnan(x),
    }
    return {kind for kind, hit in kinds.items() if hit.any()}


class TestNormPrimitives:
    """``poly._norms``, the one overflow-safe Euclidean norm, and
    ``poly._sup_norm``, its largest: the bits of the two norms they
    replaced (``_oracles.parent_node_norms``, the node norms of the
    growth integral, and ``_oracles.parent_sup_norm``), and their error
    against ``math.hypot``.  Each holds the errstate its callers hold."""

    def test_bits_equal_parent(self):
        # a fifth of the draws carry inf and nan values; both axes.  The
        # one-component draws, which return |x| (the one-component rule
        # of ``poly``), reach the plain squares and the scaled fallback
        # with every kind of value that sends a draw there
        fallback, one, rng = 0, set(), np.random.default_rng(5)
        with np.errstate(over="ignore", invalid="ignore"):
            for i, vals in enumerate(value_draws(11, 4000)):
                if i % 5 == 0:
                    special = rng.random(vals.shape)
                    vals[special < 0.05] = np.inf
                    vals[special > 0.95] = np.nan
                fallback += not plain_sums_serve(vals)
                if vals.shape[1] == 1:
                    one.update(one_component_regimes(vals))
                want = parent_node_norms(vals).tobytes()
                assert _norms(vals, 1).tobytes() == want
                assert _norms(vals.T.copy(), 0).tobytes() == want
                for axis, arr in ((1, vals), (0, vals.T)):
                    got, old = _sup_norm(arr, axis), parent_sup_norm(arr, axis)
                    assert np.float64(got).tobytes() == np.float64(old).tobytes()
        assert 1500 < fallback < 3000
        assert one == {"plain", "subnormal", "overflowing", "inf", "nan"}

    def test_against_hypot(self):
        # within d eps relative where the norm is normal, within 4 units
        # of 2^-1074 where it is subnormal, and inf exactly where hypot
        # overflows
        tiny, unit = sys.float_info.min, math.ldexp(1.0, -1074)
        kinds = set()
        with np.errstate(over="ignore", invalid="ignore"):
            for vals in value_draws(12, 4000):
                d = vals.shape[1]
                got = _norms(vals, 1).tolist()
                for axis, arr in ((1, vals), (0, vals.T)):
                    assert _sup_norm(arr, axis) == max(got)
                for norm, row in zip(got, vals.tolist()):
                    want = math.hypot(*row)
                    if want == math.inf:
                        assert norm == math.inf
                        kinds.add("inf")
                    elif want < tiny:
                        assert abs(norm - want) <= 4.0 * unit
                        kinds.add("subnormal")
                    else:
                        assert abs(norm - want) <= d * sys.float_info.epsilon * want
                        kinds.add("normal")
        assert kinds == {"inf", "subnormal", "normal"}


@pytest.mark.parametrize("r", range(65))
def test_basis(r, rng):
    b, (own_nodes, own_proj, own_lift) = basis(r), residual_rule(r)
    # the residual's rule has r + 4 points, up to 64
    n = min(r + _RESIDUAL_EXTRA_POINTS, 64)
    assert own_nodes.shape == b.res_offsets.shape == (n,)
    nodes, weights = legendre.leggauss(n)
    assert own_nodes.tobytes() == nodes.tobytes()
    assert b.res_offsets.tobytes() == (nodes + 1.0).tobytes()
    assert (2.0 * b.res_proj[0]).tobytes() == weights.tobytes()
    assert b.res_V.tobytes() == legendre.legvander(nodes, r).tobytes()
    assert b.samples_V.tobytes() == legendre.legvander(b.samples, r).tobytes()
    # its projection onto degree r is the first rows of the interpolating
    # one the basis keeps; the n-point rule cannot tell P_n from 0, so at
    # r = 64 the 64-point rule reproduces degree 63 and projects P_64 to
    # about 0
    assert b.res_proj.shape == (n, n) and b.res_lift.shape == (n + 3, n)
    q = min(r, n - 1)
    assert b.res_proj[: q + 1].tobytes() == own_proj[: q + 1].tobytes()
    c = np.zeros((r + 1, 3))
    c[: q + 1] = rng.standard_normal((q + 1, 3))
    assert np.abs(own_proj @ (b.res_V @ c) - c).max() <= 1e-13 * np.abs(c).sum(axis=0).max()
    f = rng.standard_normal((n, 2))
    oracle = project_values(f, Interval(-1.0, 1.0), q, nodes, weights)
    want = np.zeros((r + 2, 2))
    want[: q + 2] = antiderivative(oracle, np.zeros(2)).coeffs
    assert np.abs(2.0 * (own_lift @ f) - want).max() <= 1e-14 * np.abs(f).max()
    # res_lift is _rule's lift with the two tail rows res_proj[j] / (2j + 1),
    # j = n - 2 and n - 1, under it: k times their products with f are the
    # residual's tail term
    assert b.res_lift[:-2].tobytes() == _rule(n, r, n - 1)[3].tobytes()
    tail = b.res_proj[n - 2 :] / np.array([[2.0 * n - 3.0], [2.0 * n - 1.0]])
    assert b.res_lift[-2:].tobytes() == tail.tobytes()
    # the Ehlich-Zeller factors of the 24 (r + 2) Chebyshev samples
    m = 24 * (r + 2)
    assert b.sup_factor == (1.0 / math.cos(r * math.pi / (2 * m)), 1.0 / math.sqrt(math.cos(r * math.pi / m)))
    # the growth rule has r + 7 points, up to 64, with the weights w / 2
    g = min(r + _GROWTH_EXTRA_POINTS, 64)
    grow_nodes, grow_weights = legendre.leggauss(g)
    assert b.grow_offsets.tobytes() == (grow_nodes + 1.0).tobytes()
    assert b.grow_V.tobytes() == legendre.legvander(grow_nodes, r).tobytes()
    assert b.grow_w.tobytes() == (0.5 * grow_weights).tobytes()
    # the step's rule has r + 1 points and reproduces degree r as well
    s = min(r + _STEP_EXTRA_POINTS, 64)
    step_nodes, step_weights = legendre.leggauss(s)
    assert b.step_offsets.shape == (s,)
    assert b.step_offsets.tobytes() == (step_nodes + 1.0).tobytes()
    assert b.step_V.tobytes() == legendre.legvander(step_nodes, r).tobytes()
    assert np.abs(b.step_proj @ (b.step_V @ c) - c).max() <= 1e-13 * np.abs(c).sum(axis=0).max()
    f = rng.standard_normal((s, 2))
    oracle = project_values(f, Interval(-1.0, 1.0), q, step_nodes, step_weights)
    want = np.zeros((r + 2, 2))
    want[: q + 2] = antiderivative(oracle, np.zeros(2)).coeffs
    assert np.abs(2.0 * (b.step_lift @ f) - want).max() <= 1e-14 * np.abs(f).max()
    names = (
        "samples", "samples_V", "sup_factor", "step_offsets", "step_V", "step_proj",
        "step_lift", "res_offsets", "res_V", "res_proj", "res_lift", "grow_offsets",
        "grow_V", "grow_w",
    )
    assert tuple(field.name for field in dataclasses.fields(b)) == names
    for name in names:
        if name != "sup_factor":
            assert not getattr(b, name).flags.writeable, name
    assert basis(r) is b


class TestEhlichZeller:
    """``Basis.sup_factor`` times the sampled sup bounds the sup of a
    polynomial between its samples (Ehlich & Zeller, 1964)."""

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 13, 21])
    def test_factor_times_samples_bounds_the_dense_sup(self, r, d, rng):
        b = basis(r)
        xs = np.linspace(-1.0, 1.0, 200001)
        V = legendre.legvander(xs, r)
        for _ in range(20):
            c = rng.standard_normal((r + 1, d))
            # the top coefficient dominates, so the peaks lie inside
            c[-1] *= 10.0
            dense = float(np.sqrt(((V @ c) ** 2).sum(axis=1)).max())
            sampled = LocalPoly(Interval(0.0, 1.0), c).linf_norm()
            assert b.sup_factor[d > 1] * sampled >= dense


class TestTimeMap:
    """``_time_map`` on a basis's cached offsets is the map
    t_start + 0.5 k (x + 1) that ``Interval.from_reference`` always
    computed, bit for bit."""

    @staticmethod
    def formula(iv, x):
        return iv.t_start + 0.5 * iv.k * (x + 1.0)

    def test_bits_equal_formula(self, rng):
        intervals = [
            Interval(t, t + float(k))
            for t, k in zip(rng.uniform(-10.0, 10.0, 40), 10.0 ** rng.uniform(-14.0, 1.0, 40))
        ]
        # steps of 1e-14 next to t = 1, where k keeps few bits of t
        intervals += [Interval(t, t + 1e-14) for t in (1.0 - 3e-14, 1.0 - 1e-14, 1.0, 1.0 + 2e-14)]
        for iv in intervals:
            for r in (0, 1, 2, 5, 13, 30, 58, 64):
                b, nodes = basis(r), residual_rule(r)[0]
                want = self.formula(iv, nodes).tobytes()
                assert _time_map(iv.t_start, iv.k, b.res_offsets).tobytes() == want
                assert iv.from_reference(nodes).tobytes() == want
            x = float(rng.uniform(-1.0, 1.0))
            assert iv.from_reference(x) == self.formula(iv, x)
            assert iv.from_reference(b.samples).tobytes() == self.formula(iv, b.samples).tobytes()


class TestSampleCache:
    """The per-degree sup-norm sample points and their Vandermonde matrix."""

    @pytest.mark.parametrize("degree", range(65))
    def test_vandermonde_matches_legval(self, degree, rng):
        xs, V = basis(degree).samples, basis(degree).samples_V
        assert V.shape == (xs.size, degree + 1)
        c = rng.standard_normal((degree + 1, 3))
        ref = legendre.legval(xs, c).T
        assert np.abs(V @ c - ref).max() <= 1e-13 * np.abs(c).sum(axis=0).max()

    def test_read_only_and_shared(self):
        first = basis(7)
        assert basis(7) is first
        for arr in (first.samples, first.samples_V):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_linf_norm_uses_the_samples(self, rng):
        c = rng.standard_normal((6, 2))
        xs = basis(5).samples
        p = LocalPoly(Interval(0.0, 0.3), c)
        expected = np.sqrt((legendre.legval(xs, c) ** 2).sum(axis=0)).max()
        assert abs(p.linf_norm() - expected) <= 1e-14 * np.abs(c).sum()

    @pytest.mark.parametrize("degree", range(59))
    def test_coefficient_sum_is_right_endpoint_value(self, degree, rng):
        # P_i(1) = 1, so U(t_end) is the column sum of the coefficients.
        # Recursive summation errs by at most degree * eps * sum|c| from
        # the correctly rounded sum; Clenshaw's error grows with the
        # degree (about 40 ulp of sum|c| at degree 58), hence 1e-13.
        eps = np.finfo(float).eps
        for _ in range(10):
            c = rng.standard_normal((degree + 1, 3))
            iv = Interval(rng.uniform(-1.0, 1.0), rng.uniform(1.5, 3.0))
            total, scale = c.sum(axis=0), np.abs(c).sum(axis=0)
            exact = np.array([math.fsum(col) for col in c.T])
            assert np.all(np.abs(total - exact) <= degree * eps * scale)
            assert np.all(np.abs(total - LocalPoly(iv, c)(iv.t_end)) <= 1e-13 * scale)
