import numpy as np
import pytest

from hpgalerkin.poly import Interval, LocalPoly, gauss_legendre, l2_project


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, np.inf)
    assert Interval(0.25, 0.75).k == 0.5


class TestGaussLegendre:
    def test_one_point(self):
        q = gauss_legendre(1)
        np.testing.assert_allclose(q.nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(q.weights, [2.0])

    def test_two_point(self):
        q = gauss_legendre(2)
        np.testing.assert_allclose(q.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], rtol=1e-14)
        np.testing.assert_allclose(q.weights, [1.0, 1.0], rtol=1e-14)

    def test_five_point_on_x8(self):
        # oracle: exact antiderivative x^9/9 over [-1, 1] gives 2/9
        q = gauss_legendre(5)
        approx = float(np.dot(q.weights, q.nodes**8))
        assert abs(approx - 2.0 / 9.0) < 1e-12

    @pytest.mark.parametrize("n", range(1, 21))
    def test_exactness_up_to_2n_minus_1(self, n):
        q = gauss_legendre(n)
        for m in range(2 * n):
            exact = 0.0 if m % 2 else 2.0 / (m + 1)
            approx = float(np.dot(q.weights, q.nodes**m))
            assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_weight_sum_and_node_order(self):
        for n in (1, 2, 7, 33, 64):
            q = gauss_legendre(n)
            assert abs(q.weights.sum() - 2.0) < 1e-13
            assert np.all(np.diff(q.nodes) > 0)
            assert np.all(q.weights > 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
        with pytest.raises(ValueError):
            gauss_legendre(65)


class TestEval:
    def test_constant(self):
        p = LocalPoly.constant(Interval(-2.0, 5.0), np.array([3.0, -1.0]))
        np.testing.assert_allclose(p(0.7), [3.0, -1.0])

    def test_pure_p1_endpoint(self):
        p = LocalPoly(Interval(0.0, 2.0), np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(p(2.0), [1.0])
        np.testing.assert_allclose(p(0.0), [-1.0])

    def test_projection_reproduces_polynomial(self):
        p = l2_project(lambda t: np.array([t * t]), Interval(0.0, 1.0), 2)
        np.testing.assert_allclose(p(0.5), [0.25], atol=1e-14)

    def test_outside_interval_raises(self):
        p = LocalPoly.constant(Interval(0.0, 1.0), np.array([1.0]))
        with pytest.raises(ValueError):
            p(1.5)
        with pytest.raises(ValueError):
            p(-0.01)


class TestCalculus:
    def test_derivative_of_constant_is_zero_poly(self):
        p = LocalPoly.constant(Interval(0.0, 1.0), np.array([4.0]))
        dp = p.derivative()
        assert dp.degree == 0
        np.testing.assert_allclose(dp.coeffs, 0.0)

    def test_derivative_of_t(self):
        p = l2_project(lambda t: np.array([t]), Interval(0.0, 1.0), 1)
        np.testing.assert_allclose(p.derivative()(0.3), [1.0], atol=1e-14)

    def test_derivative_of_cubic(self):
        # q = (t^3)' evaluated at 1 must be 3
        p = l2_project(lambda t: np.array([t**3]), Interval(0.0, 2.0), 3)
        q = p.derivative()
        np.testing.assert_allclose(q(1.0), [3.0], atol=1e-12)

    def test_antiderivative_of_zero(self):
        p = LocalPoly.constant(Interval(0.0, 1.0), np.array([0.0]))
        q = p.antiderivative(np.array([2.5]))
        np.testing.assert_allclose(q(0.77), [2.5], atol=1e-15)

    def test_antiderivative_of_one(self):
        p = LocalPoly.constant(Interval(0.0, 1.0), np.array([1.0]))
        q = p.antiderivative(np.array([0.0]))
        np.testing.assert_allclose(q(1.0), [1.0], atol=1e-14)
        np.testing.assert_allclose(q(0.25), [0.25], atol=1e-14)

    def test_antiderivative_of_2t(self):
        # oracle: integral of 2t from 0 to 1 equals 1
        p = l2_project(lambda t: np.array([2 * t]), Interval(0.0, 1.0), 1)
        q = p.antiderivative(np.array([0.0]))
        np.testing.assert_allclose(q(1.0), [1.0], atol=1e-14)

    def test_round_trip_random(self, rng):
        for _ in range(50):
            a = rng.uniform(-3, 3)
            k = 10.0 ** rng.uniform(-4, 1)
            r = int(rng.integers(0, 9))
            d = int(rng.integers(1, 5))
            p = LocalPoly(Interval(a, a + k), rng.standard_normal((r + 1, d)))
            v = rng.standard_normal(d)
            q = p.antiderivative(v)
            np.testing.assert_allclose(q.derivative().coeffs, p.coeffs, atol=1e-12, rtol=1e-12)
            np.testing.assert_allclose(q(a), v, atol=1e-13 * max(1.0, np.abs(v).max()))


class TestProjection:
    def test_constant(self):
        p = l2_project(lambda t: np.array([7.0]), Interval(2.0, 3.0), 4)
        np.testing.assert_allclose(p.coeffs[0], [7.0])
        np.testing.assert_allclose(p.coeffs[1:], 0.0, atol=1e-13)

    def test_mean_of_t(self):
        p = l2_project(lambda t: np.array([t]), Interval(0.0, 1.0), 0)
        np.testing.assert_allclose(p.coeffs, [[0.5]], atol=1e-15)

    def test_t_squared_coefficients(self):
        # oracle: (t^2, P0) = 2/3 and (t^2, P1) = 0 on [-1, 1], so the
        # Legendre coefficients are [1/3, 0]
        p = l2_project(lambda t: np.array([t * t]), Interval(-1.0, 1.0), 1)
        np.testing.assert_allclose(p.coeffs[:, 0], [1.0 / 3.0, 0.0], atol=1e-15)

    def test_quadrature_too_weak(self):
        with pytest.raises(ValueError):
            l2_project(lambda t: np.array([t]), Interval(0.0, 1.0), 3, gauss_legendre(2))

    def test_custom_rule_object(self):
        # a rule not produced by gauss_legendre must still project correctly
        from hpgalerkin.poly import QuadRule

        base = gauss_legendre(6)
        custom = QuadRule(base.nodes.copy(), base.weights.copy())
        p = l2_project(lambda t: np.array([t**2 - t]), Interval(0.0, 2.0), 2, custom)
        np.testing.assert_allclose(p(1.5), [0.75], atol=1e-13)

    def test_idempotence_random(self, rng):
        for _ in range(40):
            r = int(rng.integers(0, 7))
            d = int(rng.integers(1, 5))
            iv = Interval(rng.uniform(-2, 2), rng.uniform(2.5, 4))
            p = LocalPoly(iv, rng.standard_normal((r + 1, d)))
            q = l2_project(lambda t: p(t), iv, r, gauss_legendre(r + 3))
            np.testing.assert_allclose(q.coeffs, p.coeffs, atol=1e-12, rtol=1e-12)


class TestNorms:
    def test_constant(self):
        p = LocalPoly.constant(Interval(0.0, 1.0), np.array([-2.0]))
        assert abs(p.l2_norm() - 2.0) < 1e-14
        assert p.derivative().l2_norm() == 0.0
        assert abs(p.linf_norm() - 2.0) < 1e-14

    def test_linear(self):
        # p(t) = t on (0,1): L2 = 1/sqrt(3), |p'|_L2 = 1, sup = 1
        p = l2_project(lambda t: np.array([t]), Interval(0.0, 1.0), 1)
        assert abs(p.l2_norm() - 1 / np.sqrt(3)) < 1e-13
        assert abs(p.derivative().l2_norm() - 1.0) < 1e-13
        assert abs(p.linf_norm() - 1.0) < 1e-13

    def test_zero(self):
        p = LocalPoly.constant(Interval(0.0, 1.0), np.array([0.0]), degree=3)
        assert p.l2_norm() == 0.0 and p.derivative().l2_norm() == 0.0 and p.linf_norm() == 0.0

    def test_parseval_against_quadrature(self, rng):
        # independent oracle: 64-point quadrature of |p(t)|^2
        for _ in range(25):
            r = int(rng.integers(0, 9))
            d = int(rng.integers(1, 4))
            iv = Interval(rng.uniform(-1, 0), rng.uniform(0.5, 2))
            p = LocalPoly(iv, rng.standard_normal((r + 1, d)))
            q = gauss_legendre(64)
            vals = p.at_reference(q.nodes)
            oracle = 0.5 * iv.k * float(np.dot(q.weights, np.sum(vals**2, axis=0)))
            assert abs(p.l2_norm() ** 2 - oracle) <= 1e-12 * max(1.0, oracle)

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
            dense = float(np.max(np.abs(p.at_reference(xs))))
            assert p.linf_norm() >= 0.999 * dense
