import math

import numpy as np
import pytest

from smoothopt.smoothing import (
    EvaluationError,
    Kernel,
    grad_estimate,
    second_moment_check,
    smoothed_value,
)


class Counter:
    """Wrap a batch objective and count evaluations (rows, not calls)."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, X):
        self.calls += len(X)
        return self.f(X)


class TestKernel:
    def test_validation(self):
        with pytest.raises(ValueError):
            Kernel("cube", 0.1)
        with pytest.raises(ValueError):
            Kernel.sphere(0.0)

    def test_sphere_directions_unit_norm(self):
        rng = np.random.default_rng(0)
        d = Kernel.sphere(1.0).sample_directions(5, 200, rng)
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)

    def test_sphere_1d_is_sign_flip(self):
        rng = np.random.default_rng(1)
        d = Kernel.sphere(1.0).sample_directions(1, 500, rng).ravel()
        assert set(np.unique(d)) == {-1.0, 1.0}
        assert 150 < (d > 0).sum() < 350

    def test_gaussian_moments(self):
        rng = np.random.default_rng(2)
        d = Kernel.gaussian(1.0).sample_directions(3, 200_000, rng)
        np.testing.assert_allclose(d.mean(axis=0), 0.0, atol=0.02)
        np.testing.assert_allclose(d.var(axis=0), 1.0, atol=0.02)

    def test_ball_draws_inside_unit_ball(self):
        rng = np.random.default_rng(3)
        z = Kernel.sphere(1.0).sample_smoothing_points(4, 5000, rng)
        norms = np.linalg.norm(z, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
        # radii are not concentrated on the shell: E||z|| = n/(n+1)
        assert norms.mean() == pytest.approx(4.0 / 5.0, abs=0.01)

    def test_seeded_draws_reproducible(self):
        a = Kernel.gaussian(1.0).sample_directions(2, 1, np.random.default_rng(42))
        b = Kernel.gaussian(1.0).sample_directions(2, 1, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


    def test_sphere_redraws_a_zero_row_in_place(self):
        # a chunk of directions with one exact all-zero normal row: the row is
        # re-drawn after the whole chunk, and every other row keeps its place
        first = np.random.default_rng(6).standard_normal((12, 3))
        first[5] = 0.0

        class ZeroRowStream:
            """Returns `first`, then rows of 2.0 for every re-draw."""

            def __init__(self):
                self.shapes = []

            def standard_normal(self, shape, out=None):
                self.shapes.append(shape)
                g = first.copy() if len(self.shapes) == 1 else np.full(shape, 2.0)
                if out is None:
                    return g
                out[...] = g
                return out

        stream = ZeroRowStream()
        d = Kernel.sphere(1.0).sample_directions(3, 12, stream)
        assert d.shape == (12, 3)
        assert stream.shapes == [(12, 3), (1, 3)]
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-15)
        keep = np.arange(12) != 5
        np.testing.assert_array_equal(
            d[keep], first[keep] / np.linalg.norm(first[keep], axis=1, keepdims=True))
        np.testing.assert_array_equal(d[5], np.full(3, 2.0) / np.linalg.norm(np.full(3, 2.0)))


class TestGradEstimate:
    def test_constant_function_gives_exact_zero(self):
        rng = np.random.default_rng(4)
        for variant in ("sphere", "gaussian"):
            eta = grad_estimate(lambda X: np.full(len(X), 3.5), np.zeros(3), Kernel(variant, 0.2),
                                8, rng)
            np.testing.assert_array_equal(eta, np.zeros(3))

    def test_abs_at_origin_gives_exact_zero(self):
        # |h*eta| - |-h*eta| = 0 for every sample
        rng = np.random.default_rng(5)
        eta = grad_estimate(lambda X: np.abs(X[:, 0]), np.zeros(1),
                            Kernel.gaussian(0.3), 64, rng)
        np.testing.assert_array_equal(eta, np.zeros(1))

    def test_square_1d_gaussian_unbiased(self):
        # each sample is 2*eta^2 with mean 2 = dF_h/dx at x=1 (F_h = x^2 + h^2)
        rng = np.random.default_rng(6)
        K = 200_000
        eta = grad_estimate(lambda X: X[:, 0] ** 2, np.ones(1),
                            Kernel.gaussian(0.5), K, rng)
        se = math.sqrt(8.0 / K)  # Var(2 eta^2) = 8
        assert abs(eta[0] - 2.0) <= 4 * se  # the Gaussian gradient scale is 1

    def test_sphere_1d_is_exact_derivative_of_smoothed(self):
        # in 1-D the sphere estimator reduces to (F(x+h) - F(x-h)) / (2h)
        eta = grad_estimate(lambda X: X[:, 0] ** 2, np.array([1.5]),
                            Kernel.sphere(0.25), 4, np.random.default_rng(7))
        assert eta[0] == pytest.approx(3.0, abs=1e-12)  # the sphere scale n is 1

    def test_linear_sphere_unbiased(self):
        rng = np.random.default_rng(8)
        c = np.array([1.0, -2.0, 0.5])
        K = 100_000
        kernel = Kernel.sphere(0.1)
        eta = grad_estimate(lambda X: X @ c, np.zeros(3), kernel, K, rng)
        # n * (c.y) y has mean c; componentwise spread is below ||c||
        np.testing.assert_allclose(kernel.gradient_scale(3) * eta, c,
                                   atol=5 * np.linalg.norm(c) / math.sqrt(K) * 3)

    def test_unbiased_gradient_scaling_relation(self):
        # the factor that turns the direction into the unbiased gradient
        assert Kernel.sphere(0.2).gradient_scale(4) == 4.0
        assert Kernel.gaussian(0.2).gradient_scale(4) == 1.0

    def test_exact_evaluation_count(self):
        counter = Counter(lambda X: X[:, 0])
        grad_estimate(counter, np.zeros(2), Kernel.sphere(0.1), 7,
                      np.random.default_rng(10))
        assert counter.calls == 14

    def test_nonfinite_value_raises_with_probe_point(self):
        def f(X):
            return np.where(X[:, 0] > 0.5, np.nan, 0.0)

        with pytest.raises(EvaluationError) as err:
            grad_estimate(f, np.array([0.5]), Kernel.gaussian(0.3), 50,
                          np.random.default_rng(12))
        assert err.value.point.shape == (1,)


class TestSmoothedValue:
    def test_constant(self):
        value, se = smoothed_value(lambda X: np.full(len(X), 2.25), np.zeros(2),
                                   Kernel.gaussian(1.0), 50, np.random.default_rng(14))
        assert value == 2.25
        assert se == 0.0

    def test_abs_gaussian_closed_form(self):
        # E|h*eta| = h * sqrt(2/pi)
        h = 0.7
        value, se = smoothed_value(lambda X: np.abs(X[:, 0]), np.zeros(1),
                                   Kernel.gaussian(h), 40_000, np.random.default_rng(15))
        assert abs(value - h * math.sqrt(2 / math.pi)) <= 4 * se

    def test_abs_ball_closed_form(self):
        # ball kernel in 1-D is uniform on [-h, h]: E|y| = h/2
        h = 0.6
        value, se = smoothed_value(lambda X: np.abs(X[:, 0]), np.zeros(1),
                                   Kernel.sphere(h), 40_000, np.random.default_rng(16))
        assert abs(value - h / 2) <= 4 * se

    def test_exact_evaluation_count(self):
        counter = Counter(lambda X: X[:, 0])
        smoothed_value(counter, np.zeros(3), Kernel.sphere(0.5), 321,
                       np.random.default_rng(17))
        assert counter.calls == 321

    def test_jensen_bound_for_convex_f(self):
        rng = np.random.default_rng(18)
        f = lambda X: np.abs(X).sum(axis=-1)
        for variant in ("sphere", "gaussian"):
            for _ in range(10):
                x = rng.uniform(-1, 1, size=3)
                value, se = smoothed_value(f, x, Kernel(variant, 0.5), 4000, rng)
                assert value >= f(x[None])[0] - 4 * se

    def test_uniform_approximation_ball(self):
        # |F_h(x) - F(x)| <= L*h for the ball kernel and L-Lipschitz F
        rng = np.random.default_rng(19)
        f = lambda X: np.abs(X).sum(axis=-1)
        L, h = math.sqrt(3.0), 0.3
        for _ in range(10):
            x = rng.uniform(-1, 1, size=3)
            value, se = smoothed_value(f, x, Kernel.sphere(h), 4000, rng)
            assert abs(value - f(x[None])[0]) <= L * h + 4 * se

    def test_determinism(self):
        f = lambda X: np.sin(X).sum(axis=-1)
        a = smoothed_value(f, np.ones(2), Kernel.gaussian(0.8), 100,
                           np.random.default_rng(20))
        b = smoothed_value(f, np.ones(2), Kernel.gaussian(0.8), 100,
                           np.random.default_rng(20))
        assert a == b


class TestSecondMoment:
    def test_constant_is_zero(self):
        m = second_moment_check(lambda X: np.ones(len(X)), np.zeros(3), Kernel.sphere(0.1), 100,
                                np.random.default_rng(21))
        assert m == 0.0

    def test_linear_sphere_attains_L2_over_n(self):
        # single sample is (c.y)^2 with mean ||c||^2 / n: C = 1 is tight
        rng = np.random.default_rng(22)
        n, L = 5, 3.0
        c = rng.standard_normal(n)
        c *= L / np.linalg.norm(c)
        f = lambda X: np.asarray(X) @ c
        m = second_moment_check(f, np.zeros(n), Kernel.sphere(0.05), 300_000, rng)
        assert m == pytest.approx(L ** 2 / n, rel=0.02)

    def test_l1_gaussian_below_safe_bound(self):
        # exact value away from kinks is (n+2) L^2; (n+4) L^2 always holds
        rng = np.random.default_rng(23)
        n = 4
        L = math.sqrt(n)
        f = lambda X: np.abs(np.asarray(X)).sum(axis=-1)
        m = second_moment_check(f, np.full(n, 1.0), Kernel.gaussian(0.05), 200_000, rng)
        assert m == pytest.approx((n + 2) * L ** 2, rel=0.03)
        assert m <= (n + 4) * L ** 2

    def test_exact_evaluation_count(self):
        counter = Counter(lambda X: X[:, 0])
        second_moment_check(counter, np.zeros(2), Kernel.gaussian(0.2), 11,
                            np.random.default_rng(24))
        assert counter.calls == 22
