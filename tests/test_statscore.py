"""Tests for the distribution / special-function layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, log_ndtr
from scipy.stats import chi2, multivariate_normal, wishart

from mddkit.errors import NumericError
from mddkit.statscore import (
    GammaParams,
    MatricNormalParams,
    MvNormalParams,
    TruncNormalParams,
    WishartParams,
    chi_square_quantile,
    inverse_mills,
    ln_multivariate_gamma,
    ln_parabolic_cylinder_d,
    log_sum_exp,
    make_rng,
    quadrature_1d,
    safe_cholesky,
)


class TestLogSumExp:
    def test_single_element(self):
        assert log_sum_exp([0.0]) == 0.0

    def test_shift_invariance_at_large_magnitude(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)

    def test_small_magnitude_sum(self):
        # direct summation oracle: e^0 + e^{ln 3} = 4
        assert log_sum_exp([0.0, math.log(3.0)]) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    def test_neg_inf_entries_are_zeros(self):
        assert log_sum_exp([-np.inf, 0.0]) == pytest.approx(0.0, abs=1e-15)
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30),
           st.floats(-1e6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_shift_property(self, values, c):
        base = log_sum_exp(values)
        shifted = log_sum_exp(np.asarray(values) + c)
        assert shifted == pytest.approx(base + c, abs=1e-9 * max(1.0, abs(base + c)))


class TestLnMultivariateGamma:
    def test_scalar_gamma_half(self):
        assert ln_multivariate_gamma(1, 0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-12)

    def test_dim_two_product_formula(self):
        # hand expansion: (1/2) ln pi + ln G(2) + ln G(1.5)
        expected = 0.5 * math.log(math.pi) + math.lgamma(2.0) + math.lgamma(1.5)
        assert ln_multivariate_gamma(2, 2.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.451583, abs=5e-6)

    def test_gamma_one_is_zero(self):
        assert ln_multivariate_gamma(1, 1.0) == 0.0

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            ln_multivariate_gamma(3, 1.0)

    def test_reduces_to_lgamma_on_grid(self):
        for x in np.linspace(0.1, 20.0, 40):
            assert ln_multivariate_gamma(1, float(x)) == pytest.approx(math.lgamma(x), rel=1e-13)


class TestInverseMills:
    def test_at_zero(self):
        assert inverse_mills(0.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)

    def test_far_right_tail(self):
        # high-precision reference (mpmath, 30 digits): phi(10)/Phi(10)
        assert inverse_mills(10.0) == pytest.approx(7.694598626706419e-23, rel=1e-10)

    def test_deep_left_tail(self):
        # asymptotic cross-check: m(-10) ~ 10.098
        assert inverse_mills(-10.0) == pytest.approx(10.09809323396224, rel=1e-10)

    def test_continuity_at_branch_point(self):
        lo, hi = inverse_mills(-8.0 - 1e-9), inverse_mills(-8.0 + 1e-9)
        assert lo == pytest.approx(hi, rel=1e-9)

    def test_vectorized(self):
        xs = np.array([-30.0, -8.5, -1.0, 0.0, 3.0])
        out = inverse_mills(xs)
        for x, o in zip(xs, out):
            assert o == pytest.approx(inverse_mills(float(x)), rel=1e-12)


class TestParabolicCylinder:
    def test_order_zero_closed_form(self):
        for x in [-3.0, 0.0, 1.7, 8.0]:
            assert ln_parabolic_cylinder_d(0.0, x) == x * x / -4.0

    def test_order_one_at_zero(self):
        # D_{-1}(0) = sqrt(pi/2)
        assert ln_parabolic_cylinder_d(1.0, 0.0) == pytest.approx(
            math.log(math.sqrt(math.pi / 2.0)), abs=1e-10)
        assert math.log(math.sqrt(math.pi / 2.0)) == pytest.approx(0.225791, abs=5e-7)

    def test_order_one_identity_across_range(self):
        # D_{-1}(x) = e^{x^2/4} sqrt(2 pi) Phi(-x)
        for x in np.linspace(-5.0, 5.0, 21):
            lhs = ln_parabolic_cylinder_d(1.0, float(x))
            rhs = x * x / 4.0 + 0.5 * math.log(2.0 * math.pi) + log_ndtr(-x)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_against_high_resolution_trapezoid(self):
        # independent oracle: brute trapezoid of the integral representation
        v, x = 2.5, 1.3
        t = np.linspace(1e-12, 60.0, 4_000_001)
        vals = (v - 1.0) * np.log(t) - 0.5 * t * t - x * t
        integral = np.trapezoid(np.exp(vals - vals.max()), t) * math.exp(0.0)
        oracle = -x * x / 4.0 - math.lgamma(v) + math.log(integral) + vals.max()
        assert ln_parabolic_cylinder_d(v, x) == pytest.approx(oracle, abs=1e-9)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            ln_parabolic_cylinder_d(-0.5, 1.0)


class TestChiSquareQuantile:
    def test_printed_table_value(self):
        assert chi_square_quantile(1, 0.95) == pytest.approx(3.841459, abs=1e-6)

    def test_exponential_closed_form(self):
        assert chi_square_quantile(2, 0.95) == pytest.approx(-2.0 * math.log(0.05), abs=1e-9)

    def test_median_dof_seven(self):
        assert chi_square_quantile(7, 0.5) == pytest.approx(6.345811, abs=1e-6)

    def test_roundtrip_with_regularized_gamma(self):
        for dof in [1, 2, 5, 30]:
            for p in [0.01, 0.25, 0.5, 0.9, 0.999]:
                x = chi_square_quantile(dof, p)
                assert gammainc(dof / 2.0, x / 2.0) == pytest.approx(p, abs=1e-9)

    def test_matches_scipy(self):
        assert chi_square_quantile(9, 0.95) == pytest.approx(chi2.ppf(0.95, 9), rel=1e-10)

    def test_bad_prob_raises(self):
        with pytest.raises(ValueError):
            chi_square_quantile(3, 1.0)


class TestQuadrature:
    def test_exponential_integral(self):
        assert quadrature_1d(lambda t: -t, 0.0, np.inf) == pytest.approx(0.0, abs=1e-12)

    def test_rayleigh_integral(self):
        assert quadrature_1d(lambda t: np.log(t) - 0.5 * t * t, 0.0, np.inf) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_function(self):
        got = quadrature_1d(lambda t: 2.7 * np.log(t) - t, 0.0, np.inf)
        assert got == pytest.approx(math.lgamma(3.7), abs=1e-10)

    def test_endpoint_singularity(self):
        got = quadrature_1d(lambda t: -0.5 * np.log(t), 0.0, 1.0)
        assert got == pytest.approx(math.log(2.0), abs=1e-10)

    def test_finite_interval(self):
        got = quadrature_1d(lambda t: t, 2.0, 5.0)
        assert got == pytest.approx(math.log(math.exp(5.0) - math.exp(2.0)), abs=1e-12)

    def test_nonconvergence_raises_with_estimate(self):
        rng = np.random.default_rng(0)
        noisy = lambda t: np.log(1.0 + 0.2 * rng.standard_normal(t.shape) ** 2)
        with pytest.raises(NumericError):
            quadrature_1d(noisy, 0.0, 1.0, tol=1e-14, max_levels=4)


class TestBatchedQuadrature:
    SHAPES = np.array([0.4, 1.0, 2.7, 6.0])

    def test_rows_equal_scalar_calls(self):
        a = self.SHAPES[:, None]
        batched = quadrature_1d(lambda t: (a - 1.0) * np.log(t) - t, 0.0, np.inf)
        assert batched.shape == (4,)
        for shape, got in zip(self.SHAPES, batched):
            one = quadrature_1d(lambda t: (shape - 1.0) * np.log(t) - t, 0.0, np.inf)
            assert got == pytest.approx(one, rel=1e-12, abs=0.0)
            assert got == pytest.approx(math.lgamma(shape), abs=1e-9)

    def test_two_dimensional_batch_on_finite_interval(self):
        scale = np.array([[0.5, 1.0, 2.0], [3.0, -1.0, 0.1]])
        batched = quadrature_1d(lambda t: scale[..., None] * t, 2.0, 5.0)
        assert batched.shape == (2, 3)
        for idx in np.ndindex(scale.shape):
            c = scale[idx]
            assert batched[idx] == pytest.approx(quadrature_1d(lambda t: c * t, 2.0, 5.0),
                                                 rel=1e-12, abs=0.0)

    def test_all_minus_inf_row_returns_minus_inf(self):
        def log_f(t):
            return np.stack([-t, np.full(t.shape, -np.inf)])

        # an all -inf row is refined through every level, so keep them few
        got = quadrature_1d(log_f, 0.0, np.inf, max_levels=8)
        assert got[0] == pytest.approx(0.0, abs=1e-12)
        assert got[1] == -np.inf

    def test_row_zero_on_coarse_nodes_refines_like_a_single_call(self):
        # a bump of half-width 0.05 on (-10, 10): every level-0 node misses it
        def bump(t):
            x = (t - 0.3) / 0.05
            with np.errstate(divide="ignore"):
                return np.where(np.abs(x) < 1.0, -1.0 / (1.0 - np.minimum(x * x, 1.0)), -np.inf)

        one = quadrature_1d(bump, -10.0, 10.0, tol=1e-9)
        batched = quadrature_1d(lambda t: np.stack([-0.5 * t * t, bump(t)]), -10.0, 10.0,
                                tol=1e-9)
        assert math.isfinite(one)
        assert batched[1] == pytest.approx(one, rel=1e-12)
        assert batched[0] == pytest.approx(0.5 * math.log(2.0 * math.pi), abs=1e-9)

    def test_nonconverging_batch_raises(self):
        rng = np.random.default_rng(0)

        def log_f(t):
            smooth = -t
            noisy = np.log(1.0 + 0.2 * rng.standard_normal(t.shape) ** 2)
            return np.stack([smooth, noisy])

        with pytest.raises(NumericError):
            quadrature_1d(log_f, 0.0, 1.0, tol=1e-14, max_levels=4)


class TestBroadcastParabolicCylinder:
    def test_matches_scalar_loop(self):
        orders = np.array([[0.0], [0.5], [1.0], [2.5], [4.0]])
        xs = np.array([-3.0, -0.4, 0.0, 1.3, 6.0])
        got = ln_parabolic_cylinder_d(orders, xs)
        assert got.shape == (5, 5)
        for i, j in np.ndindex(got.shape):
            one = ln_parabolic_cylinder_d(float(orders[i, 0]), float(xs[j]))
            assert got[i, j] == pytest.approx(one, rel=1e-12, abs=1e-14)

    def test_negative_order_in_batch_rejected(self):
        with pytest.raises(ValueError):
            ln_parabolic_cylinder_d(np.array([1.0, -0.5]), 0.0)


class TestSamplers:
    def test_wishart_moment_convention(self):
        # E[W] = dof * inv(scale_inv); with scale_inv = I2, dof = 5 the mean is 5 I
        rng = make_rng(123)
        params = WishartParams(np.eye(2), 5.0)
        draws = params.sample(rng, 200_000)
        mean = draws.mean(axis=0)
        assert np.allclose(mean, 5.0 * np.eye(2), rtol=0.01, atol=0.05)

    def test_truncnormal_half_normal_mean(self):
        rng = make_rng(42)
        params = TruncNormalParams(0.0, 1.0)
        draws = params.sample(rng, 200_000)
        assert draws.mean() == pytest.approx(math.sqrt(2.0 / math.pi), rel=0.005)
        assert np.all(draws >= 0.0)

    def test_truncnormal_rejection_branch(self):
        rng = make_rng(43)
        params = TruncNormalParams(-7.0, 1.0)
        draws = params.sample(rng, 50_000)
        assert np.all(draws >= 0.0)
        assert draws.mean() == pytest.approx(params.mean(), rel=0.02)

    def test_mvnormal_covariance(self):
        rng = make_rng(44)
        params = MvNormalParams(np.zeros(2), np.diag([1.0, 4.0]))
        draws = params.sample(rng, 200_000)
        assert np.allclose(np.cov(draws.T), np.diag([1.0, 4.0]), rtol=0.01, atol=0.03)

    def test_bit_reproducibility(self):
        p = WishartParams(np.array([[2.0, 0.3], [0.3, 1.0]]), 6.0)
        a = p.sample(make_rng(9, 1), 10)
        b = p.sample(make_rng(9, 1), 10)
        assert np.array_equal(a, b)
        t = TruncNormalParams(-6.5, 2.0)
        assert np.array_equal(t.sample(make_rng(9, 2), 50), t.sample(make_rng(9, 2), 50))

    def test_gamma_moments(self):
        rng = make_rng(45)
        params = GammaParams(3.0, 2.0)
        draws = params.sample(rng, 200_000)
        assert draws.mean() == pytest.approx(1.5, rel=0.01)

    def test_stacked_draws_follow_each_distribution(self):
        # a stack alternating two distributions; one draw per stacked element
        reps = 20_000
        means = np.array([[0.0, 1.0], [2.0, -1.0]])
        covs = np.array([[[1.0, 0.8], [0.8, 1.0]], [[4.0, -1.0], [-1.0, 1.0]]])
        draws = MvNormalParams(np.tile(means, (reps, 1)), np.tile(covs, (reps, 1, 1))).sample(
            make_rng(46))
        scale_invs = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, -0.3], [-0.3, 0.5]]])
        wish = WishartParams(np.tile(scale_invs, (reps, 1, 1)), 6.0).sample(make_rng(47))
        gam = GammaParams(np.tile([2.0, 5.0], reps), np.tile([1.0, 0.5], reps)).sample(make_rng(48))
        assert draws.shape == (2 * reps, 2) and wish.shape == (2 * reps, 2, 2)
        for j in range(2):
            assert np.allclose(draws[j::2].mean(axis=0), means[j], atol=0.05)
            assert np.allclose(np.cov(draws[j::2].T), covs[j], rtol=0.05, atol=0.03)
            assert np.allclose(wish[j::2].mean(axis=0), 6.0 * np.linalg.inv(scale_invs[j]),
                               rtol=0.03, atol=0.05)
        assert gam[0::2].mean() == pytest.approx(2.0, rel=0.03)
        assert gam[1::2].mean() == pytest.approx(10.0, rel=0.03)


class TestDensities:
    def test_mvnormal_matches_scipy(self):
        params = MvNormalParams([0.5, -1.0], [[2.0, 0.4], [0.4, 1.0]])
        x = np.array([0.1, 0.2])
        ref = multivariate_normal(params.mean, params.cov).logpdf(x)
        assert params.logpdf(x) == pytest.approx(ref, abs=1e-12)

    def test_matric_normal_matches_vec_normal(self):
        params = MatricNormalParams(np.zeros((3, 2)), 2.0 * np.eye(3),
                                    np.array([[1.0, 0.3], [0.3, 1.0]]))
        x = make_rng(3).standard_normal((3, 2))
        # column stacking: vec(X) ~ N(vec(M), col_cov kron row_cov)
        ref = multivariate_normal(np.zeros(6), np.kron(params.col_cov, params.row_cov)).logpdf(
            x.T.reshape(-1))
        assert params.logpdf(x) == pytest.approx(ref, abs=1e-10)

    def test_matric_normal_takes_flat_rows(self):
        params = MatricNormalParams(np.arange(6.0).reshape(3, 2), 2.0 * np.eye(3),
                                    np.array([[1.0, 0.3], [0.3, 1.0]]))
        x = make_rng(4).standard_normal((5, 3, 2))
        assert np.array_equal(params.logpdf_batch(x.reshape(5, 6)), params.logpdf_batch(x))

    def test_wishart_matches_scipy(self):
        scale_inv = np.array([[2.0, 0.5], [0.5, 1.0]])
        params = WishartParams(scale_inv, 5.0)
        w = params.sample(make_rng(11), None)
        ref = wishart(df=5, scale=np.linalg.inv(scale_inv)).logpdf(w)
        assert params.logpdf(w) == pytest.approx(ref, abs=1e-10)

    def test_gamma_density_normalizes(self):
        params = GammaParams(2.5, 1.7)
        assert quadrature_1d(lambda x: params.logpdf_batch(x), 0.0, np.inf) == pytest.approx(0.0, abs=1e-9)

    def test_truncnormal_moments_against_quadrature(self):
        # dense check of the inverse-Mills moment formulas on a ratio grid
        for ratio in np.linspace(-6.0, 6.0, 13):
            params = TruncNormalParams(ratio * 1.7, 1.7)
            log_mean = quadrature_1d(lambda u: np.log(u) + params.logpdf_batch(u), 0.0, np.inf, tol=1e-12)
            assert math.exp(log_mean) == pytest.approx(params.mean(), rel=1e-9, abs=1e-12)
            log_m2 = quadrature_1d(lambda u: 2.0 * np.log(u) + params.logpdf_batch(u), 0.0, np.inf, tol=1e-12)
            var = math.exp(log_m2) - params.mean() ** 2
            assert var == pytest.approx(params.var(), rel=1e-7, abs=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GammaParams(-1.0, 2.0)
        with pytest.raises(ValueError):
            TruncNormalParams(0.0, 0.0)
        with pytest.raises(ValueError):
            WishartParams(np.eye(3), 1.5)
        with pytest.raises(ValueError):
            MvNormalParams([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])


class TestOneByOne:
    """A single 1 x 1 matrix skips the generic symmetry scan and LAPACK call."""

    def test_factor_equals_lapack_bitwise(self):
        rng = make_rng(60)
        values = np.concatenate([np.exp(rng.uniform(-700.0, 700.0, 20_000)),
                                 rng.uniform(0.0, 1e-300, 200),
                                 [5e-324, np.finfo(float).max, 1.0, 2.0, 0.3]])
        for v in values:
            a = np.array([[v]])
            assert safe_cholesky(a).tobytes() == np.linalg.cholesky(a).tobytes(), v

    def test_distributions_hold_the_lapack_factor(self):
        for v in (0.3, 7.0, 1e-200):
            a = np.array([[v]])
            assert np.array_equal(MvNormalParams([0.0], a)._chol, np.linalg.cholesky(a))
            assert np.array_equal(WishartParams(a, 3.0)._chol_s, np.linalg.cholesky(a))

    @pytest.mark.parametrize("v", [0.0, -1.0])
    def test_nonpositive_raises(self, v):
        with pytest.raises(NumericError):
            safe_cholesky(np.array([[v]]))
        with pytest.raises(NumericError):
            MvNormalParams([0.0], [[v]])
        with pytest.raises(NumericError):
            WishartParams([[v]], 3.0)

    def test_nan_gives_nan_factor(self):
        assert np.isnan(safe_cholesky(np.array([[np.nan]]))).all()
        assert safe_cholesky(np.array([[np.nan]])).shape == (1, 1)
        assert np.isnan(MvNormalParams([0.0], [[np.nan]])._chol).all()

    def test_asymmetric_two_by_two_still_rejected(self):
        asym = [[1.0, 0.5], [0.2, 1.0]]
        with pytest.raises(ValueError):
            MvNormalParams([0.0, 0.0], asym)
        with pytest.raises(ValueError):
            WishartParams(asym, 5.0)
