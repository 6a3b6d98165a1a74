"""Tests for the distribution / special-function layer."""

import math
import tracemalloc
from operator import methodcaller

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaln, log_ndtr, psi
from scipy.stats import chi2, multivariate_normal, wishart
from scipy.stats import gamma as gamma_dist

from mddkit import statscore
from mddkit.errors import NumericError
from mddkit.statscore import (
    GammaParams,
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
    quadrature_expectations,
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

    def test_nonconvergence_raises_with_estimate(self, monkeypatch):
        monkeypatch.setattr(statscore, "_DE_MAX_LEVELS", 4)
        rng = np.random.default_rng(0)
        noisy = lambda t: np.log(1.0 + 0.2 * rng.standard_normal(t.shape) ** 2)
        with pytest.raises(NumericError):
            quadrature_1d(noisy, 0.0, 1.0, tol=1e-14)


class TestBatchedQuadrature:
    SHAPES = np.array([0.4, 1.0, 2.7, 6.0])

    def test_rows_equal_scalar_calls(self):
        a = self.SHAPES[:, None]
        batched = quadrature_1d(lambda t: (a - 1.0) * np.log(t) - t, 0.0, np.inf)
        assert batched.shape == (4,)
        for shape, got in zip(self.SHAPES, batched):
            one = quadrature_1d(lambda t: (shape - 1.0) * np.log(t) - t, 0.0, np.inf)
            assert got == one
            assert got == pytest.approx(math.lgamma(shape), abs=1e-9)

    def test_two_dimensional_batch_on_finite_interval(self):
        scale = np.array([[0.5, 1.0, 2.0], [3.0, -1.0, 0.1]])
        batched = quadrature_1d(lambda t: scale[..., None] * t, 2.0, 5.0)
        assert batched.shape == (2, 3)
        for idx in np.ndindex(scale.shape):
            c = scale[idx]
            assert batched[idx] == quadrature_1d(lambda t: c * t, 2.0, 5.0)

    def test_all_minus_inf_row_returns_minus_inf(self, monkeypatch):
        def log_f(t):
            return np.stack([-t, np.full(t.shape, -np.inf)])

        # an all -inf row is refined through every level, so keep them few
        monkeypatch.setattr(statscore, "_DE_MAX_LEVELS", 8)
        got = quadrature_1d(log_f, 0.0, np.inf)
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

    def test_nonconverging_batch_raises(self, monkeypatch):
        monkeypatch.setattr(statscore, "_DE_MAX_LEVELS", 4)
        rng = np.random.default_rng(0)

        def log_f(t):
            smooth = -t
            noisy = np.log(1.0 + 0.2 * rng.standard_normal(t.shape) ** 2)
            return np.stack([smooth, noisy])

        with pytest.raises(NumericError):
            quadrature_1d(log_f, 0.0, 1.0, tol=1e-14)


class TestQuadratureExpectations:
    SHAPES = np.array([0.4, 1.0, 2.7, 6.0])
    FUNCTIONS = (lambda t: t, np.square, np.log)

    @staticmethod
    def gamma_like(t, a, z):
        return (a - 1.0) * np.log(t) - 0.5 * t * t - z * t

    def test_gamma_moments(self):
        # t^(a-1) e^-t: Z = Gamma(a), E[t] = a, E[t^2] = a (a + 1), E[ln t] = psi(a)
        a = self.SHAPES
        log_z, (m1, m2, m_log) = quadrature_expectations(
            lambda t, a: (a - 1.0) * np.log(t) - t, (a,), 0.0, np.inf, self.FUNCTIONS)
        assert log_z == pytest.approx(gammaln(a), rel=1e-12, abs=1e-12)
        assert m1 == pytest.approx(a, rel=1e-12)
        assert m2 == pytest.approx(a * (a + 1.0), rel=1e-12)
        assert m_log == pytest.approx(psi(a), rel=1e-12, abs=1e-12)

    def test_finite_interval_and_scalar_integrand(self):
        # the uniform density on (2, 5)
        log_z, (m1, m_log) = quadrature_expectations(
            lambda t, c: c + 0.0 * t, (0.0,), 2.0, 5.0, (lambda t: t, np.log))
        assert log_z.shape == () and m1.shape == ()
        assert float(log_z) == pytest.approx(math.log(3.0), abs=1e-13)
        assert float(m1) == pytest.approx(3.5, rel=1e-13)
        assert float(m_log) == pytest.approx((5 * math.log(5) - 2 * math.log(2) - 3) / 3,
                                             rel=1e-13)

    def test_signed_function_near_zero_mean(self):
        # E[ln t] of the unit exponential is -Euler's gamma; of t^(a-1) e^-t at
        # the root of psi it vanishes: a signed mean, with ln t of both signs
        root = 1.4616321449683623
        _, (m_log,) = quadrature_expectations(
            lambda t, a: (a - 1.0) * np.log(t) - t, (np.array([1.0, root]),), 0.0, np.inf,
            (np.log,))
        assert m_log[0] == pytest.approx(-np.euler_gamma, rel=1e-13)
        assert abs(m_log[1]) < 1e-13

    def test_integrand_without_mass_raises(self, monkeypatch):
        # quadrature_1d returns -inf for it; its expectations are undefined
        monkeypatch.setattr(statscore, "_DE_MAX_LEVELS", 4)

        def log_f(t, c):
            return np.where(c > 0.0, -t, -np.inf)

        with pytest.raises(NumericError, match="achieved"):
            quadrature_expectations(log_f, (np.array([1.0, -1.0]),), 0.0, 1.0, (np.log,))

    def test_batch_equals_single_calls_bit_for_bit(self):
        # the batch broadcasts (4, 1) shapes against 3 slopes; its integrands
        # converge at different levels and leave the batch one by one
        a, z = self.SHAPES[:, None], np.array([-12.0, -1.0, 4.0])
        log_z, expect = quadrature_expectations(self.gamma_like, (a, z), 0.0, np.inf,
                                                self.FUNCTIONS)
        assert log_z.shape == (4, 3) and expect.shape == (3, 4, 3)
        for i, j in np.ndindex(log_z.shape):
            one = quadrature_expectations(self.gamma_like, (a[i, 0], z[j]), 0.0, np.inf,
                                          self.FUNCTIONS)
            assert np.array_equal(log_z[i, j], one[0])
            assert np.array_equal(expect[:, i, j], one[1])


class TestRefinementBudget:
    """A level adds 20 * 2^level nodes; refinement stops before a level of more
    than ``_QUAD_MAX_ELEMENTS`` integrand values, so a batch that never
    agrees raises instead of filling memory."""

    def test_level_sizes(self):
        for level in range(1, 9):
            assert statscore._de_unit_nodes(level)[1].size == 20 << level
        # the deepest level the budget allows one integrand: level 19
        assert not statscore._over_budget(1, 19)
        assert statscore._over_budget(1, 20)

    @pytest.mark.parametrize("method", ["quadrature_1d", "quadrature_expectations",
                                        "quadrature_1d_mostly_smooth"])
    def test_kinked_batch_raises_within_budget(self, monkeypatch, method):
        # a kink between nodes converges only algebraically, so 60 of them
        # never agree to 1e-12; a small budget, and a level cap that keeps even
        # an unbudgeted run near 10 MB per array, keep this test small
        budget = 1 << 16
        monkeypatch.setattr(statscore, "_QUAD_MAX_ELEMENTS", budget)
        monkeypatch.setattr(statscore, "_DE_MAX_LEVELS", 10)
        kinks = np.linspace(0.1, 0.9, 60) + math.pi * 1e-3

        def log_f(t, kink):
            return -np.abs(t - kink)

        def mostly_smooth(t):
            # 4 kinks beside 60 exponentials that agree within two levels:
            # quadrature_1d's log_f still evaluates all 64 at every level, and a
            # budget on the 4 still refining would let it reach level 9
            return np.concatenate((log_f(t, kinks[:4, None]), -kinks[:, None] * t))

        tracemalloc.start()
        try:
            with pytest.raises(NumericError, match="achieved"):
                if method == "quadrature_1d":
                    quadrature_1d(lambda t: log_f(t, kinks[:, None]), 0.0, 1.0, tol=1e-12)
                elif method == "quadrature_1d_mostly_smooth":
                    quadrature_1d(mostly_smooth, 0.0, 1.0, tol=1e-12)
                else:
                    quadrature_expectations(log_f, (kinks,), 0.0, 1.0, (lambda t: t,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the last level evaluated holds under 2^16 values; the first one over
        # the budget (level 6) would hold 76,800 per array, level 10 1.2M
        assert peak < 8 * 8 * budget


class TestBroadcastParabolicCylinder:
    def test_matches_scalar_loop(self):
        orders = np.array([[0.0], [0.5], [1.0], [2.5], [4.0]])
        xs = np.array([-3.0, -0.4, 0.0, 1.3, 6.0])
        got = ln_parabolic_cylinder_d(orders, xs)
        assert got.shape == (5, 5)
        for i, j in np.ndindex(got.shape):
            one = ln_parabolic_cylinder_d(float(orders[i, 0]), float(xs[j]))
            assert got[i, j] == one

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

    def test_truncnormal_sized_draws_invert_first_then_reject(self):
        # the inversion factors take their uniforms factor by factor, then the
        # rejection factors (location / scale < -5) draw, factor by factor
        locs, scale = np.array([0.3, -6.0, -1.0, -9.0]), 0.5
        got = TruncNormalParams(locs, scale).sample(make_rng(41), 6)
        rng = make_rng(41)
        one = [TruncNormalParams(locs[i], scale).sample(rng, 6) for i in (0, 2, 1, 3)]
        assert np.array_equal(got, np.column_stack([one[0], one[2], one[1], one[3]]))

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


def _spd_stack(rng, stack, n):
    a = rng.standard_normal((stack, n, n))
    return a @ a.swapaxes(-1, -2) + n * np.eye(n)


class TestTake:
    """``take`` against the distribution rebuilt from the indexed parameters."""

    idx = np.array([4, 0, 4, 2, 5, 4])

    @staticmethod
    def _same(taken, rebuilt, points):
        assert np.array_equal(taken.logpdf_batch(points), rebuilt.logpdf_batch(points))
        assert np.array_equal(taken.sample(make_rng(70, 1)), rebuilt.sample(make_rng(70, 1)))
        assert np.array_equal(taken.sample(make_rng(70, 2), 3), rebuilt.sample(make_rng(70, 2), 3))

    def test_mvnormal(self):
        rng = make_rng(71)
        mean, cov = rng.standard_normal((6, 3)), _spd_stack(rng, 6, 3)
        stacked = MvNormalParams(mean, cov)
        stacked.logpdf_batch(mean)  # a cached expansion of the whole stack is not carried over
        self._same(stacked.take(self.idx), MvNormalParams(mean[self.idx], cov[self.idx]),
                   rng.standard_normal((5, 3)))

    def test_mvnormal_broadcast_mean(self):
        # var-conjugate's alpha conditional: one mean broadcast over the stack
        rng = make_rng(72)
        mean, cov = np.broadcast_to(rng.standard_normal(3), (6, 3)), _spd_stack(rng, 6, 3)
        self._same(MvNormalParams(mean, cov).take(self.idx),
                   MvNormalParams(mean[self.idx], cov[self.idx]), rng.standard_normal((5, 3)))

    def test_wishart(self):
        rng = make_rng(73)
        scale_inv = _spd_stack(rng, 6, 3)
        stacked = WishartParams(scale_inv, 7.5)
        stacked.sample(make_rng(74))  # the Bartlett factors, computed once, are gathered
        taken = stacked.take(self.idx)
        self._same(taken, WishartParams(scale_inv[self.idx], 7.5),
                   WishartParams(np.eye(3), 6.0).sample(rng, 5))
        assert taken.sample(make_rng(70, 1)).shape == (len(self.idx), 3, 3)

    def test_gamma_scalar_shape_vector_rate(self):
        # sfm's lam conditional: one shape, a rate per stacked state
        rate = make_rng(75).gamma(2.0, 1.0, 6)
        taken = GammaParams(44.0, rate).take(self.idx)
        assert taken.shape == 44.0
        self._same(taken, GammaParams(44.0, rate[self.idx]), np.array([0.5, 2.0, 7.0]))

    def test_gamma_stacked_shape_and_rate(self):
        rng = make_rng(76)
        shape, rate = rng.gamma(3.0, 1.0, 6), rng.gamma(2.0, 1.0, 6)
        self._same(GammaParams(shape, rate).take(self.idx),
                   GammaParams(shape[self.idx], rate[self.idx]), np.array([0.5, 2.0, 7.0]))


def truncnormal_log_normalizer(params: TruncNormalParams):
    """ln Phi(location / scale), the kept probability mass of a zero-truncated normal."""
    return params._out(log_ndtr(params._alpha))


class TestDensities:
    def test_mvnormal_matches_scipy(self):
        params = MvNormalParams([0.5, -1.0], [[2.0, 0.4], [0.4, 1.0]])
        x = np.array([0.1, 0.2])
        ref = multivariate_normal(params.mean, params.cov).logpdf(x)
        assert params.logpdf_batch(x)[0] == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_mvnormal_conjugate_is_the_canonical_update(self, stack):
        # P0 + P and P0 m0 + r, with P0 = inv(V0), for one state or a stack
        v0 = np.array([[2.0, 0.4, 0.1], [0.4, 1.0, -0.2], [0.1, -0.2, 3.0]])
        m0 = np.array([0.5, -1.0, 2.0])
        rng = make_rng(12)
        a = rng.standard_normal(stack + (3, 3))
        prec, rhs = a @ a.swapaxes(-1, -2) + np.eye(3), rng.standard_normal(stack + (3,))
        got = MvNormalParams(m0, v0).conjugate(prec, rhs)
        want = MvNormalParams.from_precision(np.linalg.inv(v0) + prec,
                                             np.linalg.inv(v0) @ m0 + rhs)
        assert got.mean.shape == stack + (3,)
        for name in ("mean", "cov", "_chol"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_wishart_matches_scipy(self):
        scale_inv = np.array([[2.0, 0.5], [0.5, 1.0]])
        params = WishartParams(scale_inv, 5.0)
        w = params.sample(make_rng(11), None)
        ref = wishart(df=5, scale=np.linalg.inv(scale_inv)).logpdf(w)
        assert params.logpdf_batch(w)[0] == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("broadcast_mean", [False, True])
    def test_stacked_densities_match_scipy_entrywise(self, broadcast_mean):
        # every (component, point) entry against scipy.stats, evaluated one
        # component at a time; the points reach 6 sd out and off the support
        rng = make_rng(77)
        cov = _spd_stack(rng, 5, 3)
        mean = (np.broadcast_to(rng.standard_normal(3), (5, 3)) if broadcast_mean
                else rng.standard_normal((5, 3)))
        unit = rng.standard_normal((4, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        far = mean[0] + 6.0 * unit @ np.linalg.cholesky(cov[0]).T
        x = np.vstack([rng.standard_normal((6, 3)), far])
        got = MvNormalParams(mean, cov).logpdf_batch(x)
        want = [multivariate_normal(m, c).logpdf(x) for m, c in zip(mean, cov)]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

        scale_inv = _spd_stack(rng, 4, 3)
        w = WishartParams(np.eye(3), 6.0).sample(rng, 5)
        off_cone = np.array([np.diag([1.0, -1.0, 2.0]), -np.eye(3)])
        got = WishartParams(scale_inv, 7.5).logpdf_batch(np.concatenate([w, off_cone]))
        want = [wishart(df=7.5, scale=np.linalg.inv(s)).logpdf(w.T) for s in scale_inv]
        np.testing.assert_allclose(got[:, :5], want, rtol=1e-10, atol=0)
        assert np.all(got[:, 5:] == -np.inf)

        rate = np.array([0.5, 1.0, 3.0, 20.0])
        x = np.array([1e-3, 0.4, 1.0, 2.5, 30.0, 0.0, -1.0])
        got = GammaParams(3.5, rate).logpdf_batch(x)
        want = [gamma_dist(3.5, scale=1.0 / b).logpdf(x[:5]) for b in rate]
        np.testing.assert_allclose(got[:, :5], want, rtol=1e-10, atol=0)
        assert np.all(got[:, 5:] == -np.inf)

    def test_gamma_density_normalizes(self):
        params = GammaParams(2.5, 1.7)
        assert quadrature_1d(lambda x: params.logpdf_batch(x), 0.0, np.inf) == pytest.approx(0.0, abs=1e-9)

    def test_truncnormal_moments_against_quadrature(self):
        # dense check of the inverse-Mills moment formulas on a ratio grid, one
        # factor per ratio, all integrated in one batched quadrature
        params = TruncNormalParams(np.linspace(-6.0, 6.0, 13)[:, None] * 1.7, 1.7)
        mean = params.mean()[:, 0]
        log_mean = quadrature_1d(lambda u: np.log(u) + params.logpdf_batch(u), 0.0, np.inf, tol=1e-12)
        assert np.exp(log_mean) == pytest.approx(mean, rel=1e-9, abs=1e-12)
        log_m2 = quadrature_1d(lambda u: 2.0 * np.log(u) + params.logpdf_batch(u), 0.0, np.inf, tol=1e-12)
        var = np.exp(log_m2) - mean ** 2
        assert var == pytest.approx(params.var()[:, 0], rel=1e-7, abs=1e-12)

    def test_truncnormal_moments_against_mpmath(self):
        # location / scale from -40 to 12 under three scales, against 50-digit
        # values; below -2.5 the continued fraction avoids the cancellation in
        # a + m(a) and 1 - m (m + a) (m the inverse Mills ratio)
        with mpmath.workdps(50):
            for scale in (0.3, 1.0, 2.5):
                locs = np.linspace(-40.0, 12.0, 105) * scale
                params = TruncNormalParams(locs, scale)
                for loc, mean, var in zip(locs, params.mean(), params.var()):
                    a = mpmath.mpf(loc) / scale
                    m = mpmath.npdf(a) / mpmath.ncdf(a)
                    assert mean == pytest.approx(float(scale * (a + m)), rel=1e-13, abs=0.0)
                    assert var == pytest.approx(float(scale ** 2 * (1 - m * (m + a))),
                                                rel=1e-13, abs=0.0)

    def test_truncnormal_moments_continuous_across_the_tail_switch(self):
        cut = statscore._MILLS_CF_BELOW
        for scale in (0.3, 1.0, 2.5):
            alphas = np.array([np.nextafter(cut, -np.inf), cut])
            params = TruncNormalParams(alphas * scale, scale)
            mean, var = params.mean(), params.var()
            assert mean[0] == pytest.approx(mean[1], rel=1e-14)
            assert var[0] == pytest.approx(var[1], rel=1e-13)

    def test_truncnormal_array_matches_each_factor_alone(self):
        # location / scale from -40 to 12 under mixed scales: every entry of
        # the array-valued factor is, bit for bit, that factor's value alone
        scales = np.resize([0.3, 1.0, 2.5], 105).reshape(35, 3)
        locs = np.linspace(-40.0, 12.0, 105).reshape(35, 3) * scales
        x = np.array([-1.0, 0.0, 0.02, 0.7, 3.0, 40.0])
        stack = TruncNormalParams(locs, scales)
        measures = {name: methodcaller(name) for name in ("mean", "var", "entropy")}
        measures["log_normalizer"] = truncnormal_log_normalizer
        values = {name: measure(stack) for name, measure in measures.items()}
        log_pdf = stack.logpdf_batch(x[:, None, None])
        for i, j in np.ndindex(locs.shape):
            alone = TruncNormalParams(locs[i, j], scales[i, j])
            for name, value in values.items():
                assert value[i, j] == measures[name](alone), (name, i, j)
            assert np.array_equal(log_pdf[:, i, j], alone.logpdf_batch(x)), (i, j)
        assert np.all(log_pdf[0] == -np.inf)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GammaParams(-1.0, 2.0)
        with pytest.raises(ValueError):
            TruncNormalParams(0.0, 0.0)
        with pytest.raises(ValueError):
            WishartParams(np.eye(3), 1.5)
        with pytest.raises(ValueError):
            MvNormalParams([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])


def _mc(values):
    """Mean and standard error of a Monte Carlo sample."""
    return values.mean(), values.std(ddof=1) / math.sqrt(values.size)


class TestExpectationsAndEntropies:
    """The variational bounds' closed-form terms against Monte Carlo averages
    over draws from q, within 4 standard errors."""

    def test_normal(self):
        p = MvNormalParams([0.5, -1.0, 0.2], [[2.0, 0.4, 0.1], [0.4, 1.0, -0.2],
                                              [0.1, -0.2, 0.7]])
        q = MvNormalParams([0.1, -0.3, 0.9], [[0.5, 0.1, 0.0], [0.1, 0.8, 0.2],
                                              [0.0, 0.2, 1.1]])
        x = q.sample(make_rng(40), 100_000)
        mean, se = _mc(p.logpdf_batch(x))
        assert p.expected_logpdf(q.mean, q.cov) == pytest.approx(mean, abs=4 * se)
        mean, se = _mc(-q.logpdf_batch(x))
        assert q.entropy() == pytest.approx(mean, abs=4 * se)

    def test_gamma(self):
        p, q = GammaParams(2.5, 1.5), GammaParams(4.0, 3.0)
        x = q.sample(make_rng(41), 100_000)
        mean, se = _mc(np.log(x))
        assert q.mean_log() == pytest.approx(mean, abs=4 * se)
        mean, se = _mc(p.logpdf_batch(x))
        assert p.expected_logpdf(q.mean(), q.mean_log()) == pytest.approx(mean, abs=4 * se)
        mean, se = _mc(-q.logpdf_batch(x))
        assert q.entropy() == pytest.approx(mean, abs=4 * se)

    def test_wishart(self):
        p = WishartParams(np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]), 5.0)
        q = WishartParams(np.array([[6.0, 1.0, 0.5], [1.0, 4.0, -0.5], [0.5, -0.5, 5.0]]), 9.5)
        w = q.sample(make_rng(42), 50_000)
        mean, se = _mc(np.linalg.slogdet(w)[1])
        assert q.mean_logdet == pytest.approx(mean, abs=4 * se)
        e_w = q.dof * np.linalg.inv(q.scale_inv)
        mean, se = _mc(p.logpdf_batch(w))
        assert p.expected_logpdf(e_w, q.mean_logdet) == pytest.approx(mean, abs=4 * se)
        mean, se = _mc(-q.logpdf_batch(w))
        assert q.entropy() == pytest.approx(mean, abs=4 * se)


class TestSampleStack:
    """``sample_stack`` draws stacked distribution c from generator c, with
    the bits ``sample`` of distribution c alone gives."""

    @staticmethod
    def spd_stack(rng, count, n):
        a = rng.standard_normal((count, n, n))
        return a @ a.swapaxes(-1, -2) + n * np.eye(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_one_distribution_at_a_time(self, n):
        rng = make_rng(70, n)
        means, cov = rng.standard_normal((4, n)), self.spd_stack(rng, 4, n)
        shapes, rates = rng.uniform(0.5, 3.0, 4), rng.uniform(0.5, 3.0, 4)
        cases = [(MvNormalParams(means, cov), [MvNormalParams(m, v) for m, v in zip(means, cov)]),
                 (WishartParams(cov, n + 2.5), [WishartParams(v, n + 2.5) for v in cov]),
                 (GammaParams(shapes, rates), [GammaParams(a, b) for a, b in zip(shapes, rates)]),
                 (GammaParams(2.5, rates), [GammaParams(2.5, b) for b in rates])]
        for stack, alone in cases:
            got = stack.sample_stack([make_rng(71, c) for c in range(4)])
            for c, dist in enumerate(alone):
                assert np.array_equal(got[c], dist.sample(make_rng(71, c))), (type(dist), c)

    def test_stack_of_one_by_one_factors_equal_lapack_bitwise(self):
        a = np.exp(make_rng(72).uniform(-50.0, 50.0, (500, 1, 1)))
        assert safe_cholesky(a).tobytes() == np.linalg.cholesky(a).tobytes()

    def test_failing_matrix_of_a_stack_takes_the_jitter_alone(self):
        good = self.spd_stack(make_rng(73), 2, 2)
        singular = np.array([[[1.0, 1.0], [1.0, 1.0]]])
        stack = np.concatenate([good[:1], singular, good[1:]])
        factors = safe_cholesky(stack)
        assert np.array_equal(factors[[0, 2]], np.linalg.cholesky(good))
        assert np.array_equal(factors[1], safe_cholesky(singular[0]))


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
