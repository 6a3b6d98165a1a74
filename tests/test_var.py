"""VAR model family: exact analysis, VB fits, sampler, synthetic data."""

import math

import numpy as np
import pytest

from mddkit.errors import ConfigError
from mddkit.estimators import make_vb_weighting, ris_estimate
from mddkit.modelapi import SamplerConfig, elbo_monte_carlo
from mddkit.statscore import make_rng, quadrature_1d
from mddkit.var import (
    VarConjugateKernel,
    VarConjugatePrior,
    VarData,
    VarIndependentKernel,
    VarIndependentPrior,
    var_exact_log_mdd,
    var_exact_posterior,
    var_read_csv,
    var_synthetic,
    var_vb_conjugate,
    var_vb_independent,
    var_vblb_conjugate_closed_form,
)


@pytest.fixture(scope="module")
def small_var():
    coeffs = np.array([[0.1, -0.2], [0.5, 0.1], [0.2, 0.4]])
    sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
    data = var_synthetic(77, 2, 80, 1, coeffs, sigma)
    prior = VarConjugatePrior(np.zeros((3, 2)), 10 * np.eye(3), np.eye(2), 4.0)
    return prior, data


class TestExactPosterior:
    def test_empty_data_returns_prior(self):
        prior = VarConjugatePrior(np.zeros((3, 2)), 2 * np.eye(3), np.eye(2), 4.0)
        data = VarData(np.zeros((0, 2)), np.zeros((0, 3)), 1)
        post = var_exact_posterior(prior, data)
        assert np.allclose(post.A, prior.A0)
        assert np.allclose(post.V, prior.V0)
        assert np.allclose(post.S, prior.S0)
        assert post.nu == prior.nu0

    def test_flat_prior_limit_gives_ols(self):
        y = np.array([[0.1], [-0.2], [0.3]])
        data = VarData(y, np.ones((3, 1)), 0)
        prior = VarConjugatePrior([[0.0]], [[1e10]], [[1.0]], 3.0)
        post = var_exact_posterior(prior, data)
        assert post.A[0, 0] == pytest.approx(y.mean(), abs=1e-8)

    def test_scale_matches_alternative_form(self, small_var):
        prior, data = small_var
        post = var_exact_posterior(prior, data)
        v0_inv = np.linalg.inv(prior.V0)
        alt = (data.Y.T @ data.Y + prior.S0 + prior.A0.T @ v0_inv @ prior.A0
               - post.A.T @ np.linalg.inv(post.V) @ post.A)
        assert np.allclose(post.S, alt, atol=1e-9)


class TestExactLogMdd:
    def test_against_two_dim_quadrature(self):
        # N=1, p=0: integrate the kernel over (intercept, precision) directly
        y = np.array([[0.1], [-0.2], [0.3]])
        data = VarData(y, np.ones((3, 1)), 0)
        prior = VarConjugatePrior([[0.0]], [[1.0]], [[1.0]], 3.0)
        exact = var_exact_log_mdd(prior, data)

        def outer(ws):
            out = np.empty(len(ws))
            for i, w in enumerate(ws):
                def f(a):
                    ll = (-0.5 * 3 * np.log(2 * np.pi / w)
                          - 0.5 * w * ((y.ravel()[None, :] - a[:, None]) ** 2).sum(axis=1))
                    lpa = -0.5 * np.log(2 * np.pi / w) - 0.5 * w * a ** 2
                    return ll + lpa
                # the conditional posterior of the intercept tightens as 1/sqrt(w)
                half = 1.0 + 8.0 / math.sqrt(w)
                out[i] = quadrature_1d(f, -half, half, tol=1e-10)
            logp_w = 0.5 * np.log(ws) - 0.5 * ws - 1.5 * math.log(2.0) - math.lgamma(1.5)
            return out + logp_w

        oracle = quadrature_1d(outer, 0.0, np.inf, tol=1e-9)
        assert exact == pytest.approx(oracle, abs=1e-6)

    def test_empty_data_integrates_to_one(self):
        prior = VarConjugatePrior(np.zeros((3, 2)), 2 * np.eye(3), np.eye(2), 4.0)
        data = VarData(np.zeros((0, 2)), np.zeros((0, 3)), 1)
        assert var_exact_log_mdd(prior, data) == pytest.approx(0.0, abs=1e-10)

    def test_series_relabeling_consistency(self, small_var):
        prior, data = small_var
        # permute the two series along with the prior blocks
        perm = [1, 0]
        y2 = data.Y[:, perm]
        x2 = data.X.copy()
        x2[:, 1:] = data.X[:, 1:][:, perm]
        data2 = VarData(y2, x2, data.p)
        v0 = prior.V0.copy()
        v0[1:, 1:] = prior.V0[1:, 1:][np.ix_(perm, perm)]
        prior2 = VarConjugatePrior(prior.A0[:, perm][np.ix_([0, 2, 1], [0, 1])]
                                   if False else prior.A0, v0,
                                   prior.S0[np.ix_(perm, perm)], prior.nu0)
        assert var_exact_log_mdd(prior2, data2) == pytest.approx(
            var_exact_log_mdd(prior, data), abs=1e-8)


class TestConjugateVb:
    def test_joint_family_reproduces_exact_evidence(self, small_var):
        prior, data = small_var
        vb = var_vb_conjugate(prior, data, factorized=False)
        assert vb.elbo == pytest.approx(var_exact_log_mdd(prior, data), abs=1e-6)

    def test_dof_arithmetic(self):
        # T=200, p=4, N=7, prior dof 9 -> factor dof 238
        assert 200 + 1 + 4 * 7 + 9 == 238

    def test_factorized_bound_below_exact(self, small_var):
        prior, data = small_var
        vb = var_vb_conjugate(prior, data)
        exact = var_exact_log_mdd(prior, data)
        assert vb.elbo < exact
        # regression value for the seed-pinned gap on this fixture
        assert exact - vb.elbo == pytest.approx(0.0530865, abs=1e-4)
        assert exact - 5.0 < vb.elbo

    def test_term_by_term_equals_condensed_display(self, small_var):
        prior, data = small_var
        vb = var_vb_conjugate(prior, data)
        assert vb.elbo == pytest.approx(var_vblb_conjugate_closed_form(prior, data), abs=1e-9)

    def test_factorized_mean_equals_exact_mean(self, small_var):
        prior, data = small_var
        vb = var_vb_conjugate(prior, data)
        post = var_exact_posterior(prior, data)
        assert np.array_equal(vb.hyper["A"], post.A)

    def test_bound_confirmed_by_monte_carlo(self, small_var):
        prior, data = small_var
        kernel = VarConjugateKernel(prior, data)
        vb = var_vb_conjugate(prior, data)
        mean, se = elbo_monte_carlo(kernel, vb, make_rng(55), 50_000)
        assert vb.elbo == pytest.approx(mean, abs=4 * se + 1e-9)

    def test_dof_guard(self):
        # factor dof T + 1 + pN + nu0 = 2.2 fails the > N + 1 = 3 requirement
        data = VarData(np.zeros((0, 2)), np.zeros((0, 1)), 0)
        prior = VarConjugatePrior(np.zeros((1, 2)), np.eye(1), np.eye(2), 1.2)
        with pytest.raises(ConfigError):
            var_vb_conjugate(prior, data)


@pytest.fixture(scope="module")
def independent_fit(small_var):
    _, data = small_var
    prior = VarIndependentPrior(np.zeros(6), 10 * np.eye(6), np.eye(2), 4.0)
    return prior, data, var_vb_independent(prior, data)


class TestIndependentVb:

    def test_dof_is_t_plus_prior(self, independent_fit):
        prior, data, vb = independent_fit
        assert vb.hyper["nu"] == data.T + prior.nu0

    def test_trace_monotone_and_converged(self, independent_fit):
        _, _, vb = independent_fit
        assert vb.converged
        assert np.all(np.diff(vb.elbo_trace) >= -1e-10)
        assert len(vb.elbo_trace) <= 500

    def test_bound_below_ris_estimate(self, independent_fit):
        prior, data, vb = independent_fit
        kernel = VarIndependentKernel(prior, data)
        draws = kernel.posterior_sampler(SamplerConfig(draws=4000, burn_in=500),
                                         make_rng(60, 0))
        reps = [ris_estimate(kernel, kernel.posterior_sampler(
            SamplerConfig(draws=2000, burn_in=300), make_rng(60, r)),
            make_vb_weighting(vb)).log_mdd for r in range(6)]
        nse = np.std(reps, ddof=1)
        assert vb.elbo <= np.mean(reps) + 3 * nse

    def test_bound_confirmed_by_monte_carlo(self, independent_fit):
        prior, data, vb = independent_fit
        kernel = VarIndependentKernel(prior, data)
        mean, se = elbo_monte_carlo(kernel, vb, make_rng(61), 50_000)
        assert vb.elbo == pytest.approx(mean, abs=4 * se + 1e-9)


def _var_kernels(small_var):
    prior, data = small_var
    independent = VarIndependentPrior(np.zeros(6), 10 * np.eye(6), np.eye(2), 4.0)
    return [VarConjugateKernel(prior, data), VarIndependentKernel(independent, data)]


class TestLikelihood:
    def test_sufficient_statistics_match_residual_sum(self, small_var):
        _, data = small_var
        rng = make_rng(80)
        for kernel in _var_kernels(small_var):
            size = 50
            alpha = rng.normal(0.0, 0.5, (size, data.K * data.N))
            g = rng.normal(size=(size, data.N, data.N + 3))
            w = g @ g.swapaxes(-1, -2)
            thetas = kernel.layout.pack_batch({"alpha": alpha, "sigma_inv": w})
            resid = data.Y[None] - data.X @ alpha.reshape(size, data.K, data.N)
            quad = np.einsum("stn,snm,stm->s", resid, w, resid)
            expected = (-0.5 * data.T * data.N * math.log(2 * math.pi)
                        + 0.5 * data.T * np.linalg.slogdet(w)[1] - 0.5 * quad)
            got = kernel.log_likelihood_batch(thetas)
            assert np.allclose(got, expected, rtol=1e-12, atol=0.0), type(kernel).__name__

    def test_indefinite_precision_gives_minus_inf(self, small_var):
        _, data = small_var
        for kernel in _var_kernels(small_var):
            w = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]])
            thetas = kernel.layout.pack_batch({"alpha": np.zeros((2, data.K * data.N)),
                                               "sigma_inv": w})
            out = kernel.log_likelihood_batch(thetas)
            assert np.isfinite(out[0]) and out[1] == -np.inf

    def test_negative_definite_precision_gives_minus_inf(self, small_var):
        # det(-I_2) > 0: only the leading minors show it is off the SPD cone
        prior, data = small_var
        w = np.stack([np.eye(2), -np.eye(2)])
        joint_vb = var_vb_conjugate(prior, data, factorized=False)
        for kernel in _var_kernels(small_var):
            thetas = kernel.layout.pack_batch({"alpha": np.zeros((2, data.K * data.N)),
                                               "sigma_inv": w})
            for out in (kernel.log_likelihood_batch(thetas), kernel.log_prior_batch(thetas),
                        joint_vb.log_q(thetas)):
                assert np.isfinite(out[0]) and out[1] == -np.inf, type(kernel).__name__


class TestGibbs:
    def test_chain_mean_matches_vb_mean(self, small_var):
        _, data = small_var
        prior = VarIndependentPrior(np.zeros(6), 10 * np.eye(6), np.eye(2), 4.0)
        kernel = VarIndependentKernel(prior, data)
        vb = var_vb_independent(prior, data)
        draws = kernel.posterior_sampler(SamplerConfig(draws=5000, burn_in=500),
                                         make_rng(70))
        alpha = kernel.layout.unpack_batch(draws.thetas)["alpha"]
        se = alpha.std(axis=0) / math.sqrt(400)  # conservative effective size
        assert np.all(np.abs(alpha.mean(axis=0) - vb.hyper["alpha"]) < 3 * se)

    def test_dogmatic_prior_pins_coefficients(self, small_var):
        _, data = small_var
        prior = VarIndependentPrior(np.full(6, 0.3), 1e-12 * np.eye(6), np.eye(2), 4.0)
        kernel = VarIndependentKernel(prior, data)
        draws = kernel.posterior_sampler(SamplerConfig(draws=200, burn_in=50), make_rng(71))
        alpha = kernel.layout.unpack_batch(draws.thetas)["alpha"]
        assert np.max(np.abs(alpha - 0.3)) < 1e-4

    def test_seed_determinism(self, small_var):
        _, data = small_var
        prior = VarIndependentPrior(np.zeros(6), 10 * np.eye(6), np.eye(2), 4.0)
        kernel = VarIndependentKernel(prior, data)
        cfg = SamplerConfig(draws=100, burn_in=20)
        a = kernel.posterior_sampler(cfg, make_rng(72, 5))
        b = kernel.posterior_sampler(cfg, make_rng(72, 5))
        assert np.array_equal(a.thetas, b.thetas)

    def test_exact_sampler_moments(self, small_var):
        prior, data = small_var
        kernel = VarConjugateKernel(prior, data)
        post = var_exact_posterior(prior, data)
        draws = kernel.posterior_sampler(SamplerConfig(draws=40_000), make_rng(73))
        u = kernel.layout.unpack_batch(draws.thetas)
        assert np.allclose(u["alpha"].mean(axis=0), post.A.ravel(), atol=0.01)
        assert np.allclose(u["sigma_inv"].mean(axis=0),
                           post.nu * np.linalg.inv(post.S), rtol=0.02)


class TestSynthetic:
    def test_white_noise_covariance(self):
        data = var_synthetic(1, 2, 10_000, 0, np.zeros((1, 2)), np.eye(2))
        cov = np.cov(data.Y.T)
        assert np.allclose(cov, np.eye(2), atol=0.05)

    def test_ar1_autocorrelation(self):
        data = var_synthetic(2, 1, 10_000, 1, np.array([[0.0], [0.5]]), np.eye(1))
        y = data.Y.ravel()
        rho = np.corrcoef(y[1:], y[:-1])[0, 1]
        assert rho == pytest.approx(0.5, abs=0.05)

    def test_determinism(self):
        a = var_synthetic(3, 2, 50, 1, np.array([[0.1, 0.0], [0.4, 0.1], [0.0, 0.3]]), np.eye(2))
        b = var_synthetic(3, 2, 50, 1, np.array([[0.1, 0.0], [0.4, 0.1], [0.0, 0.3]]), np.eye(2))
        assert np.array_equal(a.Y, b.Y)

    def test_explosive_rejected(self):
        with pytest.raises(ValueError):
            var_synthetic(4, 1, 50, 1, np.array([[0.0], [1.05]]), np.eye(1))

    def test_lag_design_rows(self):
        data = var_synthetic(5, 2, 30, 2, np.vstack([np.zeros((1, 2)),
                                                     0.2 * np.eye(2), 0.1 * np.eye(2)]),
                             np.eye(2))
        assert data.X.shape == (30, 5)
        assert np.all(data.X[:, 0] == 1.0)
        # row t holds y_{t-1} then y_{t-2}
        assert np.allclose(data.X[1, 1:3], data.Y[0])


class TestCsv:
    def test_roundtrip_with_date_column(self, tmp_path):
        path = tmp_path / "series.csv"
        rows = ["date,gdp,inflation"]
        rng = make_rng(80)
        vals = rng.standard_normal((20, 2))
        for i, (a, b) in enumerate(vals):
            rows.append(f"2000-01-{i+1:02d},{float(a)!r},{float(b)!r}")
        path.write_text("\n".join(rows) + "\n")
        data, names = var_read_csv(path, 4)
        assert names == ["gdp", "inflation"]
        assert data.T == 16  # lag construction consumes p rows
        assert np.allclose(data.Y, vals[4:])

    def test_bad_cell_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(ConfigError, match="oops"):
            var_read_csv(path, 1)
