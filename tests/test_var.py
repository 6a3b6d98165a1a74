"""VAR model family: exact analysis, VB fits, sampler, synthetic data."""

import math

import numpy as np
import pytest
from scipy.stats import matrix_normal

from mddkit import var as var_mod
from mddkit.errors import ConfigError
from mddkit.estimators import make_vb_weighting, ris_estimate
from mddkit.harness import ExperimentConfig, build_context
from mddkit.modelapi import SamplerConfig
from mddkit.statscore import (
    WishartParams,
    _logdet,
    ln_multivariate_gamma,
    make_rng,
    quadrature_1d,
)
from mddkit.var import (
    NormalWishart,
    VarConjugateKernel,
    VarData,
    VarIndependentKernel,
    var_exact_posterior,
    var_read_csv,
    var_synthetic,
    var_vb_independent,
)
from oracles import elbo_monte_carlo, var_exact_log_mdd, var_joint_family_bound
from priors import var_independent_factors



def var_vblb_conjugate_closed_form(prior: NormalWishart, data: VarData) -> float:
    """The factorized bound in its condensed display form (cross-check)."""
    post = var_exact_posterior(prior, data)
    n, k, t = data.N, data.K, data.T
    nu_bar = t + prior.nu
    nu_q = nu_bar + k
    return (-0.5 * n * t * math.log(math.pi) + 0.5 * n * k * math.log(2.0 * math.e)
            + 0.5 * n * (nu_bar * math.log(nu_bar) - nu_q * math.log(nu_q))
            + ln_multivariate_gamma(n, 0.5 * nu_q) - ln_multivariate_gamma(n, 0.5 * prior.nu)
            + 0.5 * n * (_logdet(post.V) - _logdet(prior.V))
            + 0.5 * (prior.nu * _logdet(prior.S) - nu_bar * _logdet(post.S)))


@pytest.fixture(scope="module")
def small_var():
    coeffs = np.array([[0.1, -0.2], [0.5, 0.1], [0.2, 0.4]])
    sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
    data = var_synthetic(77, 2, 80, 1, coeffs, sigma)
    prior = NormalWishart(np.zeros((3, 2)), 10 * np.eye(3), np.eye(2), 4.0)
    return prior, data


class TestExactPosterior:
    def test_empty_data_returns_prior(self):
        prior = NormalWishart(np.zeros((3, 2)), 2 * np.eye(3), np.eye(2), 4.0)
        data = VarData(np.zeros((0, 2)), np.zeros((0, 3)), 1)
        post = var_exact_posterior(prior, data)
        assert np.allclose(post.A, prior.A)
        assert np.allclose(post.V, prior.V)
        assert np.allclose(post.S, prior.S)
        assert post.nu == prior.nu

    def test_flat_prior_limit_gives_ols(self):
        y = np.array([[0.1], [-0.2], [0.3]])
        data = VarData(y, np.ones((3, 1)), 0)
        prior = NormalWishart([[0.0]], [[1e10]], [[1.0]], 3.0)
        post = var_exact_posterior(prior, data)
        assert post.A[0, 0] == pytest.approx(y.mean(), abs=1e-8)

    def test_scale_matches_alternative_form(self, small_var):
        prior, data = small_var
        post = var_exact_posterior(prior, data)
        v0_inv = np.linalg.inv(prior.V)
        alt = (data.Y.T @ data.Y + prior.S + prior.A.T @ v0_inv @ prior.A
               - post.A.T @ np.linalg.inv(post.V) @ post.A)
        assert np.allclose(post.S, alt, atol=1e-9)


class TestExactLogMdd:
    def test_against_two_dim_quadrature(self):
        # N=1, p=0: integrate the kernel over (intercept, precision) directly
        y = np.array([[0.1], [-0.2], [0.3]])
        data = VarData(y, np.ones((3, 1)), 0)
        prior = NormalWishart([[0.0]], [[1.0]], [[1.0]], 3.0)
        exact = var_exact_log_mdd(prior, data)

        def outer(ws):
            out = np.empty(len(ws))
            for i, w in enumerate(ws):
                # the intercept given w is N(sum(y) / 4, 1 / (4 w)); integrate over its
                # mean +- 8 conditional standard deviations, a = sum(y) / 4 + z sd
                sd = 0.5 / math.sqrt(w)

                def f(z):
                    a = y.sum() / 4 + z * sd
                    ll = (-0.5 * 3 * np.log(2 * np.pi / w)
                          - 0.5 * w * ((y.ravel()[None, :] - a[:, None]) ** 2).sum(axis=1))
                    lpa = -0.5 * np.log(2 * np.pi / w) - 0.5 * w * a ** 2
                    return ll + lpa + math.log(sd)
                out[i] = quadrature_1d(f, -8.0, 8.0, tol=1e-10)
            logp_w = 0.5 * np.log(ws) - 0.5 * ws - 1.5 * math.log(2.0) - math.lgamma(1.5)
            return out + logp_w

        oracle = quadrature_1d(outer, 0.0, np.inf, tol=1e-9)
        assert exact == pytest.approx(oracle, abs=1e-9)

    def test_empty_data_integrates_to_one(self):
        prior = NormalWishart(np.zeros((3, 2)), 2 * np.eye(3), np.eye(2), 4.0)
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
        v0 = prior.V.copy()
        v0[1:, 1:] = prior.V[1:, 1:][np.ix_(perm, perm)]
        prior2 = NormalWishart(prior.A[:, perm][np.ix_([0, 2, 1], [0, 1])]
                              if False else prior.A, v0,
                              prior.S[np.ix_(perm, perm)], prior.nu)
        assert var_exact_log_mdd(prior2, data2) == pytest.approx(
            var_exact_log_mdd(prior, data), abs=1e-8)


class TestNormalWishart:
    def test_logpdf_is_matric_normal_times_wishart(self):
        rng = make_rng(70)
        k, n = 3, 2
        a0 = rng.standard_normal((k, n))
        v = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.5]])
        s = np.array([[1.5, 0.4], [0.4, 0.8]])
        nw = NormalWishart(a0, v, s, 6.0)
        thetas = nw.sample(rng, 20)
        thetas[:10, :k * n] += rng.standard_normal((10, k * n))  # off the bulk too
        u = nw.layout.unpack_batch(thetas)
        want = [matrix_normal(a0, v, np.linalg.inv(w)).logpdf(a.reshape(k, n))
                + WishartParams(s, 6.0).logpdf_batch(w)[0]
                for a, w in zip(u["alpha"], u["sigma_inv"])]
        # off the cone: an indefinite W, and a negative-definite one whose
        # determinant is positive (only the leading minor tells it apart)
        off = nw.layout.pack_batch({"alpha": u["alpha"][:2],
                                    "sigma_inv": np.array([[[1.0, 2.0], [2.0, 1.0]],
                                                           [[-2.0, 0.5], [0.5, -1.0]]])})
        got = nw.logpdf_batch(np.vstack([thetas, off]))
        np.testing.assert_allclose(got[:20], want, rtol=1e-10)
        assert np.all(got[20:] == -np.inf)


class TestConjugateVb:
    def test_joint_family_reproduces_exact_evidence(self, small_var):
        prior, data = small_var
        bound = var_joint_family_bound(VarConjugateKernel(prior, data))
        assert bound == pytest.approx(var_exact_log_mdd(prior, data), abs=1e-6)

    def test_dof_arithmetic(self):
        # T=200, p=4, N=7, prior dof 9 -> factor dof 238
        assert 200 + 1 + 4 * 7 + 9 == 238

    def test_factorized_bound_below_exact(self, small_var):
        prior, data = small_var
        vb = VarConjugateKernel(prior, data).vb_fit()
        exact = var_exact_log_mdd(prior, data)
        assert vb.elbo < exact
        # regression value for the seed-pinned gap on this fixture
        assert exact - vb.elbo == pytest.approx(0.0530865, abs=1e-4)
        assert exact - 5.0 < vb.elbo

    def test_term_by_term_equals_condensed_display(self, small_var):
        # the bound is read off the exact evidence less KL(q || posterior), which
        # holds at col_cov = inv(E_q W); the display is written out independently
        cases = [small_var]
        for n, p, nu0 in [(1, 2, 3.0), (3, 2, 5.0), (4, 4, 6.0), (2, 4, 7.5)]:
            k = 1 + p * n
            coeffs = np.zeros((k, n))
            coeffs[1:1 + n] = 0.4 * np.eye(n)
            data = var_synthetic(80 + n + p, n, 80, p, coeffs, np.eye(n))
            cases.append((NormalWishart(np.zeros((k, n)), 10 * np.eye(k), np.eye(n), nu0),
                          data))
        for prior, data in cases:
            vb = VarConjugateKernel(prior, data).vb_fit()
            assert vb.elbo == pytest.approx(var_vblb_conjugate_closed_form(prior, data),
                                            abs=1e-9), (data.N, data.p, prior.nu)

    def test_factorized_alpha_factor_is_matric_normal(self, small_var):
        # q(alpha) = MN(A*, V*, inv(E_q W)): vec(A) row by row with covariance
        # V* kron inv(E_q W), at the exact posterior's A* and V*
        prior, data = small_var
        vb = VarConjugateKernel(prior, data).vb_fit()
        k, n = data.K, data.N
        post, q_w = var_exact_posterior(prior, data), vb.factors["sigma_inv"]
        oracle = matrix_normal(post.A, post.V, q_w.scale_inv / q_w.dof)
        points = vb.factors["alpha"].sample(make_rng(73), 30)
        points[:15] += make_rng(74).standard_normal((15, k * n))  # off the bulk too
        want = [oracle.logpdf(a.reshape(k, n)) for a in points]
        np.testing.assert_allclose(vb.factors["alpha"].logpdf_batch(points), want, rtol=1e-12)

    def test_factorized_mean_equals_exact_mean(self, small_var):
        prior, data = small_var
        vb = VarConjugateKernel(prior, data).vb_fit()
        post = var_exact_posterior(prior, data)
        assert np.array_equal(vb.factors["alpha"].mean, post.A.ravel())

    def test_bound_confirmed_by_monte_carlo(self, small_var):
        prior, data = small_var
        kernel = VarConjugateKernel(prior, data)
        vb = VarConjugateKernel(prior, data).vb_fit()
        mean, se = elbo_monte_carlo(kernel, vb, make_rng(55), 50_000)
        assert vb.elbo == pytest.approx(mean, abs=4 * se + 1e-9)

    def test_context_reuses_the_kernels_posterior(self, monkeypatch):
        # the kernel's exact posterior serves its VB fit and its exact evidence;
        # var_exact_log_mdd, the closed form the tests compare against, computes its own
        calls = []
        exact_posterior = var_mod.var_exact_posterior
        monkeypatch.setattr(var_mod, "var_exact_posterior",
                            lambda *args: calls.append(args) or exact_posterior(*args))
        kernel = build_context(ExperimentConfig(model="var-conjugate", repetitions=1))
        exact = kernel.exact_log_mdd()
        assert len(calls) == 1
        prior, data = kernel._nw0, kernel.data
        assert exact == var_exact_log_mdd(prior, data)
        fit, ref = kernel.vb, VarConjugateKernel(prior, data).vb_fit()
        assert np.array_equal(fit.elbo_trace, ref.elbo_trace)
        draws = fit.sample(make_rng(72), 20)
        assert np.array_equal(draws, ref.sample(make_rng(72), 20))
        assert np.array_equal(fit.log_q(draws), ref.log_q(draws))
        # the joint family: q is the exact posterior itself
        post, ref_post = kernel._post, var_exact_posterior(prior, data)
        assert var_joint_family_bound(kernel) == var_joint_family_bound(
            VarConjugateKernel(prior, data))
        draws = post.sample(make_rng(72), 20)
        assert np.array_equal(draws, ref_post.sample(make_rng(72), 20))
        assert np.array_equal(post.logpdf_batch(draws), ref_post.logpdf_batch(draws))

    def test_dof_guard(self):
        # factor dof T + 1 + pN + nu0 = 2.2 fails the > N + 1 = 3 requirement
        data = VarData(np.zeros((0, 2)), np.zeros((0, 1)), 0)
        prior = NormalWishart(np.zeros((1, 2)), np.eye(1), np.eye(2), 1.2)
        with pytest.raises(ConfigError):
            VarConjugateKernel(prior, data).vb_fit()


@pytest.fixture(scope="module")
def independent_fit(small_var):
    _, data = small_var
    prior = var_independent_factors(np.zeros(6), 10 * np.eye(6), np.eye(2), 4.0)
    return prior, data, var_vb_independent(VarIndependentKernel(prior, data))


class TestIndependentVb:

    def test_dof_is_t_plus_prior(self, independent_fit):
        prior, data, vb = independent_fit
        assert vb.factors["sigma_inv"].dof == data.T + prior["sigma_inv"].dof

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
    independent = var_independent_factors(np.zeros(6), 10 * np.eye(6), np.eye(2), 4.0)
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
        post = var_exact_posterior(prior, data)
        for kernel in _var_kernels(small_var):
            thetas = kernel.layout.pack_batch({"alpha": np.zeros((2, data.K * data.N)),
                                               "sigma_inv": w})
            for out in (kernel.log_likelihood_batch(thetas), kernel.log_prior_batch(thetas),
                        post.logpdf_batch(thetas)):
                assert np.isfinite(out[0]) and out[1] == -np.inf, type(kernel).__name__


class TestGibbs:
    def test_chain_mean_matches_vb_mean(self, small_var):
        _, data = small_var
        prior = var_independent_factors(np.zeros(6), 10 * np.eye(6), np.eye(2), 4.0)
        kernel = VarIndependentKernel(prior, data)
        vb = var_vb_independent(VarIndependentKernel(prior, data))
        draws = kernel.posterior_sampler(SamplerConfig(draws=5000, burn_in=500),
                                         make_rng(70))
        alpha = kernel.layout.unpack_batch(draws.thetas)["alpha"]
        se = alpha.std(axis=0) / math.sqrt(400)  # conservative effective size
        assert np.all(np.abs(alpha.mean(axis=0) - vb.factors["alpha"].mean) < 3 * se)

    def test_dogmatic_prior_pins_coefficients(self, small_var):
        _, data = small_var
        prior = var_independent_factors(np.full(6, 0.3), 1e-12 * np.eye(6), np.eye(2), 4.0)
        kernel = VarIndependentKernel(prior, data)
        draws = kernel.posterior_sampler(SamplerConfig(draws=200, burn_in=50), make_rng(71))
        alpha = kernel.layout.unpack_batch(draws.thetas)["alpha"]
        assert np.max(np.abs(alpha - 0.3)) < 1e-4

    def test_seed_determinism(self, small_var):
        _, data = small_var
        prior = var_independent_factors(np.zeros(6), 10 * np.eye(6), np.eye(2), 4.0)
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
