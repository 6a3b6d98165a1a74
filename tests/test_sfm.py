"""Stochastic frontier family: integrated likelihood, VB fits, samplers."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from mddkit import harness, sfm, statscore
from mddkit.errors import ConfigError
from mddkit.estimators import _default_theta_star, _reduced_run, chib_estimate, ris_estimate
from mddkit.modelapi import SamplerConfig, elbo_monte_carlo
from mddkit.sfm import (
    GammaCaseInefficiency,
    SfmData,
    SfmExpKernel,
    SfmExpPrior,
    SfmGammaKernel,
    SfmGammaPrior,
    sfm_exp_integrated_loglik,
    sfm_exp_vb,
    sfm_gamma_integrated_loglik,
    sfm_gamma_vb,
    sfm_read_csv,
    sfm_synthetic,
)
from mddkit.sfm import make_sfm_exp_cdl_weighting, make_sfm_gamma_cdl_weighting
from mddkit.statscore import TruncNormalParams, ln_parabolic_cylinder_d, make_rng, quadrature_1d


@pytest.fixture(scope="module")
def exp_setup():
    data = sfm_synthetic(11, 12, 5, 2, "exponential", [1.0, 0.5], 0.04, 2.0)
    prior = SfmExpPrior(np.zeros(2), 4 * np.eye(2), 2.0, 0.1, 2.0, 1.0)
    return prior, data


def _quadrature_loglik(beta, prec, lam, data):
    t, c = data.num_periods, data.c
    resid = (data.y - data.x @ beta).reshape(data.num_firms, t)
    total = 0.0
    for i in range(data.num_firms):
        e = resid[i]

        def f(u, e=e):
            ll = (-0.5 * t * np.log(2 * np.pi / prec)
                  - 0.5 * prec * ((e[None, :] - c * u[:, None]) ** 2).sum(axis=1))
            return ll + np.log(lam) - lam * u

        total += quadrature_1d(f, 0.0, np.inf, tol=1e-12)
    return total


class TestIntegratedLikelihood:
    def test_matches_per_firm_quadrature(self, exp_setup):
        _, data = exp_setup
        rng = make_rng(12)
        for _ in range(8):
            beta = rng.normal([1.0, 0.5], 0.2)
            prec = rng.gamma(20.0, 1.25)
            lam = rng.gamma(4.0, 0.5)
            got = sfm_exp_integrated_loglik(beta, prec, lam, data)[0]
            assert got == pytest.approx(_quadrature_loglik(beta, prec, lam, data), abs=1e-8)

    def test_large_rate_limit_drops_inefficiency(self, exp_setup):
        _, data = exp_setup
        beta = np.array([1.0, 0.5])
        prec = 25.0
        resid = data.y - data.x @ beta
        no_u = -0.5 * data.y.size * math.log(2 * math.pi / prec) - 0.5 * prec * resid @ resid
        val = sfm_exp_integrated_loglik(beta, prec, 1e5, data)[0]
        assert val == pytest.approx(no_u, abs=0.05)
        closer = sfm_exp_integrated_loglik(beta, prec, 1e6, data)[0]
        assert abs(closer - no_u) < abs(
            sfm_exp_integrated_loglik(beta, prec, 1e4, data)[0] - no_u)

    def test_single_observation_convolution(self):
        # T=1, one firm: the normal-exponential convolution density
        data = SfmData(np.array([0.4]), np.array([[1.0]]), 1, 1)
        got = sfm_exp_integrated_loglik(np.array([0.1]), 4.0, 1.5, data)[0]

        def f(u):
            ll = -0.5 * np.log(2 * np.pi / 4.0) - 2.0 * (0.3 + u) ** 2
            return ll + math.log(1.5) - 1.5 * u

        assert got == pytest.approx(quadrature_1d(f, 0.0, np.inf, tol=1e-12), abs=1e-10)

    def test_domain_violations_give_minus_inf(self, exp_setup):
        _, data = exp_setup
        assert sfm_exp_integrated_loglik([1.0, 0.5], -1.0, 2.0, data)[0] == -np.inf
        assert sfm_exp_integrated_loglik([1.0, 0.5], 4.0, 0.0, data)[0] == -np.inf


class TestExpVb:
    def test_shape_updates_are_count_based(self):
        data = sfm_synthetic(13, 43, 4, 2, "exponential", [1.0, 0.3], 0.04, 2.0)
        prior = SfmExpPrior(np.zeros(2), 4 * np.eye(2), 1.0, 0.1, 1.0, 1.0)
        with pytest.warns(UserWarning, match="max_iter"):
            vb = sfm_exp_vb(SfmExpKernel(prior, data), max_iter=3, tol=1e-30)
        assert vb.factors["sigma_prec"].shape == 1.0 + 0.5 * 43 * 4 == 87.0
        assert vb.factors["lam"].shape == 1.0 + 43 == 44.0

    def test_trace_monotone(self, exp_setup):
        prior, data = exp_setup
        vb = sfm_exp_vb(SfmExpKernel(prior, data))
        assert vb.converged
        assert np.all(np.diff(vb.elbo_trace) >= -1e-10)

    def test_bound_against_complete_data_monte_carlo(self, exp_setup):
        prior, data = exp_setup
        kernel = SfmExpKernel(prior, data)
        vb = sfm_exp_vb(kernel)
        cdl = kernel.as_complete_data()
        w = make_sfm_exp_cdl_weighting(vb, cdl)
        thetas = w.sampler(make_rng(14), 50_000)
        vals = cdl.log_kernel_batch(thetas) - w.log_eval(thetas)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert vb.elbo == pytest.approx(vals.mean(), abs=4 * se)

    def test_cdl_weighting_pins_a_per_firm_reference(self, exp_setup):
        # u drawn firm by firm after the other blocks; its log density, the
        # per-firm terms summed over the firms by np.sum, added after theirs
        prior, data = exp_setup
        kernel = SfmExpKernel(prior, data)
        vb = sfm_exp_vb(kernel)
        w = make_sfm_exp_cdl_weighting(vb, kernel.as_complete_data())
        f, t, k = vb.factors, data.num_periods, data.k
        e_sig, e_lam = f["sigma_prec"].mean(), f["lam"].mean()
        ebar = sfm._firm_residual_stats(data, f["beta"].mean)[0][0]
        scale = math.sqrt(1.0 / (t * e_sig))
        firms = [TruncNormalParams(m, scale) for m in (data.c * t * ebar - e_lam / e_sig) / t]
        rng = make_rng(15)
        ref = np.hstack([f["beta"].sample(rng, 500), f["sigma_prec"].sample(rng, 500)[:, None],
                         f["lam"].sample(rng, 500)[:, None],
                         np.column_stack([d.sample(rng, 500) for d in firms])])
        log_u = np.sum(np.column_stack([d.logpdf_batch(ref[:, k + 2 + i])
                                        for i, d in enumerate(firms)]), axis=1)
        ref_log = (f["beta"].logpdf_batch(ref[:, :k]) + f["sigma_prec"].logpdf_batch(ref[:, k])
                   + f["lam"].logpdf_batch(ref[:, k + 1]) + log_u)
        assert np.array_equal(w.sampler(make_rng(15), 500), ref)
        assert np.array_equal(w.log_eval(ref), ref_log)

    def test_bound_below_chib_benchmark(self, exp_setup):
        prior, data = exp_setup
        kernel = SfmExpKernel(prior, data)
        vb = sfm_exp_vb(kernel)
        vals = []
        for r in range(5):
            draws = kernel.posterior_sampler(SamplerConfig(draws=2000, burn_in=300),
                                             make_rng(15, r))
            vals.append(chib_estimate(kernel, draws, make_rng(16, r),
                                      reduced_run_length=1000).log_mdd)
        nse = np.std(vals, ddof=1)
        assert vb.elbo <= np.mean(vals) + 3 * nse

    def test_truncnormal_moment_grid(self):
        # the update moments against 1e-9 quadrature across the ratio grid
        for ratio in np.linspace(-6.0, 6.0, 7):
            params = TruncNormalParams(ratio * 0.9, 0.9)
            log_mean = quadrature_1d(lambda u: np.log(u) + params.logpdf_batch(u),
                                     0.0, np.inf, tol=1e-12)
            assert math.exp(log_mean) == pytest.approx(params.mean(), rel=1e-9, abs=1e-12)


class TestExpSampler:
    def test_chain_beta_matches_vb(self, exp_setup):
        prior, data = exp_setup
        kernel = SfmExpKernel(prior, data)
        vb = sfm_exp_vb(kernel)
        draws = kernel.posterior_sampler(SamplerConfig(draws=4000, burn_in=500),
                                         make_rng(17))
        beta = kernel.layout.unpack_batch(draws.thetas)["beta"]
        se = beta.std(axis=0) / math.sqrt(300)
        assert np.all(np.abs(beta.mean(axis=0) - vb.factors["beta"].mean) < 3 * se)

    def test_dogmatic_prior_pins_beta(self, exp_setup):
        _, data = exp_setup
        prior = SfmExpPrior(np.array([1.0, 0.5]), 1e-12 * np.eye(2), 2.0, 0.1, 2.0, 1.0)
        kernel = SfmExpKernel(prior, data)
        draws = kernel.posterior_sampler(SamplerConfig(draws=200, burn_in=100), make_rng(18))
        beta = kernel.layout.unpack_batch(draws.thetas)["beta"]
        assert np.max(np.abs(beta - [1.0, 0.5])) < 1e-4

    def test_determinism_and_latents(self, exp_setup):
        prior, data = exp_setup
        kernel = SfmExpKernel(prior, data)
        cfg = SamplerConfig(draws=150, burn_in=50)
        a = kernel.posterior_sampler(cfg, make_rng(19, 3))
        b = kernel.posterior_sampler(cfg, make_rng(19, 3))
        assert np.array_equal(a.thetas, b.thetas)
        assert np.array_equal(a.latents, b.latents)
        assert np.all(a.latents > 0)


class TestTruncNormalStack:
    """The u conditional's stacked draw: each row is the draw its product gives
    alone, the inversion uniforms first, then rejection (loc / scale < -5)
    firm by firm."""

    def test_rows_match_products_alone(self):
        scales = np.array([0.5, 1.0, 2.0])
        locs = np.array([[0.3, -1.0, 0.2], [-6.0, 0.5, -9.0], [-20.0, -11.0, -10.5]])
        got = TruncNormalParams(locs, scales[:, None]).sample_stack(
            [make_rng(40, c) for c in range(3)])
        for c in range(3):
            alone = TruncNormalParams(locs[c], scales[c]).sample(make_rng(40, c))
            assert np.array_equal(got[c], alone), c
        rng = make_rng(40, 2)  # the last row is all rejection
        assert np.array_equal(got[2], [TruncNormalParams(loc, 2.0).sample(rng) for loc in locs[2]])


class TestGammaCase:
    SHAPES = (0.3, 0.7, 1.7, 3.0)
    PRECS = (0.5, 4.0, 60.0)
    SLOPES = np.array([-6.0, -1.5, 0.0, 0.8, 6.0])

    def test_qu_normalizes_across_grid(self):
        for shape in (0.5, 1.0, 2.0, 5.0):
            for slope in (-3.0, 0.0, 3.0):
                for prec in (0.5, 4.0):
                    f = GammaCaseInefficiency(shape, prec, slope)
                    val = quadrature_1d(lambda u: f.logpdf_batch(u), 0.0, np.inf, tol=1e-10)
                    assert val == pytest.approx(0.0, abs=1e-6)

    def test_moments_match_quadrature(self):
        f = GammaCaseInefficiency(2.5, 1.3, -0.7)
        m1 = math.exp(quadrature_1d(lambda u: np.log(u) + f.logpdf_batch(u),
                                    0.0, np.inf, tol=1e-12))
        m2 = math.exp(quadrature_1d(lambda u: 2 * np.log(u) + f.logpdf_batch(u),
                                    0.0, np.inf, tol=1e-12))
        assert f.moment(1) == pytest.approx(m1, abs=1e-6)
        assert f.moment(2) == pytest.approx(m2, abs=1e-6)

    def test_shape_one_reduces_to_truncated_normal(self):
        f = GammaCaseInefficiency(1.0, 4.0, -1.5)
        tn = TruncNormalParams(1.5 / 4.0, 0.5)
        u = np.linspace(0.01, 3.0, 50)
        assert np.allclose(f.logpdf_batch(u), tn.logpdf_batch(u), atol=1e-8)
        for prec in (0.5, 4.0, 60.0):
            f = GammaCaseInefficiency(1.0, prec, self.SLOPES)
            tn = TruncNormalParams(-self.SLOPES / prec, 1.0 / math.sqrt(prec))
            assert f.mean() == pytest.approx(tn.mean(), rel=1e-12, abs=0.0)
            assert f.var() == pytest.approx(tn.var(), rel=1e-12, abs=0.0)

    def test_one_pass_matches_independent_formulas(self):
        # normaliser and power moments from parabolic-cylinder values, which
        # ln_parabolic_cylinder_d integrates on its own (DLMF 12.5.1)
        for shape in self.SHAPES:
            for prec in self.PRECS:
                f = GammaCaseInefficiency(shape, prec, self.SLOPES)
                z = self.SLOPES / math.sqrt(prec)
                log_d = [ln_parabolic_cylinder_d(shape + j, z, tol=1e-13) for j in range(3)]
                log_norm = (-0.5 * shape * math.log(prec) + gammaln(shape) + 0.25 * z * z
                            + log_d[0])
                m1 = np.exp(gammaln(shape + 1) - gammaln(shape) + log_d[1] - log_d[0]) \
                    / math.sqrt(prec)
                m2 = np.exp(gammaln(shape + 2) - gammaln(shape) + log_d[2] - log_d[0]) / prec
                assert f.log_norm == pytest.approx(log_norm, rel=1e-10, abs=0.0)
                assert f.moment(1) == pytest.approx(m1, rel=1e-10, abs=0.0)
                assert f.moment(2) == pytest.approx(m2, rel=1e-10, abs=0.0)

    def test_mean_log_matches_mpmath(self):
        # with v = u^shape the density is exp(-prec v^(2/shape) / 2 - slope v^(1/shape))
        # in v, smooth at 0, and ln u = ln v / shape
        for shape in self.SHAPES:
            for prec in self.PRECS:
                f = GammaCaseInefficiency(shape, prec, self.SLOPES)
                for slope, got in zip(self.SLOPES, f.mean_log()):
                    with mpmath.workdps(20):
                        def dens(v, slope=slope, shape=shape, prec=prec):
                            return mpmath.exp(-prec * v ** (2 / shape) / 2
                                              - slope * v ** (1 / shape))

                        edges = [0, 1, mpmath.inf]
                        ref = (mpmath.quad(lambda v: mpmath.log(v) * dens(v), edges)
                               / (shape * mpmath.quad(dens, edges)))
                    assert got == pytest.approx(float(ref), abs=1e-10), (shape, prec, slope)

    def test_gamma_integrated_matches_quadrature(self):
        data = sfm_synthetic(21, 6, 4, 2, "gamma", [1.0, 0.5], 0.04, 2.0, theta=1.5)
        beta, prec, lam, th = np.array([1.0, 0.5]), 25.0, 2.0, 1.5
        got = sfm_gamma_integrated_loglik(beta, prec, lam, th, data)[0]
        t, c = data.num_periods, data.c
        resid = (data.y - data.x @ beta).reshape(data.num_firms, t)
        total = 0.0
        for i in range(data.num_firms):
            e = resid[i]

            def f(u, e=e):
                ll = (-0.5 * t * np.log(2 * np.pi / prec)
                      - 0.5 * prec * ((e[None, :] - c * u[:, None]) ** 2).sum(axis=1))
                lpu = th * math.log(lam) - math.lgamma(th) + (th - 1) * np.log(u) - lam * u
                return ll + lpu

            total += quadrature_1d(f, 0.0, np.inf, tol=1e-12)
        assert got == pytest.approx(total, abs=1e-8)


class TestBatchedGammaFactor:
    SLOPES = np.array([-3.0, -0.7, 0.0, 1.2, 3.0])

    def test_array_slopes_match_per_firm_factors(self):
        batch = GammaCaseInefficiency(1.7, 2.5, self.SLOPES)
        u = np.array([[0.05, 0.4, 1.0, 2.0, 3.5], [1e-3, 0.2, 0.7, 1.5, 0.9]])
        for i, slope in enumerate(self.SLOPES):
            one = GammaCaseInefficiency(1.7, 2.5, slope)
            for name in ("mean", "var", "mean_log", "mean_log_q"):
                assert getattr(batch, name)()[i] == getattr(one, name)(), name
            assert batch.moment(2)[i] == one.moment(2)
            assert batch.log_norm[i] == one.log_norm
            assert np.array_equal(batch.logpdf_batch(u)[:, i], one.logpdf_batch(u[:, i]))

    def test_integrated_loglik_rows_match_single_calls(self):
        data = sfm_synthetic(21, 6, 4, 2, "gamma", [1.0, 0.5], 0.04, 2.0, theta=1.5)
        beta = np.array([[1.0, 0.5], [0.9, 0.6], [1.1, 0.4]])
        prec = np.array([25.0, 18.0, -1.0])
        lam = np.array([2.0, 1.4, 2.0])
        th = np.array([1.5, 0.8, 1.5])
        got = sfm_gamma_integrated_loglik(beta, prec, lam, th, data)
        for s in range(2):
            one = sfm_gamma_integrated_loglik(beta[s], prec[s], lam[s], th[s], data)[0]
            assert got[s] == pytest.approx(one, rel=1e-12)
        assert got[2] == -np.inf

    def test_integrated_loglik_at_chain_scale(self):
        # 2,000 chain rows x 12 firms: 24,000 integrals, of which only those
        # still refining are evaluated and budgeted at each level
        config = harness.ExperimentConfig(model="sfm-gamma")
        spec = harness.MODELS["sfm-gamma"]
        kernel = spec.kernel(harness.load_data(config), spec.options)
        draws = kernel.posterior_sampler(SamplerConfig(draws=2000, burn_in=100), make_rng(3))
        p = kernel.layout.unpack_batch(draws.thetas)
        rows = (p["beta"], p["sigma_prec"], p["lam"], p["theta"])
        assert kernel.data.num_firms == 12 and len(rows[0]) == 2000
        got = sfm_gamma_integrated_loglik(*rows, kernel.data)
        assert np.all(np.isfinite(got))
        # each integral is summed alone and each row's residuals come from its
        # own x-beta product, bit for bit as in a one-row call
        for s in (0, 777, 1999):
            one = sfm_gamma_integrated_loglik(*(r[s] for r in rows), kernel.data)
            assert got[s] == one[0]


class TestGridSampling:
    @staticmethod
    def _check_moments(draws, mean, second, tol_se=5.0):
        n = draws.shape[0]
        se1 = draws.std(axis=0) / math.sqrt(n)
        se2 = (draws ** 2).std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < tol_se * se1)
        assert np.all(np.abs((draws ** 2).mean(axis=0) - second) < tol_se * se2)

    def test_u_factor_samples_match_moments(self):
        for shape in (0.5, 1.0, 2.5):
            f = GammaCaseInefficiency(shape, 4.0, np.array([-1.5, 0.0, 2.0]))
            draws = f.sample(make_rng(40), 200_000)
            assert draws.shape == (200_000, 3)
            assert np.all(draws > 0)
            self._check_moments(draws, f.moment(1), f.moment(2))
            # continuous draws: practically no value repeats
            assert np.unique(draws[:, 0]).size > 0.999 * draws.shape[0]

    def test_scalar_factor_sample_shape(self):
        f = GammaCaseInefficiency(2.5, 1.3, -0.7)
        draws = f.sample(make_rng(41), 50_000)
        assert draws.shape == (50_000,)
        self._check_moments(draws, f.moment(1), f.moment(2))

    def test_theta_grid_samples_match_mean_off_the_nodes(self, gamma_fit):
        _, _, vb = gamma_fit
        grid = vb.factors["theta"]
        draws = grid.sample(make_rng(42), 200_000)
        second = grid.expect(lambda g: g * g)
        self._check_moments(draws, grid.mean(), second)
        assert not np.any(np.isin(draws, grid.grid))

    @pytest.mark.parametrize("lin", [8.0, 12.0, 20.0, 40.0])
    def test_theta_grid_normalizer_matches_quadrature(self, lin):
        # q(theta)'s form (shape 2, scale 2, ten firms); the trapezoid runs in
        # ln theta, where theta-space widths would overstate log_c by
        # ln(sinh h / h) = 1.7e-5
        def log_unnorm(th):
            return -3.0 * np.log(th) + lin * th - 2.0 / th - 11 * gammaln(th)

        grid = sfm._GridDensity(log_unnorm)
        assert grid.log_c == pytest.approx(
            quadrature_1d(log_unnorm, 0.0, math.inf, tol=1e-14), abs=1e-12)

    def test_cdl_weighting_sampler_draws_the_vb_factors(self, gamma_fit):
        prior, data, vb = gamma_fit
        kernel = SfmGammaKernel(prior, data)
        w = make_sfm_gamma_cdl_weighting(vb, kernel)
        thetas = w.sampler(make_rng(43), 4000)
        assert thetas.shape == (4000, kernel.layout.dim)
        assert np.all(np.isfinite(w.log_eval(thetas)))
        u = kernel.layout.unpack_batch(thetas)["u"]
        se = u.std(axis=0) / math.sqrt(4000)
        assert np.all(np.abs(u.mean(axis=0) - vb.factors["u"].mean()) < 5 * se)


@pytest.fixture(scope="module")
def gamma_fit():
    data = sfm_synthetic(21, 10, 5, 2, "gamma", [1.0, 0.5], 0.04, 2.0, theta=1.5)
    prior = SfmGammaPrior(np.zeros(2), 4 * np.eye(2), 2.0, 0.1, 1.0, 2.0, 2.0)
    return prior, data, sfm_gamma_vb(SfmGammaKernel(prior, data))


class TestGammaVb:

    def test_trace_monotone_with_slack(self, gamma_fit):
        _, _, vb = gamma_fit
        assert np.all(np.diff(vb.elbo_trace) >= -1e-8)

    def test_fit_runs_no_adaptive_quadrature(self, monkeypatch):
        # every q(u) moment comes from one pass per iteration: on the harness's
        # sfm-gamma data the fit once made 528 quadrature_1d calls (3 per
        # iteration) and 176 ln_parabolic_cylinder_d calls
        counts = dict.fromkeys(("quadrature_1d", "ln_parabolic_cylinder_d"), 0)
        for name in counts:
            original = getattr(statscore, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("mddkit") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        ctx = harness.build_context(harness.ExperimentConfig(model="sfm-gamma"))
        assert len(ctx.vb.elbo_trace) > 100
        assert counts == {"quadrature_1d": 0, "ln_parabolic_cylinder_d": 0}
        # the counters see the calls that remain: one integrated likelihood
        sfm_gamma_integrated_loglik(np.array([1.0, 0.5]), 25.0, 2.0, 1.5, ctx.kernel.data)
        assert counts == {"quadrature_1d": 0, "ln_parabolic_cylinder_d": 1}

    def test_lambda_shape_tracks_theta(self, gamma_fit):
        prior, data, vb = gamma_fit
        assert vb.factors["lam"].shape == pytest.approx(
            (data.num_firms + 1) * vb.factors["theta"].mean(), rel=1e-12)

    def test_bound_matches_monte_carlo_over_the_kernel_layout(self, gamma_fit):
        # q spans the kernel's layout, u included, so its draws go straight to the kernel
        prior, data, vb = gamma_fit
        mean, se = elbo_monte_carlo(SfmGammaKernel(prior, data), vb, make_rng(24))
        assert vb.elbo == pytest.approx(mean, abs=4 * se)

    def test_bound_below_ris_estimate(self, gamma_fit):
        prior, data, vb = gamma_fit
        kernel = SfmGammaKernel(prior, data)
        w = make_sfm_gamma_cdl_weighting(vb, kernel)
        vals = []
        for r in range(4):
            draws = kernel.posterior_sampler(SamplerConfig(draws=2500, burn_in=800),
                                             make_rng(22, r))
            vals.append(ris_estimate(kernel, draws, w).log_mdd)
        nse = np.std(vals, ddof=1)
        assert vb.elbo <= np.mean(vals) + 3 * nse


def _gamma_reference_sampler(kernel, config, rng):
    """sfm-gamma's Metropolis-within-Gibbs loop for one chain, written out: the
    conjugate blocks from their full conditionals, then log-scale random walks
    for theta and for each u_i, their steps adapted in burn-in towards 0.44
    and their acceptance counted as accepted proposals after it."""
    d, prior = kernel.data, kernel.prior
    n, t, c = d.num_firms, d.num_periods, d.c
    beta0, *_ = np.linalg.lstsq(d.x, d.y, rcond=None)
    state = {"beta": beta0, "sigma_prec": 1.0 / max(float(np.var(d.y - d.x @ beta0)), 1e-6),
             "lam": 1.0, "theta": 1.0, "u": np.full(n, 0.5)}

    def log_cond_theta(theta, lin, su):
        return (-(prior.a_theta0 + 1.0) * math.log(theta) - prior.b_theta0 / theta
                + theta * lin - (n + 1) * float(gammaln(theta)) - su)

    step_theta, step_u = 0.5, np.full(n, 0.5)
    accepted_theta = accepted_u = 0.0
    total = config.burn_in + config.draws * config.thin
    thetas = []
    for it in range(total):
        tuning = it < config.burn_in
        for name in ("beta", "sigma_prec", "lam"):
            value = kernel.full_conditional(name, state).sample(rng)
            state[name] = np.reshape(value, np.shape(state[name]))
        cur, lam = float(state["theta"]), float(state["lam"])
        su = float(np.sum(np.log(state["u"])))
        lin = math.log(prior.b_lam0) + (n + 1) * math.log(lam) + su
        prop = cur * math.exp(step_theta * rng.standard_normal())
        delta = (log_cond_theta(prop, lin, su) - log_cond_theta(cur, lin, su)
                 + math.log(prop) - math.log(cur))
        acc = math.log(rng.uniform()) <= delta
        if acc:
            state["theta"] = prop
        if tuning:
            step_theta = min(max(step_theta * math.exp(0.05 * ((1.0 if acc else 0.0) - 0.44)),
                                 1e-3), 10.0)
        elif acc:
            accepted_theta += 1
        theta, prec = state["theta"], state["sigma_prec"]
        ebar = (d.y - np.matvec(d.x, state["beta"])).reshape(n, t).sum(axis=1) / t
        slopes = lam - (c * t * prec) * ebar

        def log_cond_u(u, log_u):
            vals = (theta - 1.0) * log_u - (0.5 * t * prec) * u * u - slopes * u
            return np.where(u > 0, vals, -np.inf)

        cur_u = state["u"]
        prop_u = cur_u * np.exp(step_u * rng.standard_normal(n))
        with np.errstate(divide="ignore"):
            log_prop, log_cur = np.log(prop_u), np.log(cur_u)
        delta_u = log_cond_u(prop_u, log_prop) - log_cond_u(cur_u, log_cur) + log_prop - log_cur
        acc_u = np.log(rng.uniform(size=n)) <= delta_u
        state["u"] = np.where(acc_u, prop_u, cur_u)
        if tuning:
            step_u = np.clip(step_u * np.exp(0.05 * (acc_u.astype(float) - 0.44)), 1e-3, 10.0)
        else:
            accepted_u += float(np.mean(acc_u))
        if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
            thetas.append(kernel.layout.pack(state))
    retained = total - config.burn_in
    for name, rate in [("theta", accepted_theta / retained), ("u", accepted_u / retained)]:
        if not 0.05 <= rate <= 0.95:
            warnings.warn(f"MH acceptance for {name} is {rate:.2f}", stacklevel=2)
    return np.array(thetas)


def _recorded(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, [str(w.message) for w in caught]


class TestGammaSampler:
    @pytest.mark.parametrize("pinned_theta", [False, True])
    def test_matches_reference_loop(self, pinned_theta):
        # a theta prior pinned at 1 leaves the theta walk far too wide: it warns
        data = sfm_synthetic(33, 10, 5, 2, "gamma", [1.0, 0.5], 0.04, 2.0, theta=1.5)
        shape = 1e6 if pinned_theta else 2.0
        kernel = SfmGammaKernel(
            SfmGammaPrior(np.zeros(2), 4 * np.eye(2), 2.0, 0.1, 1.0, shape, shape), data)
        config = SamplerConfig(draws=40, burn_in=25, thin=3)
        got, got_warnings = _recorded(lambda: kernel.posterior_sampler(config, make_rng(34)))
        want, want_warnings = _recorded(
            lambda: _gamma_reference_sampler(kernel, config, make_rng(34)))
        assert np.array_equal(got.thetas, want)
        assert got.latents is None
        assert got_warnings == want_warnings
        assert any("theta" in w for w in got_warnings) == pinned_theta
    def test_theta_pinned_matches_exponential_model(self):
        data = sfm_synthetic(25, 10, 5, 2, "exponential", [1.0, 0.5], 0.04, 2.0)
        gprior = SfmGammaPrior(np.zeros(2), 4 * np.eye(2), 2.0, 0.1, 1.0, 1e6, 1e6)
        eprior = SfmExpPrior(np.zeros(2), 4 * np.eye(2), 2.0, 0.1, 1.0, 1.0)
        gker, eker = SfmGammaKernel(gprior, data), SfmExpKernel(eprior, data)
        gd = gker.posterior_sampler(SamplerConfig(draws=3000, burn_in=1000), make_rng(26))
        ed = eker.posterior_sampler(SamplerConfig(draws=3000, burn_in=1000), make_rng(27))
        gu = gker.layout.unpack_batch(gd.thetas)
        eu = eker.layout.unpack_batch(ed.thetas)
        assert gu["theta"].mean() == pytest.approx(1.0, abs=1e-3)
        se = np.sqrt(gu["beta"].var(axis=0) / 200 + eu["beta"].var(axis=0) / 200)
        assert np.all(np.abs(gu["beta"].mean(0) - eu["beta"].mean(0)) < 4 * se)

    def test_u_draws_positive_and_deterministic(self):
        data = sfm_synthetic(28, 6, 4, 2, "gamma", [1.0, 0.5], 0.04, 2.0, theta=1.5)
        prior = SfmGammaPrior(np.zeros(2), 4 * np.eye(2), 2.0, 0.1, 1.0, 2.0, 2.0)
        kernel = SfmGammaKernel(prior, data)
        cfg = SamplerConfig(draws=200, burn_in=150)
        a = kernel.posterior_sampler(cfg, make_rng(29, 1))
        b = kernel.posterior_sampler(cfg, make_rng(29, 1))
        assert np.array_equal(a.thetas, b.thetas)
        u = kernel.layout.unpack_batch(a.thetas)["u"]
        assert np.all(u > 0)


class TestReducedRun:
    @pytest.mark.parametrize("family", ["exponential", "gamma"])
    def test_clamped_beta_residual_means_computed_once(self, family, monkeypatch):
        data = sfm_synthetic(30, 8, 4, 2, family, [1.0, 0.5], 0.04, 2.0, theta=1.5)
        kernel = (SfmExpKernel(SfmExpPrior(np.zeros(2), 4 * np.eye(2), 2.0, 0.1, 2.0, 1.0), data)
                  if family == "exponential" else
                  SfmGammaKernel(SfmGammaPrior(np.zeros(2), 4 * np.eye(2), 2.0, 0.1, 1.0, 2.0, 2.0),
                                 data))
        draws = kernel.posterior_sampler(SamplerConfig(draws=30, burn_in=20), make_rng(31))
        star = _default_theta_star(draws)
        calls = []

        def counted(data, beta):
            calls.append(1)
            return real(data, beta)

        real = sfm._firm_residual_means
        monkeypatch.setattr(sfm, "_firm_residual_means", counted)
        _reduced_run(kernel, draws, star, [], 40, make_rng(32))
        assert len(calls) == 20 + 40  # a free beta: once per sweep
        calls.clear()
        _reduced_run(kernel, draws, star, ["beta"], 40, make_rng(32))
        assert len(calls) == 1


class TestSynthetic:
    def test_exponential_mean(self):
        data = sfm_synthetic(30, 2000, 5, 1, "exponential", [0.0], 0.01, 2.0)
        # recover u from the firm-mean residuals (frontier at zero)
        u_hat = -(data.y.reshape(2000, 5).mean(axis=1))
        assert u_hat.mean() == pytest.approx(0.5, rel=0.05)

    def test_determinism(self):
        a = sfm_synthetic(31, 10, 4, 2, "exponential", [1.0, 0.2], 0.04, 2.0)
        b = sfm_synthetic(31, 10, 4, 2, "exponential", [1.0, 0.2], 0.04, 2.0)
        assert np.array_equal(a.y, b.y)

    def test_large_rate_recovers_symmetric_noise(self):
        data = sfm_synthetic(32, 400, 5, 1, "exponential", [0.0], 0.04, 500.0)
        resid = data.y - data.y.mean()
        skew = np.mean(resid ** 3) / resid.std() ** 3
        assert abs(skew) < 0.1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            sfm_synthetic(33, 5, 4, 1, "exponential", [0.0], -1.0, 2.0)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "panel.csv"
        lines = ["firm_id,period,y,x1"]
        rng = make_rng(34)
        for firm in ["a", "b", "c"]:
            for per in ["1990", "1991"]:
                lines.append(f"{firm},{per},{float(rng.normal())!r},{float(rng.normal())!r}")
        path.write_text("\n".join(lines) + "\n")
        data = sfm_read_csv(path)
        assert data.num_firms == 3 and data.num_periods == 2
        assert data.x.shape == (6, 2)
        assert np.all(data.x[:, 0] == 1.0)

    def test_unbalanced_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("firm_id,period,y,x1\na,1,0.1,0.2\na,2,0.1,0.2\nb,1,0.3,0.1\n")
        with pytest.raises(ConfigError, match="unbalanced"):
            sfm_read_csv(path)
