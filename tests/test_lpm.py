"""Longitudinal Poisson model: NCVMP fit, integrated likelihood, sampler."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from mddkit import harness, lpm
from mddkit.errors import ConfigError
from mddkit.harness import ExperimentConfig, run_experiment
from mddkit.lpm import (
    LpmData,
    LpmKernel,
    lpm_loglik_integrated,
    lpm_read_csv,
    lpm_synthetic,
    lpm_vb,
)
from mddkit.modelapi import SamplerConfig, run_gibbs, stack_state
from mddkit.statscore import (
    LOG_2PI,
    MvNormalParams,
    WishartParams,
    log_sum_exp,
    make_rng,
    quadrature_1d,
    quadrature_expectations,
    safe_cholesky,
)
from priors import lpm_factors


def lpm_vb_gradient_residual(prior: dict, data: LpmData, vb) -> float:
    """Norm of the Gaussian-factor fixed-point condition at the fitted values."""
    q_w = vb.factors["sigma_inv"]
    e_w = q_w.dof * np.linalg.inv(q_w.scale_inv)
    _, _, grad = lpm._gaussian_factor_gradient(
        LpmKernel(prior, data), data.design(), vb.hyper["gamma"].mean, vb.hyper["gamma"].cov,
        vb.factors["mu"].mean, 0.5 * (e_w + e_w.T))
    return float(np.linalg.norm(grad))


@pytest.fixture(scope="module")
def micro():
    data = lpm_synthetic(32, 2, 2, 1, 1, [0.3], [0.2], [[0.3]])
    # dogmatic prior pins mu = 0.2, Sigma = 0.3
    prior = lpm_factors([0.0], [[4.0]], [0.2], [[1e-8]], [[0.3e8]], 1e8)
    return prior, data


def _brute_subject_integral(data, beta, mu, var, i):
    t = data.num_periods
    yi = data.y[t * i: t * (i + 1)]
    xi = data.x[t * i: t * (i + 1), 0]
    ai = data.offsets[t * i: t * (i + 1)]

    def f(u):
        eta = ai[None, :] + xi[None, :] * beta + u[:, None]
        ll = np.sum(yi[None, :] * eta - np.exp(eta) - gammaln(yi + 1)[None, :], axis=1)
        return ll - 0.5 * np.log(2 * np.pi * var) - 0.5 * (u - mu) ** 2 / var

    return quadrature_1d(f, -12.0, 12.0, tol=1e-12)


class TestIntegratedLikelihood:
    def test_matches_brute_quadrature(self, micro, monkeypatch):
        _, data = micro
        monkeypatch.setattr(lpm, "_GH_NODES", 41)
        got = lpm_loglik_integrated([0.25], [0.2], [[1 / 0.3]], data)[0]
        oracle = sum(_brute_subject_integral(data, 0.25, 0.2, 0.3, i) for i in range(2))
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_zero_counts_huge_negative_offsets(self, micro, monkeypatch):
        _, data = micro
        monkeypatch.setattr(lpm, "_GH_NODES", 41)
        dead = LpmData(np.zeros(4), data.x, data.z, 2, 2, offsets=np.full(4, -40.0))
        val = lpm_loglik_integrated([0.25], [0.2], [[1 / 0.3]], dead)[0]
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_monotone_in_counts_above_mean(self, micro, monkeypatch):
        _, data = micro
        monkeypatch.setattr(lpm, "_GH_NODES", 41)
        base = np.array(data.y)
        bumped = base.copy()
        bumped[0] += 5  # already above its conditional mean
        d2 = LpmData(bumped, data.x, data.z, 2, 2, offsets=data.offsets)
        v1 = lpm_loglik_integrated([0.25], [0.2], [[1 / 0.3]], data)[0]
        v2 = lpm_loglik_integrated([0.25], [0.2], [[1 / 0.3]], d2)[0]
        assert v2 < v1

    def test_two_dim_random_effects(self, monkeypatch):
        data = lpm_synthetic(35, 4, 4, 1, 2, [0.2], [0.1, 0.05], 0.2 * np.eye(2))
        w = np.linalg.inv(0.2 * np.eye(2))
        monkeypatch.setattr(lpm, "_GH_NODES", 25)
        got = lpm_loglik_integrated([0.2], [0.1, 0.05], w, data)[0]
        # oracle: nested 2-dim quadrature per subject
        total = 0.0
        t = data.num_periods
        for i in range(data.num_subjects):
            yi = data.y[t * i: t * (i + 1)]
            xi = data.x[t * i: t * (i + 1), 0]
            ai = data.offsets[t * i: t * (i + 1)]
            zi = data.z[i]

            def inner(u2s, yi=yi, xi=xi, ai=ai, zi=zi):
                out = np.empty(len(u2s))
                for j, u2 in enumerate(u2s):
                    def f(u1):
                        eta = (ai[None, :] + xi[None, :] * 0.2
                               + zi[:, 0][None, :] * u1[:, None] + zi[:, 1][None, :] * u2)
                        ll = np.sum(yi[None, :] * eta - np.exp(eta)
                                    - gammaln(yi + 1)[None, :], axis=1)
                        dev = np.column_stack([u1 - 0.1, np.full(len(u1), u2 - 0.05)])
                        quad = np.einsum("sm,ml,sl->s", dev, w, dev)
                        return ll - math.log(2 * math.pi) + 0.5 * np.linalg.slogdet(w)[1] - 0.5 * quad
                    out[j] = quadrature_1d(f, -8, 8, tol=1e-10)
                return out

            total += quadrature_1d(inner, -8.0, 8.0, tol=1e-8)
        assert got == pytest.approx(total, abs=1e-5)

    def test_m_three_unsupported(self):
        data = lpm_synthetic(36, 3, 3, 1, 3, [0.1], np.zeros(3), 0.1 * np.eye(3))
        with pytest.raises(ConfigError):
            lpm_loglik_integrated([0.1], np.zeros(3), np.eye(3), data)


def _default_panel_rows(size, seed, m=1):
    """The harness's default 20 x 5 panel with ``m`` random effects and ``size``
    parameter rows near its truth; with m = 2 the precisions are correlated."""
    data = lpm_synthetic(70, 20, 5, 2, m, [0.3, -0.2], [0.1] * m, 0.3 * np.eye(m))
    rng = make_rng(seed)
    beta = np.array([0.3, -0.2]) + 0.1 * rng.standard_normal((size, 2))
    mu = 0.1 + 0.2 * rng.standard_normal((size, m))
    diag = np.exp(0.5 * rng.standard_normal((size, m))) / 0.3
    prec = diag[:, :, None] * np.eye(m)
    if m == 2:
        prec[:, 0, 1] = prec[:, 1, 0] = (0.6 * rng.uniform(-1.0, 1.0, size)
                                         * np.sqrt(diag[:, 0] * diag[:, 1]))
    return data, beta, mu, prec


def _block_rows(m):
    """Rows for two full blocks of the integrated likelihood and a partial one."""
    data, _, _, _ = _default_panel_rows(1, 71, m)
    return 2 * (lpm._BLOCK_ELEMENTS // (data.num_subjects * 31 ** m)) + 7


class TestIntegratedLikelihoodBlocks:
    @pytest.mark.parametrize("m", [1, 2])
    def test_blocks_match_row_calls(self, m):
        data, beta, mu, prec = _default_panel_rows(_block_rows(m), 71, m)
        batch = lpm_loglik_integrated(beta, mu, prec, data)
        rows = np.array([lpm_loglik_integrated(beta[i], mu[i], prec[i], data)[0]
                         for i in range(len(beta))])
        assert np.all(np.isfinite(batch))
        assert np.array_equal(batch, rows)

    @pytest.mark.parametrize("m", [1, 2])
    def test_non_spd_precision_gives_minus_inf(self, m):
        data, beta, mu, prec = _default_panel_rows(5, 72, m)
        prec[1] = 0.0
        prec[2] = -np.eye(m)  # for m = 2, det(-I_2) > 0
        prec[3] = np.diag([1.0, -1.0][:m]) if m == 2 else -1e-300
        out = lpm_loglik_integrated(beta, mu, prec, data)
        assert np.all(out[1:4] == -np.inf)
        for i in (0, 4):
            assert out[i] == pytest.approx(
                lpm_loglik_integrated(beta[i], mu[i], prec[i], data)[0], rel=1e-13)

    def test_negative_definite_two_dim_precision_gives_minus_inf(self):
        # det(-I_2) > 0: only the leading minors show it is off the SPD cone
        data = lpm_synthetic(73, 4, 4, 1, 2, [0.2], [0.1, 0.05], 0.2 * np.eye(2))
        w = np.stack([5.0 * np.eye(2), -np.eye(2)])
        out = lpm_loglik_integrated([[0.2], [0.2]], [[0.1, 0.05]] * 2, w, data)
        assert np.isfinite(out[0]) and out[1] == -np.inf
        assert WishartParams(np.eye(2), 5).logpdf_batch(-np.eye(2))[0] == -np.inf
        prior = lpm_factors([0.0], [[4.0]], [0.0, 0.0], 4 * np.eye(2), 0.5 * np.eye(2), 4.0)
        kernel = LpmKernel(prior, data)
        thetas = kernel.layout.pack_batch({"beta": [[0.2], [0.2]], "mu": [[0.1, 0.05]] * 2,
                                           "sigma_inv": w})
        prior_vals = kernel.log_prior_batch(thetas)
        assert np.isfinite(prior_vals[0]) and prior_vals[1] == -np.inf

    @pytest.mark.parametrize("m", [1, 2])
    def test_wide_call_memory_is_bounded(self, m):
        data, beta, mu, prec = _default_panel_rows(5000, 74, m)
        tracemalloc.start()
        try:
            out = lpm_loglik_integrated(beta, mu, prec, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(out))
        assert peak < 32 * 2 ** 20


def _per_draw_loglik_m2(beta, mu, sigma_inv, data, nodes=31):
    """The m = 2 integrated likelihood as a loop over draws, one Newton solve
    and one nodes^2 product grid per draw, every period's exponential apart."""
    n, t = data.num_subjects, data.num_periods
    y = data.y.reshape(n, t)
    xg, wg = np.polynomial.hermite.hermgauss(nodes)
    grid_a, grid_b = np.meshgrid(xg, xg, indexing="ij")
    logw2 = (np.log(wg)[:, None] + np.log(wg)[None, :] + grid_a ** 2 + grid_b ** 2).ravel()
    grid = np.stack([grid_a.ravel(), grid_b.ravel()], axis=1)
    out = np.empty(len(beta))
    for si in range(len(beta)):
        w_mat = sigma_inv[si]
        eta0 = (data.offsets + data.x @ beta[si]).reshape(n, t)
        u = np.tile(mu[si], (n, 1))
        for _ in range(100):
            lam = np.exp(eta0 + np.einsum("itm,im->it", data.z, u))
            g1 = np.einsum("itm,it->im", data.z, y - lam) - (u - mu[si]) @ w_mat
            h = -np.einsum("itm,it,itl->iml", data.z, lam, data.z) - w_mat[None]
            step = np.linalg.solve(h, g1[:, :, None])[:, :, 0]
            u -= step
            if np.max(np.abs(step)) < 1e-10:
                break
        lam = np.exp(eta0 + np.einsum("itm,im->it", data.z, u))
        curv = np.einsum("itm,it,itl->iml", data.z, lam, data.z) + w_mat[None]
        chol_inv = np.linalg.cholesky(np.linalg.inv(curv))
        pts = u[:, None, :] + math.sqrt(2.0) * np.einsum("iml,gl->igm", chol_inv, grid)
        etas = eta0[:, None, :] + np.einsum("itm,igm->igt", data.z, pts)
        loglam = np.sum(y[:, None, :] * etas - np.exp(etas) - gammaln(y + 1.0)[:, None, :],
                        axis=2)
        dev = pts - mu[si]
        logprior = (-LOG_2PI + 0.5 * np.linalg.slogdet(w_mat)[1]
                    - 0.5 * np.einsum("igm,ml,igl->ig", dev, w_mat, dev))
        logdet_ci = np.linalg.slogdet(chol_inv)[1]
        per_subject = (log_sum_exp(loglam + logprior + logw2[None, :], axis=1)
                       + math.log(2.0) + logdet_ci)
        out[si] = per_subject.sum()
    return out


class TestProductGrid:
    """m = 2 rows in blocks give the per-draw loop's values."""

    @pytest.mark.parametrize("design", ["linear", "two-levels"])
    def test_rows_match_per_draw_loop(self, design):
        data, beta, mu, prec = _default_panel_rows(_block_rows(2), 77, 2)
        if design == "two-levels":
            z = data.z.copy()
            z[:, :, 1] = np.where(np.arange(data.num_periods) < 2, -0.5, 1.0)
            data = _with_z(data, z)
        groups = len(np.unique(data.z.transpose(1, 0, 2), axis=0))
        assert groups == {"linear": data.num_periods, "two-levels": 2}[design]
        got = lpm_loglik_integrated(beta, mu, prec, data)
        np.testing.assert_allclose(got, _per_draw_loglik_m2(beta, mu, prec, data),
                                   rtol=1e-13, atol=0.0)


def _per_period_integrate_m1(beta, mu, prec, log_prec, data, xg, node_terms):
    """The m = 1 block integration with one exponential per period, as it was
    before the periods were grouped by their z column."""
    n, t = data.num_subjects, data.num_periods
    b = beta.shape[0]
    eta0 = (data.offsets + beta @ data.x.T).reshape(b, n, t).transpose(2, 0, 1).copy()
    y = data.y.reshape(n, t).T[:, None, :]
    z = data.z[:, :, 0].T[:, None, :]
    yz = np.sum(y * z, axis=0)[0]
    y_eta0 = np.sum(y * eta0, axis=0)
    prec_col, mu_col = prec[:, None], mu[:, None]
    u = np.repeat(mu_col, n, axis=1)
    for _ in range(100):
        zlam = z * np.exp(eta0 + z * u)
        step = ((yz - np.sum(zlam, axis=0) - prec_col * (u - mu_col))
                / (-np.sum(z * zlam, axis=0) - prec_col))
        u -= step
        if np.max(np.abs(step)) < 1e-10:
            break
    curv = np.sum(z * z * np.exp(eta0 + z * u), axis=0) + prec_col
    sd = 1.0 / np.sqrt(curv)
    pts = (math.sqrt(2.0) * xg)[:, None, None] * sd
    pts += u
    exp_sum = np.zeros_like(pts)
    buf = np.empty_like(pts)
    for p in range(t):
        np.multiply(pts, z[p], out=buf)
        buf += eta0[p]
        exp_sum += np.exp(buf, out=buf)
    logint = pts * yz
    logint -= exp_sum
    dev = np.subtract(pts, mu_col, out=buf)
    dev *= dev
    dev *= 0.5 * prec_col
    logint -= dev
    logint += node_terms[:, None, None]
    per_subject = (log_sum_exp(logint, axis=0) + y_eta0 + np.log(sd)
                   + (0.5 * log_prec - 0.5 * LOG_2PI + 0.5 * math.log(2.0))[:, None])
    return per_subject.sum(axis=1)


def _with_z(data, z):
    return LpmData(data.y, data.x, z, data.num_subjects, data.num_periods, data.offsets)


class TestGroupedPeriods:
    """Periods grouped by z column give the per-period integration's rows."""

    @pytest.mark.parametrize("design", ["ones", "two-columns", "random"])
    def test_rows_match_per_period_formula(self, design):
        data, beta, mu, prec = _default_panel_rows(_block_rows(1), 75)
        n, t = data.num_subjects, data.num_periods
        if design == "two-columns":
            z = np.where(np.arange(t) < 2, 1.0, 0.5)[None, :, None] * np.ones((n, t, 1))
        elif design == "random":
            z = 1.0 + 0.3 * make_rng(76).standard_normal((n, t, 1))
        else:
            z = data.z
        data = _with_z(data, z)
        groups = len(np.unique(data.z[:, :, 0].T, axis=0))
        assert groups == {"ones": 1, "two-columns": 2, "random": t}[design]
        xg, wg = np.polynomial.hermite.hermgauss(31)
        want = (_per_period_integrate_m1(beta, mu[:, 0], prec[:, 0, 0], np.log(prec[:, 0, 0]),
                                         data, xg, xg ** 2 + np.log(wg))
                - np.sum(gammaln(data.y + 1.0)))
        got = lpm_loglik_integrated(beta, mu, prec, data)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestTwoEffectsExperiment:
    def test_default_estimators_run(self):
        table = run_experiment(ExperimentConfig(model="lpm", synth={"m": 2}, draws=500,
                                                burn_in=100, repetitions=2))
        rows = {r["method"]: r for r in table.rows}
        assert list(rows) == harness._DEFAULT_ESTIMATORS
        assert all(r["status"] == "ok" for r in table.rows), table.rows
        for method in ("ris-vb", "bs-vb"):
            assert math.isfinite(rows[method]["mean_log_mdd"])


class TestVb:
    def test_wishart_dof_update(self):
        data = lpm_synthetic(40, 59, 5, 2, 1, [0.3, -0.2], [0.1], [[0.4]])
        prior = lpm_factors(np.zeros(2), 4 * np.eye(2), [0.0], [[4.0]], [[0.5]], 4.0)
        vb = lpm_vb(LpmKernel(prior, data))
        assert vb.factors["sigma_inv"].dof == 63.0

    def test_flat_likelihood_returns_prior_mean(self):
        data = lpm_synthetic(41, 3, 3, 1, 1, [0.2], [0.0], [[0.2]])
        dead = LpmData(np.zeros(9), data.x, data.z, 3, 3, offsets=np.full(9, -40.0))
        prior = lpm_factors([0.7], [[2.0]], [0.1], [[1.5]], [[0.5]], 3.0)
        vb = lpm_vb(LpmKernel(prior, dead))
        assert vb.factors["beta"].mean[0] == pytest.approx(0.7, abs=1e-6)

    def test_micro_bound_below_quadrature_evidence(self, micro, monkeypatch):
        prior, data = micro
        monkeypatch.setattr(lpm, "_VB_TOL", 1e-10)
        monkeypatch.setattr(lpm, "_VB_MAX_ITER", 2000)
        vb = lpm_vb(LpmKernel(prior, data))

        def outer(bv):
            out = np.empty(len(bv))
            for ib, b in enumerate(bv):
                tot = sum(_brute_subject_integral(data, b, 0.2, 0.3, i) for i in range(2))
                out[ib] = tot - 0.5 * math.log(2 * math.pi * 4.0) - 0.5 * b * b / 4.0
            return out

        evidence = quadrature_1d(outer, -8.0, 8.0, tol=1e-9)
        assert vb.elbo <= evidence
        assert vb.elbo == pytest.approx(evidence, abs=0.2)

    def test_micro_bound_matches_monte_carlo(self, micro):
        # the complete-data log joint minus ln q, averaged over draws from q
        prior, data = micro
        vb = lpm_vb(LpmKernel(prior, data))
        rng, size = make_rng(33), 100_000
        gam = vb.hyper["gamma"].sample(rng, size)  # (beta, u_1, u_2)
        mu = vb.factors["mu"].sample(rng, size)[:, 0]
        w = vb.factors["sigma_inv"].sample(rng, size)[:, 0, 0]
        beta, u = gam[:, 0], gam[:, 1:]
        eta = data.offsets + beta[:, None] * data.x[:, 0] + np.repeat(u, 2, axis=1)
        log_joint = np.sum(data.y * eta - np.exp(eta) - gammaln(data.y + 1.0), axis=1)
        log_joint += -0.5 * math.log(2 * math.pi * 4.0) - 0.5 * beta ** 2 / 4.0
        log_joint += np.sum(-0.5 * LOG_2PI + 0.5 * np.log(w)[:, None]
                            - 0.5 * w[:, None] * (u - mu[:, None]) ** 2, axis=1)
        log_joint += -0.5 * math.log(2 * math.pi * 1e-8) - 0.5 * (mu - 0.2) ** 2 / 1e-8
        # a 1 x 1 Wishart W(1 / S0, nu0) is Gamma(nu0 / 2, rate S0 / 2)
        a0, b0 = 0.5e8, 0.5 * 0.3e8
        log_joint += a0 * math.log(b0) - gammaln(a0) + (a0 - 1.0) * np.log(w) - b0 * w
        log_q = (vb.hyper["gamma"].logpdf_batch(gam) + vb.factors["mu"].logpdf_batch(mu[:, None])
                 + vb.factors["sigma_inv"].logpdf_batch(w[:, None, None]))
        vals = log_joint - log_q
        assert vb.elbo == pytest.approx(vals.mean(), abs=4 * vals.std(ddof=1) / math.sqrt(size))

    def test_fixed_point_residual(self, micro, monkeypatch):
        prior, data = micro
        # the fit stops once its bound stops moving in floating point
        monkeypatch.setattr(lpm, "_VB_TOL", 1e-300)
        monkeypatch.setattr(lpm, "_VB_MAX_ITER", 5000)
        vb = lpm_vb(LpmKernel(prior, data))
        assert lpm_vb_gradient_residual(prior, data, vb) < 1e-8

    def test_divergence_guard_message(self, monkeypatch):
        data = lpm_synthetic(42, 10, 4, 1, 1, [0.4], [0.3], [[0.5]])
        prior = lpm_factors([0.0], [[4.0]], [0.0], [[4.0]], [[0.5]], 3.0)
        monkeypatch.setattr(lpm, "_VB_DAMPING", 1.0)
        monkeypatch.setattr(lpm, "_VB_MAX_ITER", 60)
        # damping = 1 may or may not diverge on this fixture; the API contract
        # is that a divergent path raises with advice rather than looping
        try:
            lpm_vb(LpmKernel(prior, data))
        except Exception as exc:
            assert "damping" in str(exc)


@pytest.fixture(scope="module")
def sampler_fit():
    data = lpm_synthetic(50, 15, 5, 2, 1, [0.3, -0.2], [0.1], [[0.3]])
    prior = lpm_factors(np.zeros(2), 4 * np.eye(2), [0.0], [[4.0]], [[0.5]], 3.0)
    kernel = LpmKernel(prior, data)
    return kernel, kernel.vb


class TestSampler:

    def test_determinism(self, sampler_fit):
        kernel, vb = sampler_fit
        cfg = SamplerConfig(draws=200, burn_in=150)
        a = kernel.posterior_sampler(cfg, make_rng(51, 1))
        b = kernel.posterior_sampler(cfg, make_rng(51, 1))
        assert np.array_equal(a.thetas, b.thetas)

    def test_posterior_mu_matches_vb(self, sampler_fit):
        kernel, vb = sampler_fit
        draws = kernel.posterior_sampler(SamplerConfig(draws=4000, burn_in=1000),
                                         make_rng(52))
        mu = kernel.layout.unpack_batch(draws.thetas)["mu"]
        se = mu.std(axis=0) / math.sqrt(150)  # conservative for MH autocorrelation
        assert np.all(np.abs(mu.mean(axis=0) - vb.factors["mu"].mean) < 3 * se)

    def test_dogmatic_predictive_mean(self):
        # with all parameters pinned, predictive mean follows the
        # lognormal-Poisson identity exp(a + x'b + z'mu + z'Sigma z / 2)
        data = lpm_synthetic(53, 400, 4, 1, 1, [0.4], [0.1], [[0.25]])
        t1_cells = data.y.reshape(400, 4)[:, 1:]
        x_t1 = data.x.reshape(400, 4)[:, 1:]
        expected = np.exp(math.log(2.0) + 0.4 * x_t1 + 0.1 + 0.125)
        assert t1_cells.mean() == pytest.approx(expected.mean(), rel=0.05)


def _reference_sampler(kernel, config, rng, vb):
    """The Metropolis-within-Gibbs loop as it was written before the
    per-subject likelihood was carried across steps: four Poisson evaluations
    per iteration."""
    d = kernel.data
    n, t, k, m = d.num_subjects, d.num_periods, d.k, d.m

    def poisson_loglik(xb, zu):
        eta = xb + zu.ravel()
        return float(d.y @ eta - np.sum(np.exp(eta)))

    def poisson_loglik_per_subject(xb, zu):
        eta = xb.reshape(n, t) + zu
        return np.sum(d.y.reshape(n, t) * eta - np.exp(eta), axis=1)

    chol_beta = safe_cholesky(vb.factors["beta"].cov)
    gamma_cov = vb.hyper["gamma"].cov
    u_chols = np.stack([safe_cholesky(gamma_cov[k + i * m: k + (i + 1) * m,
                                                k + i * m: k + (i + 1) * m])
                        for i in range(n)])
    target_beta = 0.44 if k == 1 else 0.234
    target_u = 0.44 if m == 1 else 0.234
    q_w = vb.factors["sigma_inv"]
    state = {"beta": vb.factors["beta"].mean.copy(),
             "u": vb.hyper["gamma"].mean[k:].reshape(n, m).copy(),
             "mu": vb.factors["mu"].mean.copy(),
             "sigma_inv": q_w.dof * np.linalg.inv(q_w.scale_inv)}
    step_beta, step_u = 2.38 / math.sqrt(k), np.full(n, 2.38 / math.sqrt(m))
    accept_beta = accept_u = 0
    total = config.burn_in + config.draws * config.thin
    thetas, latents = [], []
    xb = d.offsets + d.x @ state["beta"]
    zu = np.einsum("itm,im->it", d.z, state["u"])
    lp_beta = float(kernel.prior_factors["beta"].logpdf_batch(state["beta"])[0])
    for it in range(total):
        adapt = it < config.burn_in
        prop = state["beta"] + step_beta * (chol_beta @ rng.standard_normal(k))
        xb_prop = d.offsets + d.x @ prop
        lp_prop = float(kernel.prior_factors["beta"].logpdf_batch(prop)[0])
        delta = (poisson_loglik(xb_prop, zu) - poisson_loglik(xb, zu) + lp_prop - lp_beta)
        acc = math.log(rng.uniform()) <= delta
        if acc:
            state["beta"], xb, lp_beta = prop, xb_prop, lp_prop
        if adapt:
            step_beta = float(np.clip(step_beta * math.exp(
                0.05 * ((1.0 if acc else 0.0) - target_beta)), 1e-3, 50.0))
        elif acc:
            accept_beta += 1
        noise = rng.standard_normal((n, m))
        prop_u = state["u"] + step_u[:, None] * np.einsum("iml,il->im", u_chols, noise)
        w_mat = np.atleast_2d(state["sigma_inv"])
        zu_prop = np.einsum("itm,im->it", d.z, prop_u)
        cur = poisson_loglik_per_subject(xb, zu)
        new = poisson_loglik_per_subject(xb, zu_prop)
        dev_c = state["u"] - state["mu"]
        dev_p = prop_u - state["mu"]
        dprior = -0.5 * (np.einsum("im,ml,il->i", dev_p, w_mat, dev_p)
                         - np.einsum("im,ml,il->i", dev_c, w_mat, dev_c))
        acc_u = np.log(rng.uniform(size=n)) <= (new - cur + dprior)
        state["u"] = np.where(acc_u[:, None], prop_u, state["u"])
        zu = np.where(acc_u[:, None], zu_prop, zu)
        if adapt:
            step_u = np.clip(step_u * np.exp(0.05 * (acc_u.astype(float) - target_u)),
                             1e-3, 50.0)
        else:
            accept_u += float(np.mean(acc_u))
        state["mu"] = kernel.full_conditional("mu", state).sample(rng)
        state["sigma_inv"] = np.atleast_2d(kernel.full_conditional("sigma_inv", state).sample(rng))
        if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
            thetas.append(kernel.layout.pack(state))
            latents.append(state["u"].ravel())
    retained = total - config.burn_in
    for name, rate in [("beta", accept_beta / retained), ("u", accept_u / retained)]:
        if not 0.05 <= rate <= 0.95:
            warnings.warn(f"MH acceptance for {name} is {rate:.2f}", stacklevel=2)
    return np.array(thetas), np.array(latents)


def _recorded(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, [str(w.message) for w in caught]


class TestLeanSampler:
    """The sampler's draws and warnings equal the reference loop's."""

    @pytest.mark.parametrize("m, k", [(1, 2), (1, 1), (2, 2)])
    @pytest.mark.parametrize("wide_beta", [False, True])
    def test_matches_reference_loop(self, m, k, wide_beta):
        data = lpm_synthetic(80 + m + k, 12, 4, k, m, [0.3, -0.2][:k], [0.1] * m, 0.3 * np.eye(m))
        prior = lpm_factors(np.zeros(k), 4 * np.eye(k), np.zeros(m), 4 * np.eye(m),
                            0.5 * np.eye(m), m + 2.0)
        kernel = LpmKernel(prior, data)
        vb = kernel.vb
        if wide_beta:  # proposals far too wide: beta acceptance falls below 5% and warns
            beta = vb.factors["beta"]
            vb = kernel.vb = dataclasses.replace(vb, factors=vb.factors | {
                "beta": MvNormalParams(beta.mean, 1e4 * beta.cov)})
        config = SamplerConfig(draws=40, burn_in=25, thin=3)
        got, got_warnings = _recorded(
            lambda: kernel.posterior_sampler(config, make_rng(81, m, k)))
        (thetas, latents), want_warnings = _recorded(
            lambda: _reference_sampler(kernel, config, make_rng(81, m, k), vb))
        assert np.array_equal(got.thetas, thetas)
        assert np.array_equal(got.latents, latents)
        assert got_warnings == want_warnings
        assert any("beta" in w for w in got_warnings) == wide_beta

    def test_group_warns_chain_by_chain(self):
        # a group of three chains warns once per chain for the too-wide beta
        # proposal, in chain order, each at the rate that chain has alone
        data = lpm_synthetic(83, 12, 4, 2, 1, [0.3, -0.2], [0.1], 0.3 * np.eye(1))
        prior = lpm_factors(np.zeros(2), 4 * np.eye(2), np.zeros(1), 4 * np.eye(1),
                            0.5 * np.eye(1), 3.0)
        kernel = LpmKernel(prior, data)
        beta = kernel.vb.factors["beta"]
        kernel.vb = dataclasses.replace(kernel.vb, factors=kernel.vb.factors | {
            "beta": MvNormalParams(beta.mean, 20 * beta.cov)})
        config = SamplerConfig(draws=40, burn_in=25, thin=3)
        _, group = _recorded(lambda: kernel.posterior_chains(
            config, [make_rng(85, c) for c in range(3)]))
        alone = [w for c in range(3)
                 for w in _recorded(lambda: kernel.posterior_sampler(
                     config, make_rng(85, c)))[1]]
        assert group == alone
        beta_warnings = [w for w in group if "beta" in w]
        assert len(set(beta_warnings)) == len(beta_warnings) == 3  # so their order shows

    def test_group_of_sixteen_equals_each_chain_alone(self, sampler_fit):
        # every step's arithmetic is row by row, so no bit depends on the stack size
        kernel, _ = sampler_fit
        config = SamplerConfig(draws=20, burn_in=15, thin=3)
        group = kernel.posterior_chains(config, [make_rng(86, c) for c in range(16)])
        for c, chain in enumerate(group):
            alone = kernel.posterior_sampler(config, make_rng(86, c))
            assert np.array_equal(chain.thetas, alone.thetas), c
            assert np.array_equal(chain.latents, alone.latents), c


    def test_fresh_kernel_starts_from_its_own_fit(self, sampler_fit):
        # a kernel fits itself on first use; its chain is the one started from an
        # explicit lpm_vb fit: its means, and proposals from its covariance blocks
        kernel, _ = sampler_fit
        config = SamplerConfig(draws=20, burn_in=15, thin=3)
        fresh = LpmKernel(kernel.prior_factors, kernel.data)
        got = fresh.posterior_sampler(config, make_rng(87))
        other = LpmKernel(kernel.prior_factors, kernel.data)
        vb = lpm_vb(other)
        n, k, m = kernel.data.num_subjects, kernel.data.k, kernel.data.m
        gamma, q_w = vb.hyper["gamma"], vb.factors["sigma_inv"]
        u_covs = gamma.cov[k:, k:].reshape(n, m, n, m)[np.arange(n), :, np.arange(n)]
        start = stack_state({"beta": vb.factors["beta"].mean, "u": gamma.mean[k:].reshape(n, m),
                             "mu": vb.factors["mu"].mean,
                             "sigma_inv": q_w.dof * np.linalg.inv(q_w.scale_inv),
                             "_chol_beta": safe_cholesky(vb.factors["beta"].cov),
                             "_u_chols": safe_cholesky(u_covs)}, 1)
        want, = run_gibbs(other, start, config, [make_rng(87)])
        assert "vb" in vars(fresh) and "vb" not in vars(other)
        assert np.array_equal(got.thetas, want.thetas)
        assert np.array_equal(got.latents, want.latents)


class TestBetaStep:

    def test_targets_its_conditional(self):
        # a strong prior (beta0 = 1, Vbeta0 = 0.02) pulls beta's conditional
        # away from the likelihood's, so a wrong prior term in the accept
        # ratio shows; u, mu and Sigma^-1 stay at the VB start
        data = lpm_synthetic(91, 12, 4, 1, 1, [0.3], [0.1], 0.3 * np.eye(1))
        prior = lpm_factors([1.0], [[0.02]], [0.0], [[4.0]], [[0.5]], 3.0)
        kernel = LpmKernel(prior, data)
        chains = 32
        start = kernel.gibbs_start(chains)
        draws = run_gibbs(kernel, start, SamplerConfig(draws=400, burn_in=50),
                          [make_rng(92, c) for c in range(chains)],
                          clamped=frozenset({"u", "mu", "sigma_inv"}))
        beta = np.stack([d.thetas[:, 0] for d in draws])  # (chains, draws)
        # beta's conditional: the Poisson likelihood at the clamped u times the prior
        zu = np.einsum("itm,im->it", data.z, start["u"][0]).ravel()

        def log_f(b, b0):
            eta = (data.offsets + zu)[:, None] + data.x[:, :1] * b
            return data.y @ eta - np.exp(eta).sum(axis=0) - 0.5 * (b - b0) ** 2 / 0.02

        _, (mean, second) = quadrature_expectations(log_f, (1.0,), -2.0, 4.0,
                                                    (lambda b: b, lambda b: b * b))
        for stat, want in ((beta, mean), ((beta - mean) ** 2, second - mean ** 2)):
            per_chain = stat.mean(axis=1)
            z = (per_chain.mean() - want) / (per_chain.std(ddof=1) / math.sqrt(chains))
            assert abs(z) < 4, z


class TestSynthetic:
    def test_offset_scheme_controls_baseline(self):
        data = lpm_synthetic(60, 800, 5, 1, 1, [0.0], [0.0], [[1e-12]])
        counts = data.y.reshape(800, 5)
        assert counts[:, 0].mean() == pytest.approx(8.0, rel=0.05)
        assert counts[:, 1:].mean() == pytest.approx(2.0, rel=0.05)

    def test_determinism(self):
        a = lpm_synthetic(61, 10, 4, 2, 1, [0.2, 0.1], [0.0], [[0.3]])
        b = lpm_synthetic(61, 10, 4, 2, 1, [0.2, 0.1], [0.0], [[0.3]])
        assert np.array_equal(a.y, b.y)

    def test_overdispersion_with_large_sigma(self):
        tight = lpm_synthetic(62, 2000, 4, 1, 1, [0.0], [0.0], [[1e-10]])
        loose = lpm_synthetic(62, 2000, 4, 1, 1, [0.0], [0.0], [[1.0]])
        def vm(data):
            c = data.y.reshape(-1, 4)[:, 1:]
            return c.var() / c.mean()
        assert vm(tight) == pytest.approx(1.0, abs=0.1)
        assert vm(loose) > 2.0


class TestCsv:
    def test_defaults_applied_without_offset_column(self, tmp_path):
        path = tmp_path / "counts.csv"
        lines = ["subject_id,period,count,x1"]
        rng = make_rng(63)
        for s in ["p1", "p2"]:
            for per in ["0", "1", "2"]:
                lines.append(f"{s},{per},{int(rng.integers(0, 9))},{float(rng.normal())!r}")
        path.write_text("\n".join(lines) + "\n")
        data = lpm_read_csv(path)
        assert data.num_subjects == 2 and data.num_periods == 3
        assert data.offsets[0] == pytest.approx(math.log(8.0))
        assert data.offsets[1] == pytest.approx(math.log(2.0))

    def test_offset_column_respected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("subject_id,period,count,x1,offset\n"
                        "a,0,3,0.5,0.0\na,1,2,0.1,0.0\nb,0,4,0.2,0.0\nb,1,1,0.3,0.0\n")
        data = lpm_read_csv(path)
        assert np.all(data.offsets == 0.0)
