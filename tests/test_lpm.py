"""Longitudinal Poisson model: NCVMP fit, integrated likelihood, sampler."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from mddkit import lpm
from mddkit.errors import ConfigError
from mddkit.lpm import (
    LpmData,
    LpmKernel,
    LpmPrior,
    lpm_loglik_integrated,
    lpm_read_csv,
    lpm_synthetic,
    lpm_vb,
    lpm_vb_gradient_residual,
)
from mddkit.modelapi import SamplerConfig
from mddkit.statscore import WishartParams, make_rng, quadrature_1d

# an overflow or invalid value in the integration or the sampler fails a test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def micro():
    data = lpm_synthetic(32, 2, 2, 1, 1, [0.3], [0.2], [[0.3]])
    # dogmatic prior pins mu = 0.2, Sigma = 0.3
    prior = LpmPrior([0.0], [[4.0]], [0.2], [[1e-8]], [[0.3e8]], 1e8)
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
    def test_matches_brute_quadrature(self, micro):
        _, data = micro
        got = lpm_loglik_integrated([0.25], [0.2], [[1 / 0.3]], data, nodes=41)[0]
        oracle = sum(_brute_subject_integral(data, 0.25, 0.2, 0.3, i) for i in range(2))
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_zero_counts_huge_negative_offsets(self, micro):
        _, data = micro
        dead = LpmData(np.zeros(4), data.x, data.z, 2, 2, offsets=np.full(4, -40.0))
        val = lpm_loglik_integrated([0.25], [0.2], [[1 / 0.3]], dead, nodes=41)[0]
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_monotone_in_counts_above_mean(self, micro):
        _, data = micro
        base = np.array(data.y)
        bumped = base.copy()
        bumped[0] += 5  # already above its conditional mean
        d2 = LpmData(bumped, data.x, data.z, 2, 2, offsets=data.offsets)
        v1 = lpm_loglik_integrated([0.25], [0.2], [[1 / 0.3]], data, nodes=41)[0]
        v2 = lpm_loglik_integrated([0.25], [0.2], [[1 / 0.3]], d2, nodes=41)[0]
        assert v2 < v1

    def test_two_dim_random_effects(self):
        data = lpm_synthetic(35, 4, 4, 1, 2, [0.2], [0.1, 0.05], 0.2 * np.eye(2))
        w = np.linalg.inv(0.2 * np.eye(2))
        got = lpm_loglik_integrated([0.2], [0.1, 0.05], w, data, nodes=25)[0]
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

    def test_node_floor(self, micro):
        _, data = micro
        with pytest.raises(ValueError):
            lpm_loglik_integrated([0.1], [0.2], [[1.0]], data, nodes=11)


def _default_panel_rows(size, seed):
    """The harness's default 20 x 5 panel and ``size`` parameter rows near its truth."""
    data = lpm_synthetic(70, 20, 5, 2, 1, [0.3, -0.2], [0.1], [[0.3]])
    rng = make_rng(seed)
    beta = np.array([0.3, -0.2]) + 0.1 * rng.standard_normal((size, 2))
    mu = 0.1 + 0.2 * rng.standard_normal((size, 1))
    prec = (np.exp(0.5 * rng.standard_normal(size)) / 0.3)[:, None, None]
    return data, beta, mu, prec


class TestIntegratedLikelihoodBlocks:
    def test_blocks_match_row_calls(self):
        # two full blocks and a partial one
        data, _, _, _ = _default_panel_rows(1, 71)
        size = 2 * (lpm._BLOCK_ELEMENTS // (data.num_subjects * 31)) + 7
        data, beta, mu, prec = _default_panel_rows(size, 71)
        batch = lpm_loglik_integrated(beta, mu, prec, data)
        rows = np.array([lpm_loglik_integrated(beta[i], mu[i], prec[i], data)[0]
                         for i in range(size)])
        assert np.allclose(batch, rows, rtol=1e-13, atol=0.0)

    def test_non_spd_precision_gives_minus_inf(self):
        data, beta, mu, prec = _default_panel_rows(4, 72)
        prec[1] = 0.0
        prec[2] = -1.0
        out = lpm_loglik_integrated(beta, mu, prec, data)
        assert out[1] == -np.inf and out[2] == -np.inf
        for i in (0, 3):
            assert out[i] == pytest.approx(
                lpm_loglik_integrated(beta[i], mu[i], prec[i], data)[0], rel=1e-13)

    def test_negative_definite_two_dim_precision_gives_minus_inf(self):
        # det(-I_2) > 0: only the leading minors show it is off the SPD cone
        data = lpm_synthetic(73, 4, 4, 1, 2, [0.2], [0.1, 0.05], 0.2 * np.eye(2))
        w = np.stack([5.0 * np.eye(2), -np.eye(2)])
        out = lpm_loglik_integrated([[0.2], [0.2]], [[0.1, 0.05]] * 2, w, data)
        assert np.isfinite(out[0]) and out[1] == -np.inf
        assert WishartParams(np.eye(2), 5).logpdf_batch(-np.eye(2))[0] == -np.inf
        prior = LpmPrior([0.0], [[4.0]], [0.0, 0.0], 4 * np.eye(2), 0.5 * np.eye(2), 4.0)
        kernel = LpmKernel(prior, data)
        thetas = kernel.layout.pack_batch({"beta": [[0.2], [0.2]], "mu": [[0.1, 0.05]] * 2,
                                           "sigma_inv": w})
        prior_vals = kernel.log_prior_batch(thetas)
        assert np.isfinite(prior_vals[0]) and prior_vals[1] == -np.inf

    def test_wide_call_memory_is_bounded(self):
        data, beta, mu, prec = _default_panel_rows(5000, 74)
        tracemalloc.start()
        try:
            out = lpm_loglik_integrated(beta, mu, prec, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(out))
        assert peak < 32 * 2 ** 20


class TestVb:
    def test_wishart_dof_update(self):
        data = lpm_synthetic(40, 59, 5, 2, 1, [0.3, -0.2], [0.1], [[0.4]])
        prior = LpmPrior(np.zeros(2), 4 * np.eye(2), [0.0], [[4.0]], [[0.5]], 4.0)
        vb = lpm_vb(prior, data)
        assert vb.hyper["nu"] == 63.0

    def test_flat_likelihood_returns_prior_mean(self):
        data = lpm_synthetic(41, 3, 3, 1, 1, [0.2], [0.0], [[0.2]])
        dead = LpmData(np.zeros(9), data.x, data.z, 3, 3, offsets=np.full(9, -40.0))
        prior = LpmPrior([0.7], [[2.0]], [0.1], [[1.5]], [[0.5]], 3.0)
        vb = lpm_vb(prior, dead)
        assert vb.hyper["beta"].mean[0] == pytest.approx(0.7, abs=1e-6)

    def test_micro_bound_below_quadrature_evidence(self, micro):
        prior, data = micro
        vb = lpm_vb(prior, data, tol=1e-10, max_iter=2000)

        def outer(bv):
            out = np.empty(len(bv))
            for ib, b in enumerate(bv):
                tot = sum(_brute_subject_integral(data, b, 0.2, 0.3, i) for i in range(2))
                out[ib] = tot - 0.5 * math.log(2 * math.pi * 4.0) - 0.5 * b * b / 4.0
            return out

        evidence = quadrature_1d(outer, -8.0, 8.0, tol=1e-9)
        assert vb.elbo <= evidence
        assert vb.elbo == pytest.approx(evidence, abs=0.2)

    def test_fixed_point_residual(self, micro):
        prior, data = micro
        vb = lpm_vb(prior, data, tol=1e-12, max_iter=5000, grad_tol=1e-9)
        assert lpm_vb_gradient_residual(prior, data, vb) < 1e-8

    def test_divergence_guard_message(self):
        data = lpm_synthetic(42, 10, 4, 1, 1, [0.4], [0.3], [[0.5]])
        prior = LpmPrior([0.0], [[4.0]], [0.0], [[4.0]], [[0.5]], 3.0)
        # damping = 1 may or may not diverge on this fixture; the API contract
        # is that a divergent path raises with advice rather than looping
        try:
            lpm_vb(prior, data, damping=1.0, max_iter=60)
        except Exception as exc:
            assert "damping" in str(exc)


@pytest.fixture(scope="module")
def sampler_fit():
    data = lpm_synthetic(50, 15, 5, 2, 1, [0.3, -0.2], [0.1], [[0.3]])
    prior = LpmPrior(np.zeros(2), 4 * np.eye(2), [0.0], [[4.0]], [[0.5]], 3.0)
    kernel = LpmKernel(prior, data)
    vb = lpm_vb(prior, data)
    return kernel, vb


class TestSampler:

    def test_determinism(self, sampler_fit):
        kernel, vb = sampler_fit
        cfg = SamplerConfig(draws=200, burn_in=150)
        a = kernel.posterior_sampler(cfg, make_rng(51, 1), vb=vb)
        b = kernel.posterior_sampler(cfg, make_rng(51, 1), vb=vb)
        assert np.array_equal(a.thetas, b.thetas)

    def test_posterior_mu_matches_vb(self, sampler_fit):
        kernel, vb = sampler_fit
        draws = kernel.posterior_sampler(SamplerConfig(draws=4000, burn_in=1000),
                                         make_rng(52), vb=vb)
        mu = kernel.layout.unpack_batch(draws.thetas)["mu"]
        se = mu.std(axis=0) / math.sqrt(150)  # conservative for MH autocorrelation
        assert np.all(np.abs(mu.mean(axis=0) - vb.hyper["mu"].mean) < 3 * se)

    def test_dogmatic_predictive_mean(self):
        # with all parameters pinned, predictive mean follows the
        # lognormal-Poisson identity exp(a + x'b + z'mu + z'Sigma z / 2)
        data = lpm_synthetic(53, 400, 4, 1, 1, [0.4], [0.1], [[0.25]])
        t1_cells = data.y.reshape(400, 4)[:, 1:]
        x_t1 = data.x.reshape(400, 4)[:, 1:]
        expected = np.exp(math.log(2.0) + 0.4 * x_t1 + 0.1 + 0.125)
        assert t1_cells.mean() == pytest.approx(expected.mean(), rel=0.05)


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
