"""Estimator engine and weighting-density tests on exactly solvable models."""

import math

import numpy as np
import pytest

from mddkit import estimators, harness
from mddkit.errors import EstimationError, UnsupportedModelError
from mddkit.estimators import (
    MddEstimate,
    _kernel_mode,
    bs_estimate,
    chib_estimate,
    chm_estimate,
    is_estimate,
    make_geweke_weighting,
    make_normal_weighting,
    make_pmd_weighting,
    make_prior_weighting,
    make_swz_weighting,
    make_vb_weighting,
    ris_estimate,
)
from mddkit.modelapi import (
    Block,
    ModelKernel,
    ParamLayout,
    PosteriorDrawSet,
    SamplerConfig,
    WeightingDensity,
)
from mddkit.statscore import MvNormalParams, log_sum_exp, make_rng, quadrature_1d
from toys import ToyNormalGammaKernel, ToyNormalKernel


@pytest.fixture(scope="module")
def toy():
    rng = make_rng(100)
    kernel = ToyNormalKernel(rng.normal(0.6, 1.0, 10))
    draws = kernel.posterior_sampler(SamplerConfig(draws=4000, burn_in=0), make_rng(101))
    return kernel, draws, kernel.exact_log_mdd()


@pytest.fixture(scope="module")
def normal_gamma():
    rng = make_rng(200)
    kernel = ToyNormalGammaKernel(rng.normal(1.4, 0.8, 20))
    draws = kernel.posterior_sampler(SamplerConfig(draws=8000, burn_in=500), make_rng(201))
    vb = kernel.vb_fit()
    log_k = kernel.log_kernel_batch(draws.thetas)
    return kernel, draws, vb, log_k, kernel.exact_log_mdd()


class TwoBlockIndependent(ModelKernel):
    """Two unrelated scalar-mean problems in one kernel: the posterior factorizes,
    so the product of marginals equals the joint posterior exactly."""

    conditional_blocks = ["t1", "t2"]

    def __init__(self, y1, y2):
        self.k1 = ToyNormalKernel(y1)
        self.k2 = ToyNormalKernel(y2)
        self.layout = ParamLayout([Block("t1", ()), Block("t2", ())])

    def log_prior_batch(self, thetas):
        thetas = np.atleast_2d(thetas)
        return (self.k1.log_prior_batch(thetas[:, :1])
                + self.k2.log_prior_batch(thetas[:, 1:]))

    def log_likelihood_batch(self, thetas):
        thetas = np.atleast_2d(thetas)
        return (self.k1.log_likelihood_batch(thetas[:, :1])
                + self.k2.log_likelihood_batch(thetas[:, 1:]))

    def full_conditional(self, name, state):
        k = self.k1 if name == "t1" else self.k2
        return k.full_conditional("theta", {"theta": state[name]})

    def exact_log_mdd(self):
        return self.k1.exact_log_mdd() + self.k2.exact_log_mdd()

    def posterior_sampler(self, config, rng):
        d1 = self.k1.post_mean + math.sqrt(self.k1.post_var) * rng.standard_normal(config.draws)
        d2 = self.k2.post_mean + math.sqrt(self.k2.post_var) * rng.standard_normal(config.draws)
        return PosteriorDrawSet(np.column_stack([d1, d2]), self.layout)


class TestRis:
    def test_zero_variance_with_exact_posterior(self, toy):
        kernel, draws, exact = toy
        est = ris_estimate(kernel, draws, make_vb_weighting(kernel.vb_fit()))
        assert est.log_mdd == pytest.approx(exact, abs=1e-9)
        assert np.std(est.extras["log_terms"]) == pytest.approx(0.0, abs=1e-9)

    def test_matches_quadrature_oracle(self, normal_gamma):
        kernel, draws, vb, log_k, exact = normal_gamma
        est = ris_estimate(kernel, draws, make_vb_weighting(vb), log_k)
        assert est.log_mdd == pytest.approx(exact, abs=0.02)

    def test_disjoint_weighting_raises(self, toy):
        kernel, draws, _ = toy
        dead = WeightingDensity("dead", lambda t: np.full(len(np.atleast_2d(t)), -np.inf))
        with pytest.raises(EstimationError):
            ris_estimate(kernel, draws, dead)

    def test_prior_weighting_is_harmonic_mean_by_hand(self):
        kernel = ToyNormalKernel(np.array([0.2, -0.1]))
        thetas = np.array([[0.0], [0.3], [-0.2]])
        draws = PosteriorDrawSet(thetas, kernel.layout)
        est = ris_estimate(kernel, draws, make_prior_weighting(kernel))
        liks = kernel.log_likelihood_batch(thetas)
        hand = -(math.log(sum(math.exp(-l) for l in liks) / 3.0))
        assert est.log_mdd == pytest.approx(hand, abs=1e-12)

    def test_batch_means_se_available(self, normal_gamma, monkeypatch):
        kernel, draws, vb, log_k, _ = normal_gamma
        est = ris_estimate(kernel, draws, make_vb_weighting(vb), log_k)
        monkeypatch.setattr(estimators, "_SE_BATCHES", 20)
        se = est.se_batch_means()
        assert 0.0 < se < 0.1


class TestBatchMeansSe:
    def test_matches_iid_delta_method(self):
        terms = make_rng(520).normal(0.0, 0.3, 30_000)
        est = MddEstimate(log_mdd=0.0, method="ris-test", extras={"log_terms": terms})
        w = np.exp(terms)
        iid = np.std(w, ddof=1) / np.mean(w) / math.sqrt(terms.size)
        assert 0.6 < est.se_batch_means() / iid < 1.5

    def test_all_minus_inf_batch_gives_finite_se(self):
        terms = make_rng(521).normal(0.0, 0.3, 3000)
        terms[:100] = -np.inf  # the first of 30 batches carries no weight
        est = MddEstimate(log_mdd=0.0, method="ris-test", extras={"log_terms": terms})
        se = est.se_batch_means()
        assert np.isfinite(se) and se > 0.0


class TestIsAndBs:
    def test_is_with_prior_matches_exact(self, toy):
        # f = prior makes IS the brute-force arithmetic-mean oracle
        kernel, _, exact = toy
        prior = MvNormalParams([kernel.prior_mean], [[kernel.prior_var]])
        f = WeightingDensity("prior-iid",
                             lambda t: prior.logpdf_batch(np.atleast_2d(t)),
                             lambda rng, n: prior.sample(rng, n))
        vals = [is_estimate(kernel, f, 20_000, make_rng(300, r)).log_mdd for r in range(8)]
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert np.mean(vals) == pytest.approx(exact, abs=3 * se + 1e-4)

    def test_is_and_ris_agree_for_zero_variance_weighting(self, toy):
        kernel, draws, exact = toy
        h = make_vb_weighting(kernel.vb_fit())
        a = ris_estimate(kernel, draws, h)
        b = is_estimate(kernel, h, 2000, make_rng(301))
        assert a.log_mdd == pytest.approx(b.log_mdd, abs=1e-9)
        assert a.log_mdd == pytest.approx(exact, abs=1e-9)

    def test_bs_exact_posterior_converges_first_step(self, toy):
        kernel, draws, exact = toy
        est = bs_estimate(kernel, draws, make_vb_weighting(kernel.vb_fit()), rng=make_rng(302))
        assert est.iterations == 1
        assert est.log_mdd == pytest.approx(exact, abs=1e-9)

    def test_bs_fixed_point_and_iteration_budget(self, normal_gamma):
        kernel, draws, vb, log_k, exact = normal_gamma
        est = bs_estimate(kernel, draws, make_vb_weighting(vb), rng=make_rng(303),
                          log_kernel_values=log_k)
        assert est.iterations <= 20
        assert est.log_mdd == pytest.approx(exact, abs=0.02)
        trace = est.extras["trace"]
        assert abs(trace[-1] - trace[-2]) < 1e-10

    def test_bs_requires_sampler(self, normal_gamma):
        kernel, draws, vb, log_k, _ = normal_gamma
        with pytest.raises(UnsupportedModelError):
            bs_estimate(kernel, draws, make_prior_weighting(kernel), rng=make_rng(304))


class TestDominance:
    def test_vb_weighting_finite_at_every_chain_draw(self, normal_gamma):
        # the fitted approximation never assigns zero mass where the
        # posterior kernel is positive, so every reciprocal term is finite
        kernel, draws, vb, log_k, _ = normal_gamma
        log_q = vb.log_q(draws.thetas)
        assert np.all(np.isfinite(log_q))
        assert np.all(np.isfinite(log_q - log_k))


class TestGewekeWeighting:
    def test_center_value_formula(self):
        layout = ParamLayout([Block("theta", ())])
        z = make_rng(400).standard_normal(50_000)
        z = (z - z.mean()) / z.std(ddof=1)  # exact (0, 1) sample moments
        draws = PosteriorDrawSet(z[:, None], layout)
        w = make_geweke_weighting(draws)
        val = w.log_eval(np.array([[0.0]]))[0]
        assert val == pytest.approx(math.log((1 / 0.95) * (2 * math.pi) ** -0.5), abs=1e-6)
        assert math.exp(val) == pytest.approx(0.419947, abs=1e-5)

    def test_indicator_kills_tail(self):
        layout = ParamLayout([Block("theta", ())])
        z = make_rng(401).standard_normal(50_000)
        z = (z - z.mean()) / z.std(ddof=1)
        draws = PosteriorDrawSet(z[:, None], layout)
        w = make_geweke_weighting(draws)
        # radius^2 = 3.85 exceeds the 95% chi-square threshold 3.8415
        assert w.log_eval(np.array([[math.sqrt(3.85)]]))[0] == -np.inf
        assert np.isfinite(w.log_eval(np.array([[math.sqrt(3.83)]]))[0])

    def test_integrates_to_one_in_1d(self):
        layout = ParamLayout([Block("theta", ())])
        z = make_rng(402).standard_normal(50_000)
        z = (z - z.mean()) / z.std(ddof=1)
        draws = PosteriorDrawSet(z[:, None], layout)
        w = make_geweke_weighting(draws)
        # split at the truncation radius so each piece is smooth
        r = math.sqrt(3.8414588206941267)
        total = math.exp(quadrature_1d(lambda v: w.log_eval(v[:, None]), -r, 0.0, tol=1e-12)) \
            + math.exp(quadrature_1d(lambda v: w.log_eval(v[:, None]), 0.0, r, tol=1e-12))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_positive_block_jacobian(self, normal_gamma):
        # normal weighting shares the transform machinery; it must normalize
        kernel, draws, _, _, _ = normal_gamma
        w = make_normal_weighting(draws)

        def inner(tau_vec):
            out = np.empty(len(tau_vec))
            for i, tau in enumerate(tau_vec):
                f = lambda mu: w.log_eval(np.column_stack([mu, np.full(len(mu), tau)]))
                out[i] = quadrature_1d(f, -40, 40, tol=1e-10)
            return out

        assert quadrature_1d(inner, 0.0, np.inf, tol=1e-8) == pytest.approx(0.0, abs=1e-6)


class TestSwzWeighting:
    def test_mode_matches_posterior_mean_on_gaussian(self, toy):
        kernel, draws, _ = toy
        w = make_swz_weighting(kernel, draws)
        # for a Gaussian posterior the kernel mode equals the posterior mean;
        # probe: density is finite near the mode, dead far away
        assert np.isfinite(w.log_eval(np.array([[kernel.post_mean + 0.01]]))[0])
        assert w.log_eval(np.array([[kernel.post_mean + 50.0]]))[0] == -np.inf

    def test_chain_fraction_near_coverage(self, toy):
        kernel, draws, _ = toy
        w = make_swz_weighting(kernel, draws)
        frac = np.mean(np.isfinite(w.log_eval(draws.thetas)))
        assert frac == pytest.approx(0.9, abs=0.02)

    def test_radial_density_normalizes_untruncated(self, toy, monkeypatch):
        kernel, draws, _ = toy
        monkeypatch.setattr(estimators, "_SWZ_COVERAGE", 1.0 - 1e-12)
        w = make_swz_weighting(kernel, draws)

        def log_eval(v):
            return w.log_eval(np.reshape(v, (-1, 1)))

        def edge(live, dead):
            # bisect between a live and a dead abscissa down to adjacent floats
            while (mid := 0.5 * (live + dead)) not in (live, dead):
                live, dead = (mid, dead) if np.isfinite(log_eval(mid)[0]) else (live, mid)
            return live

        # the weighting is smooth where it is finite and jumps to -inf at the
        # edges of its support: locate each edge, then integrate each live piece
        grid = np.linspace(-10.0, 10.0, 2001)
        alive = np.isfinite(log_eval(grid))
        assert not alive[0] and not alive[-1]
        edges = [edge(grid[i], grid[i + 1]) if alive[i] else edge(grid[i + 1], grid[i])
                 for i in np.flatnonzero(alive[1:] != alive[:-1])]
        pieces = [quadrature_1d(log_eval, a, b, tol=1e-12)
                  for a, b in zip(edges[::2], edges[1::2])]
        assert log_sum_exp(pieces) == pytest.approx(0.0, abs=1e-9)


    def test_kernel_mode_is_closed_form_var_mode(self):
        # conjugate VAR: the kernel peaks at A = A_post and W = (K + nu - N - 1) inv(S_post)
        kernel = harness.build_context(harness.ExperimentConfig(model="var-conjugate"))
        draws = kernel.posterior_sampler(SamplerConfig(draws=2000, burn_in=0), make_rng(520))
        layout = kernel.layout
        phis, _ = layout.to_unconstrained_batch(draws.thetas)
        start = phis[int(np.argmax(kernel.log_kernel_batch(draws.thetas)))]
        mode = layout.from_unconstrained(_kernel_mode(kernel, layout, start))[0]
        post, n, k = kernel._post, kernel.data.N, kernel.data.K
        expected = layout.pack({"alpha": post.A.ravel(),
                                "sigma_inv": (k + post.nu - n - 1) * np.linalg.inv(post.S)})
        assert np.allclose(mode, expected, rtol=1e-6, atol=1e-6)


class TestPmdWeighting:
    def test_single_block_equals_rao_blackwell_posterior(self, toy):
        kernel, draws, exact = toy
        w = make_pmd_weighting(kernel, draws)
        est = ris_estimate(kernel, draws, w)
        # conditional independent of the state: PMD is the exact posterior
        assert est.log_mdd == pytest.approx(exact, abs=1e-9)

    def test_independent_blocks_give_zero_variance(self):
        rng = make_rng(500)
        kernel = TwoBlockIndependent(rng.normal(0.5, 1, 8), rng.normal(-1.0, 1, 6))
        draws = kernel.posterior_sampler(SamplerConfig(draws=3000), make_rng(501))
        est = ris_estimate(kernel, draws, make_pmd_weighting(kernel, draws))
        assert est.log_mdd == pytest.approx(kernel.exact_log_mdd(), abs=1e-9)
        assert np.std(est.extras["log_terms"]) == pytest.approx(0.0, abs=1e-9)

    def test_sampler_targets_pmd_density(self, normal_gamma):
        kernel, draws, _, log_k, exact = normal_gamma
        w = make_pmd_weighting(kernel, draws, components=256)
        est = is_estimate(kernel, w, 20_000, make_rng(502))
        assert est.log_mdd == pytest.approx(exact, abs=0.05)

    def test_sampler_targets_pmd_density_on_matrix_blocks(self):
        # var-conjugate stacks a normal and a Wishart conditional; its evidence is exact
        kernel = harness.build_context(harness.ExperimentConfig(model="var-conjugate"))
        draws = kernel.posterior_sampler(SamplerConfig(draws=2000, burn_in=0), make_rng(510))
        w = make_pmd_weighting(kernel, draws, components=256)
        est = is_estimate(kernel, w, 20_000, make_rng(511))
        assert est.log_mdd == pytest.approx(kernel.exact_log_mdd(), abs=0.02)

    @pytest.mark.parametrize("model", ["lpm", "sfm-gamma"])
    def test_uncovered_blocks_leave_no_sampler(self, model):
        # the conditionals leave out lpm's beta and sfm-gamma's theta: no draw can be built
        kernel = harness.build_context(harness.ExperimentConfig(model=model))
        draws = kernel.posterior_sampler(SamplerConfig(draws=200, burn_in=50), make_rng(530))
        w = make_pmd_weighting(kernel, draws, components=64)
        with pytest.raises(UnsupportedModelError, match="'pmd' cannot be sampled from"):
            is_estimate(kernel, w, 100, make_rng(531))

    def test_missing_conditionals_raise(self, toy):
        kernel, draws, _ = toy

        class NoCond(ModelKernel):
            layout = kernel.layout
            conditional_blocks = []

        with pytest.raises(UnsupportedModelError):
            make_pmd_weighting(NoCond(), draws)


_PMD_MODELS = ["var-conjugate", "var-independent", "sfm-exponential", "sfm-gamma", "lpm",
               "normal-gamma"]


@pytest.fixture(scope="module")
def pmd_chains():
    """A kernel and a 600-draw chain per model, built on first use."""
    chains = {}

    def get(model):
        if model not in chains:
            if model == "normal-gamma":
                kernel = ToyNormalGammaKernel(make_rng(540).normal(1.4, 0.8, 20))
                draws = kernel.posterior_sampler(SamplerConfig(draws=600, burn_in=100),
                                                 make_rng(541))
            else:
                config = harness.ExperimentConfig(model=model, draws=600, burn_in=100,
                                                  base_seed=542)
                kernel = harness.build_context(config)
                draws = harness.sample_chain(kernel, config, 0)
            chains[model] = kernel, draws
        return chains[model]

    return get


def _pmd_components(draws, components):
    if components >= draws.size:
        return np.arange(draws.size)
    return np.linspace(0, draws.size - 1, components).round().astype(int)


def _pmd_reference_log_eval(kernel, draws, components, thetas, rows_per_call):
    """PMD by its formula: per block, the log mean of the block's conditional
    densities over the component states, summed over the blocks, with one
    ``logpdf_batch`` call per ``rows_per_call`` points."""
    idx = _pmd_components(draws, components)
    states = draws.unpack(idx)
    total = np.zeros(len(thetas))
    for lo in range(0, len(thetas), rows_per_call):
        points = draws.layout.unpack_batch(thetas[lo:lo + rows_per_call])
        for name in kernel.conditional_blocks:
            comp = kernel.full_conditional(name, states).logpdf_batch(points[name])
            total[lo:lo + rows_per_call] += log_sum_exp(comp, axis=0) - math.log(len(idx))
    return total


def _pmd_reference_sample(kernel, draws, components, rng, size):
    """PMD draws with each block's conditionals rebuilt from the chosen states."""
    idx = _pmd_components(draws, components)
    states = draws.unpack(idx)
    out = {}
    for name in kernel.conditional_blocks:
        choice = rng.integers(0, len(idx), size=size)
        chosen = {k: v[choice] for k, v in states.items()}
        out[name] = kernel.full_conditional(name, chosen).sample(rng)
    return draws.layout.pack_batch(out)


class TestPmdAgainstReference:
    @pytest.mark.parametrize("model", _PMD_MODELS)
    def test_log_eval_across_block_edges(self, model, pmd_chains):
        kernel, draws = pmd_chains(model)
        cases = [(512, n) for n in (1, 255, 256, 257, 515)] + [(draws.size, draws.size)]
        for components, n in cases:
            w = make_pmd_weighting(kernel, draws, components=components)
            thetas = draws.thetas[:n]
            got = w.log_eval(thetas)
            # the same arithmetic in blocks of the element budget's row count ...
            rows = 2 ** 17 // len(_pmd_components(draws, components))
            ref = _pmd_reference_log_eval(kernel, draws, components, thetas, rows)
            assert np.array_equal(got, ref), (components, n)
            # ... while one product over all points may round its last bits differently
            ref_all = _pmd_reference_log_eval(kernel, draws, components, thetas, n)
            np.testing.assert_allclose(got, ref_all, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("model", ["var-conjugate", "var-independent", "sfm-exponential",
                                       "normal-gamma"])
    def test_sampler_matches_rebuilt_conditionals(self, model, pmd_chains):
        kernel, draws = pmd_chains(model)
        w = make_pmd_weighting(kernel, draws, components=512)
        got = w.sampler(make_rng(543, 1), 3000)
        ref = _pmd_reference_sample(kernel, draws, 512, make_rng(543, 1), 3000)
        assert got.shape == (3000, draws.layout.dim)
        assert np.array_equal(got, ref)


class TestChm:
    def test_tight_prior_reduces_to_harmonic_mean(self):
        # chain range covers essentially all prior mass, so the box
        # correction vanishes and CHM collapses to the harmonic mean
        kernel = ToyNormalKernel(make_rng(600).normal(0, 0.5, 4),
                                 obs_var=0.25, prior_mean=0.0, prior_var=0.04)
        draws = kernel.posterior_sampler(SamplerConfig(draws=20_000), make_rng(601))
        est = chm_estimate(kernel, draws, make_rng(602))
        log_lik = kernel.log_likelihood_batch(draws.thetas)
        hm = -(np.logaddexp.reduce(-log_lik) - math.log(draws.size))
        assert est.extras["log_p_box"] == pytest.approx(0.0, abs=0.02)
        assert est.log_mdd == pytest.approx(hm, abs=0.02)

    def test_matches_exact_on_toy(self, normal_gamma):
        kernel, draws, _, log_k, exact = normal_gamma
        vals = [chm_estimate(kernel, draws, make_rng(603, r), log_kernel_values=log_k).log_mdd
                for r in range(6)]
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert np.mean(vals) == pytest.approx(exact, abs=3 * se + 0.05)


class TestChib:
    def test_one_block_matches_pmd_ordinate(self, toy):
        kernel, draws, exact = toy
        est = chib_estimate(kernel, draws, make_rng(700))
        star = est.extras["theta_star"]
        pmd = make_pmd_weighting(kernel, draws, components=draws.size)
        ordinate = pmd.log_eval(kernel.layout.pack(star)[None, :])[0]
        assert est.extras["ordinate_factors"].sum() == pytest.approx(ordinate, abs=1e-9)
        assert est.log_mdd == pytest.approx(exact, abs=1e-9)

    def test_normal_gamma_matches_exact(self, normal_gamma, monkeypatch):
        kernel, draws, _, _, exact = normal_gamma
        monkeypatch.setattr(estimators, "_REDUCED_RUN_LENGTH", 4000)
        est = chib_estimate(kernel, draws, make_rng(701))
        assert est.log_mdd == pytest.approx(exact, abs=0.02)

    def test_deterministic_given_rng(self, normal_gamma, monkeypatch):
        kernel, draws, _, _, _ = normal_gamma
        monkeypatch.setattr(estimators, "_REDUCED_RUN_LENGTH", 500)
        a = chib_estimate(kernel, draws, make_rng(702))
        b = chib_estimate(kernel, draws, make_rng(702))
        assert a.log_mdd == b.log_mdd

    @pytest.mark.parametrize("model, missing", [("sfm-gamma", "theta and u"), ("lpm", "beta")])
    def test_refuses_conditionals_that_leave_a_block_out(self, model, missing, monkeypatch):
        # the ordinate would drop the Metropolis-moved blocks; refused before any reduced run
        config = harness.ExperimentConfig(model=model, draws=20, burn_in=10)
        kernel = harness.build_context(config)
        draws = harness.sample_chain(kernel, config, 0)

        def no_reduced_run(*args):
            raise AssertionError("reduced run started")
        monkeypatch.setattr(estimators, "_reduced_run", no_reduced_run)
        with pytest.raises(UnsupportedModelError, match=f"has none for {missing}$"):
            chib_estimate(kernel, draws, make_rng(703))
