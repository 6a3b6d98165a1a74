"""Tests for parameter layouts, transforms and the kernel contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mddkit.estimators import _default_theta_star, _reduced_run
from mddkit.lpm import LpmKernel
from mddkit.modelapi import (
    Block,
    ParamLayout,
    PosteriorDrawSet,
    SamplerConfig,
    elbo_monte_carlo,
    log_posterior_kernel,
    run_gibbs,
    unvech,
    vech,
)
from mddkit.sfm import SfmGammaKernel
from mddkit.statscore import make_rng, quadrature_1d
from mddkit.toys import ToyNormalGammaKernel, ToyNormalKernel


def example_layout():
    return ParamLayout([
        Block("alpha", (3,)),
        Block("lam", (), "positive"),
        Block("prec", (2, 2), "spd"),
    ])


def random_values(rng):
    a = rng.standard_normal((2, 2))
    return {
        "alpha": rng.standard_normal(3),
        "lam": float(rng.gamma(2.0, 1.0)),
        "prec": a @ a.T + 0.5 * np.eye(2),
    }


class TestLayout:
    def test_dim_and_slices(self):
        lay = example_layout()
        assert lay.dim == 3 + 1 + 3
        assert lay.slices["prec"] == slice(4, 7)

    def test_pack_unpack_roundtrip(self):
        lay = example_layout()
        vals = random_values(make_rng(0))
        theta = lay.pack(vals)
        back = lay.unpack(theta)
        assert np.allclose(back["alpha"], vals["alpha"])
        assert back["lam"] == pytest.approx(vals["lam"])
        assert np.allclose(back["prec"], vals["prec"])
        assert np.allclose(lay.pack(back), theta)

    def test_batch_roundtrip(self):
        lay = example_layout()
        rng = make_rng(1)
        thetas = np.stack([lay.pack(random_values(rng)) for _ in range(7)])
        assert np.allclose(lay.pack_batch(lay.unpack_batch(thetas)), thetas)

    def test_vech_unvech(self):
        m = np.array([[4.0, 1.0], [1.0, 3.0]])
        v = vech(m)
        assert np.allclose(v, [4.0, 1.0, 3.0])
        assert np.allclose(unvech(v, 2), m)

    def test_unconstrained_roundtrip(self):
        lay = example_layout()
        rng = make_rng(2)
        thetas = np.stack([lay.pack(random_values(rng)) for _ in range(5)])
        phis, _ = lay.to_unconstrained_batch(thetas)
        assert np.allclose(lay.from_unconstrained(phis), thetas, atol=1e-10)

    def test_transform_jacobian_by_finite_differences(self):
        # log|d phi / d theta| must match the numerically differentiated map
        lay = example_layout()
        theta = lay.pack(random_values(make_rng(3)))
        _, log_jac = lay.to_unconstrained_batch(theta[None, :])
        eps = 1e-6
        jac = np.empty((lay.dim, lay.dim))
        base, _ = lay.to_unconstrained_batch(theta[None, :])
        for k in range(lay.dim):
            bumped = theta.copy()
            bumped[k] += eps
            hi, _ = lay.to_unconstrained_batch(bumped[None, :])
            jac[:, k] = (hi[0] - base[0]) / eps
        sign, fd_log_det = np.linalg.slogdet(jac)
        assert sign > 0
        assert log_jac[0] == pytest.approx(fd_log_det, abs=1e-4)

    @given(st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_spd_jacobian_any_dim(self, n, seed):
        lay = ParamLayout([Block("w", (n, n), "spd")])
        rng = make_rng(seed)
        a = rng.standard_normal((n, n))
        theta = lay.pack({"w": a @ a.T + n * np.eye(n)})
        _, log_jac = lay.to_unconstrained_batch(theta[None, :])
        eps = 1e-7
        base, _ = lay.to_unconstrained_batch(theta[None, :])
        jac = np.empty((lay.dim, lay.dim))
        for k in range(lay.dim):
            bumped = theta.copy()
            bumped[k] += eps
            hi, _ = lay.to_unconstrained_batch(bumped[None, :])
            jac[:, k] = (hi[0] - base[0]) / eps
        _, fd = np.linalg.slogdet(jac)
        assert log_jac[0] == pytest.approx(fd, abs=1e-3)

    def test_bad_support_rejected(self):
        with pytest.raises(ValueError):
            Block("x", (2,), "simplex")
        with pytest.raises(ValueError):
            Block("x", (2, 3), "spd")


class TestKernelContract:
    def test_toy_kernel_hand_value(self):
        y = np.array([0.4])
        toy = ToyNormalKernel(y)
        theta = 0.3
        expected = (-0.5 * (math.log(2 * math.pi) + (0.4 - theta) ** 2)
                    - 0.5 * (math.log(2 * math.pi) + theta ** 2))
        assert log_posterior_kernel(toy, [theta]) == pytest.approx(expected, abs=1e-12)

    def test_empty_data_kernel_is_prior(self):
        toy = ToyNormalKernel(np.empty(0))
        theta = np.array([0.7])
        prior = toy.log_prior_batch(np.atleast_2d(theta))[0]
        assert log_posterior_kernel(toy, theta) == pytest.approx(prior, abs=1e-12)

    def test_outside_support_is_minus_inf(self):
        ng = ToyNormalGammaKernel(np.array([0.1, -0.2]))
        assert log_posterior_kernel(ng, [0.0, -1.0]) == -np.inf

    def test_sampler_reproducibility(self):
        ng = ToyNormalGammaKernel(make_rng(5).normal(0, 1, 15))
        cfg = SamplerConfig(draws=500, burn_in=100)
        a = ng.posterior_sampler(cfg, make_rng(6, 1))
        b = ng.posterior_sampler(cfg, make_rng(6, 1))
        assert np.array_equal(a.thetas, b.thetas)

    def test_rao_blackwell_conditional_normalizes(self):
        # averaging the tau conditional over chain states integrates to 1
        ng = ToyNormalGammaKernel(make_rng(7).normal(1.0, 0.8, 12))
        draws = ng.posterior_sampler(SamplerConfig(draws=200, burn_in=100), make_rng(8))
        conds = ng.full_conditional("tau", draws.unpack(np.arange(0, 200, 10)))

        def log_avg(tau):
            vals = conds.logpdf_batch(tau)
            return np.logaddexp.reduce(vals, axis=0) - math.log(len(vals))

        assert quadrature_1d(log_avg, 0.0, np.inf, tol=1e-10) == pytest.approx(0.0, abs=1e-8)

    def test_vb_result_surface(self):
        ng = ToyNormalGammaKernel(make_rng(9).normal(0.5, 1.2, 25))
        vb = ng.vb_fit()
        assert vb.converged
        assert np.all(np.diff(vb.elbo_trace) >= -1e-10)
        # factor marginals normalize
        assert quadrature_1d(lambda v: vb.factors["mu"].logpdf_batch(v), -30, 30,
                             tol=1e-10) == pytest.approx(0.0, abs=1e-8)
        assert quadrature_1d(lambda v: vb.factors["tau"].logpdf_batch(v), 0, np.inf,
                             tol=1e-10) == pytest.approx(0.0, abs=1e-8)
        # MC oracle agrees with the closed-form bound
        mean, se = elbo_monte_carlo(ng, vb, make_rng(10), 50_000)
        assert vb.elbo == pytest.approx(mean, abs=4 * se)

    def test_states_include_metadata(self):
        ng = ToyNormalGammaKernel(make_rng(11).normal(0, 1, 10))
        ds = ng.posterior_sampler(SamplerConfig(draws=50, burn_in=10, thin=2), make_rng(12), seed=99)
        assert ds.size == 50
        assert ds.burn_in == 10 and ds.thin == 2 and ds.seed == 99
        st0 = ds.unpack([0])
        assert set(st0) == {"mu", "tau"}

    def test_complete_data_appends_the_latents(self):
        layout = ParamLayout([Block("a", (2,)), Block("u", (3,), "positive")])
        ds = PosteriorDrawSet(np.ones((4, 2)), ParamLayout(layout.blocks[:1]), seed=5,
                              latents=np.full((4, 3), 2.0),
                              latent_layout=ParamLayout(layout.blocks[1:]))
        full = ds.complete_data(layout)
        assert full.layout is layout and full.seed == 5
        assert np.array_equal(full.thetas, np.hstack([np.ones((4, 2)), np.full((4, 3), 2.0)]))
        with pytest.raises(ValueError, match="blocks then latents"):
            ds.complete_data(ParamLayout(layout.blocks[::-1]))


def build_kernel(name):
    from mddkit import harness

    if name == "toy-normal":
        return ToyNormalKernel(make_rng(20).normal(0.3, 1.0, 8))
    if name == "toy-normal-gamma":
        return ToyNormalGammaKernel(make_rng(21).normal(0.3, 1.0, 8))
    return harness.build_context(harness.ExperimentConfig(model=name)).kernel


@pytest.fixture(scope="module", params=["toy-normal", "toy-normal-gamma", "var-conjugate",
                                        "var-independent", "sfm-exponential", "sfm-gamma", "lpm"])
def kernel_draws(request):
    kernel = build_kernel(request.param)
    draws = kernel.posterior_sampler(SamplerConfig(draws=7, burn_in=30), make_rng(22))
    return kernel, draws


@pytest.fixture(scope="module", params=["toy-normal-gamma", "var-independent",
                                        "sfm-exponential", "sfm-gamma", "lpm"])
def gibbs_draws(request):
    """A kernel with a Gibbs sweep and a short chain of it."""
    kernel = build_kernel(request.param)
    draws = kernel.posterior_sampler(SamplerConfig(draws=60, burn_in=40), make_rng(23))
    return kernel, draws


def last_state(draws):
    return {k: v[0] for k, v in draws.unpack([draws.size - 1]).items()}


def plain_chain(kernel, state, config, rng, clamped=frozenset(), mh_state=None):
    """The driver's bookkeeping written out: sweep, freeze adaptation at
    burn-in, pack every thin-th state after it."""
    kw = {} if mh_state is None else {"mh_state": mh_state}
    rows, latents = [], []
    for it in range(config.burn_in + config.draws * config.thin):
        if mh_state is not None and it == config.burn_in:
            mh_state["adapt"] = False
        state = kernel.gibbs_sweep(state, rng, clamped, **kw)
        if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
            rows.append(kernel.layout.pack(state))
            if kernel.latent_layout is not None:
                latents.append(kernel.latent_layout.pack(state))
    return PosteriorDrawSet(np.array(rows), kernel.layout, seed=None,
                            latents=np.array(latents) if latents else None,
                            latent_layout=kernel.latent_layout)


class TestGibbsDriver:
    def test_sweeps_draw_from_the_full_conditionals(self, gibbs_draws):
        kernel, draws = gibbs_draws
        drawn = kernel.conditional_blocks + (kernel.latent_layout.names
                                             if kernel.latent_layout is not None else [])
        # sfm-gamma and lpm move these blocks by Metropolis steps, not conditional draws
        mh = {SfmGammaKernel: {"theta", "u"}, LpmKernel: {"beta", "u"}}.get(type(kernel), set())
        for j in range(len(kernel.conditional_blocks)):  # every clamp set Chib uses
            clamped = frozenset(kernel.conditional_blocks[:j]) | mh
            state, ref = last_state(draws), last_state(draws)
            rng, ref_rng = make_rng(24, j), make_rng(24, j)
            for _ in range(300):
                state = kernel.gibbs_sweep(state, rng, clamped)
                for name in drawn:
                    if name not in clamped:
                        value = kernel.full_conditional(name, ref).sample(ref_rng)
                        ref[name] = np.reshape(value, np.shape(ref[name]))
                for name in ref:
                    assert np.array_equal(state[name], ref[name]), (j, name)

    def test_kept_rows_match_a_plain_loop(self, gibbs_draws):
        kernel, draws = gibbs_draws
        config = SamplerConfig(draws=40, burn_in=25, thin=3)
        tunings = [(None, None)]
        if isinstance(kernel, SfmGammaKernel):  # its chain adapts Metropolis steps in burn-in
            tunings.append(tuple({"theta": 0.5, "u": np.full(kernel.data.num_firms, 0.5),
                                  "adapt": True} for _ in range(2)))
        if isinstance(kernel, LpmKernel):  # so does the Poisson panel's, for beta and u
            tunings.append((kernel._steps(adapt=True), kernel._steps(adapt=True)))
        for tuning, plain_tuning in tunings:
            got = run_gibbs(kernel, last_state(draws), config, make_rng(25), seed=7,
                            mh_state=tuning)
            want = plain_chain(kernel, last_state(draws), config, make_rng(25),
                               mh_state=plain_tuning)
            assert (got.burn_in, got.thin, got.seed) == (25, 3, 7)
            assert np.array_equal(got.thetas, want.thetas)
            assert (got.latents is None) == (want.latents is None)
            if got.latents is not None:
                assert np.array_equal(got.latents, want.latents)
            if tuning is not None:
                assert tuning["adapt"] is False
                for name in tuning:
                    assert np.array_equal(tuning[name], plain_tuning[name]), name

    def test_reduced_run_matches_a_plain_loop(self, gibbs_draws):
        kernel, draws = gibbs_draws
        star = _default_theta_star(draws)
        clamped = kernel.conditional_blocks[:1]
        got = _reduced_run(kernel, draws, star, clamped, 50, make_rng(27))
        start = last_state(draws) | {name: star[name] for name in clamped}
        config = SamplerConfig(draws=50, burn_in=min(draws.burn_in, 200))
        want = plain_chain(kernel, start, config, make_rng(27), frozenset(clamped)).unpack()
        assert got.keys() == want.keys()
        for name in got:
            assert np.array_equal(got[name], want[name]), name


class TestStackedConditionals:
    """A stack of states gives one distribution whose row c is state c's."""

    def test_rows_match_single_states(self, kernel_draws):
        kernel, draws = kernel_draws
        stack = draws.unpack()
        for name in kernel.conditional_blocks:
            points = stack[name]
            stacked = kernel.full_conditional(name, stack).logpdf_batch(points)
            assert stacked.shape == (draws.size, draws.size)
            for c in range(draws.size):
                single = kernel.full_conditional(name, {k: v[c] for k, v in stack.items()})
                np.testing.assert_allclose(stacked[c], single.logpdf_batch(points),
                                           rtol=1e-12, atol=0)
