"""Tests for parameter layouts, transforms and the kernel contract."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mddkit import lpm, modelapi, sfm, var
from mddkit.estimators import _default_theta_star, _reduced_run
from mddkit.harness import ExperimentConfig, build_context
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
from mddkit.models import MODELS
from mddkit.sfm import SfmGammaKernel
from mddkit.statscore import GammaParams, MvNormalParams, WishartParams, make_rng, quadrature_1d

import toys
from toys import ToyNormalGammaKernel, ToyNormalKernel


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

    @pytest.mark.parametrize("model", ["sfm-exponential", "var-independent", "lpm"])
    def test_log_prior_is_the_sum_of_the_block_densities(self, model):
        ctx = build_context(ExperimentConfig(model=model))
        kernel, layout = ctx.kernel, ctx.kernel.layout
        thetas = ctx.vb.sample(make_rng(24), 200)
        # off the support: a negative sigma^-2 and lambda, a Sigma^-1 that is not SPD
        outside = ["sigma_prec", "lam"] if model == "sfm-exponential" else ["sigma_inv"]
        for row, name in enumerate(outside):
            thetas[row, layout.slices[name]] *= -1.0
        p, u = kernel.prior, layout.unpack_batch(thetas)
        if model == "sfm-exponential":
            want = (MvNormalParams(p.beta0, p.Vbeta0).logpdf_batch(u["beta"])
                    + GammaParams(p.a_sigma0, p.b_sigma0).logpdf_batch(u["sigma_prec"])
                    + GammaParams(p.a_lam0, p.b_lam0).logpdf_batch(u["lam"]))
        elif model == "var-independent":
            want = (MvNormalParams(p.alpha0, p.Vbig0).logpdf_batch(u["alpha"])
                    + WishartParams(p.S0, p.nu0).logpdf_batch(u["sigma_inv"]))
        else:
            want = (MvNormalParams(p.beta0, p.Vbeta0).logpdf_batch(u["beta"])
                    + MvNormalParams(p.mu0, p.Vmu0).logpdf_batch(u["mu"])
                    + WishartParams(p.S0, p.nu0).logpdf_batch(u["sigma_inv"]))
        got = kernel.log_prior_batch(thetas)
        assert np.array_equal(got, want)
        assert np.all(got[:len(outside)] == -np.inf) and np.all(np.isfinite(got[len(outside):]))

    @pytest.mark.parametrize("model", sorted(MODELS) + ["sfm-exponential-cdl"])
    def test_likelihood_rows_do_not_depend_on_their_batch(self, model):
        # a row's log likelihood has the bits of its one-row call
        ctx = build_context(ExperimentConfig(model=model.removesuffix("-cdl")))
        if model.endswith("-cdl"):
            kernel, thetas = ctx.cdl_kernel, ctx.cdl_weighting.sampler(make_rng(25), 300)
        else:
            kernel, thetas = ctx.kernel, ctx.vb.sample(make_rng(25), 300)
        batch = kernel.log_likelihood_batch(thetas)
        rows = np.concatenate([kernel.log_likelihood_batch(theta[None]) for theta in thetas])
        assert np.all(np.isfinite(batch))
        assert np.array_equal(batch, rows)


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
    """The last draw's blocks, latents included, as a stack of one state."""
    return draws.unpack([draws.size - 1])


# the acceptance rate each Metropolis block's steps adapt towards, on the
# harness data sets: one-dimensional proposals except lpm's beta (k = 2)
ACCEPTANCE_TARGETS = {SfmGammaKernel: {"theta": 0.44, "u": 0.44},
                      LpmKernel: {"beta": 0.234, "u": 0.44}}


def plain_chain(kernel, state, config, rng, clamped=frozenset()):
    """The driver's bookkeeping written out for a stack of one: sweep, adapt
    the Metropolis steps in burn-in unless blocks are clamped, pack every
    thin-th state after it."""
    steps, cap = kernel.metropolis_steps(1)
    targets = ACCEPTANCE_TARGETS.get(type(kernel), {})
    rows, latents = [], []
    for it in range(config.burn_in + config.draws * config.thin):
        accepted = kernel.gibbs_sweep(state, [rng], clamped, steps)
        if it < config.burn_in and not clamped:
            for name, accept in accepted.items():  # scalar math, entry by entry
                adapted = [min(max(step * math.exp(0.05 * (a - targets[name])), 1e-3), cap)
                           for step, a in zip(steps[name].ravel().tolist(),
                                              accept.ravel().tolist())]
                steps[name] = np.reshape(adapted, steps[name].shape)
        if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
            one = {name: value[0] for name, value in state.items()}
            rows.append(kernel.layout.pack(one))
            if kernel.latent_layout is not None:
                latents.append(kernel.latent_layout.pack(one))
    return PosteriorDrawSet(np.array(rows), kernel.layout, seed=None,
                            latents=np.array(latents) if latents else None,
                            latent_layout=kernel.latent_layout)


# the bound increment below which each iterative fit of a registered model stops
_FIT_TOLS = {
    "var-independent": var._INDEPENDENT_VB_TOL,
    "sfm-exponential": inspect.signature(sfm.sfm_exp_vb).parameters["tol"].default,
    "sfm-gamma": sfm._GAMMA_VB_TOL,
    "lpm": inspect.signature(lpm.lpm_vb).parameters["tol"].default,
}


def _final_expectations(model, vb):
    """(block, expectations of the blocks its conditional reads) for each factor
    a registered fit takes from its kernel's conditional, at the fit's final q;
    for the frontiers the first is the factor updated last in a sweep."""
    f = vb.factors
    if model == "sfm-exponential":
        e = {"beta": f["beta"].mean, "sigma_prec": f["sigma_prec"].mean(),
             "lam": f["lam"].mean(), "u": f["u"].mean()}
        return [("u", e), ("beta", e), ("lam", e)]
    if model == "sfm-gamma":
        e = {"sigma_prec": f["sigma_prec"].mean(), "theta": f["theta"].mean(),
             "u": f["u"].mean()}
        return [("lam", e), ("beta", e)]
    e_w = f["sigma_inv"].dof * np.linalg.inv(f["sigma_inv"].scale_inv)
    e_w = 0.5 * (e_w + e_w.T)
    if model == "var-independent":
        return [("alpha", {"sigma_inv": e_w})]
    u_means = vb.hyper["gamma"].mean[f["beta"].dim:].reshape(-1, len(e_w))
    return [("mu", {"u": u_means, "sigma_inv": e_w})]


_FACTOR_PARAMS = {"MvNormalParams": ("mean", "cov"), "GammaParams": ("shape", "rate"),
                  "TruncNormalParams": ("location", "scale")}
# largest relative gap of a factor from its conditional at the final expectations;
# lpm's damped fit stops on a 1e-6 bound increment while its E[Sigma^-1] still
# moves by about 1e-4 a sweep (its q(mu) covariance reads 1.1e-4)
_CONDITIONAL_GAP = {"lpm": 1e-3}


class TestVbConvergence:
    @pytest.mark.parametrize("model", sorted(_FIT_TOLS))
    def test_conjugate_factors_are_conditionals_at_the_final_expectations(self, model):
        # coordinate ascent: a conjugate factor is its block's full conditional at
        # the expectations of its update. The factor a sweep updates last saw the
        # final ones; the others saw those of the last sweep, which at convergence
        # differ from the final ones by little
        ctx = build_context(ExperimentConfig(model=model))
        for j, (block, state) in enumerate(_final_expectations(model, ctx.vb)):
            fit = ctx.vb.factors[block]
            cond = ctx.kernel.full_conditional(block, state)
            for name in _FACTOR_PARAMS[type(fit).__name__]:
                got, want = np.asarray(getattr(fit, name)), np.asarray(getattr(cond, name))
                if j == 0 and model.startswith("sfm"):
                    assert np.array_equal(got, want), (block, name)
                else:
                    gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
                    assert gap <= _CONDITIONAL_GAP.get(model, 1e-4), (block, name, gap)

    def test_normal_gamma_mu_factor_is_its_conditional(self):
        kernel = ToyNormalGammaKernel(make_rng(9).normal(0.5, 1.2, 25))
        vb = kernel.vb_fit()
        cond = kernel.full_conditional("mu", {"tau": vb.factors["tau"].mean()})
        assert np.array_equal(vb.factors["mu"].mean, cond.mean)
        assert np.array_equal(vb.factors["mu"].cov, cond.cov)

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_registered_fit_converges(self, model):
        vb = build_context(ExperimentConfig(model=model)).vb
        assert vb.converged
        if model in _FIT_TOLS:
            assert abs(vb.elbo_trace[-1] - vb.elbo_trace[-2]) < _FIT_TOLS[model]
        else:  # closed form: one bound
            assert len(vb.elbo_trace) == 1

    def test_normal_gamma_fit_converges(self):
        vb = ToyNormalGammaKernel(make_rng(9).normal(0.5, 1.2, 25)).vb_fit()
        assert vb.converged
        assert abs(vb.elbo_trace[-1] - vb.elbo_trace[-2]) < toys._NORMAL_GAMMA_VB_TOL

    def test_normal_gamma_fit_reports_the_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(toys, "_NORMAL_GAMMA_VB_MAX_ITER", 1)
        with pytest.warns(UserWarning, match="max_iter"):
            vb = ToyNormalGammaKernel(make_rng(9).normal(0.5, 1.2, 25)).vb_fit()
        assert not vb.converged
        assert len(vb.elbo_trace) == 1


@pytest.mark.parametrize("lengths", [{"draws": 0}, {"draws": -5}, {"burn_in": -3},
                                     {"thin": 0}, {"thin": -1}])
def test_sampler_config_rejects_bad_chain_lengths(lengths):
    # run_gibbs would leave draw rows unwritten and return them as draws
    name = next(iter(lengths))
    with pytest.raises(ValueError, match=f"{name} must be >= "):
        SamplerConfig(**lengths)


class TestGibbsDriver:
    def test_sweeps_draw_from_the_full_conditionals(self, gibbs_draws):
        kernel, draws = gibbs_draws
        drawn = kernel.conditional_blocks + (kernel.latent_layout.names
                                             if kernel.latent_layout is not None else [])
        # sfm-gamma and lpm move these blocks by Metropolis steps, not conditional draws
        mh = {SfmGammaKernel: {"theta", "u"}, LpmKernel: {"beta", "u"}}.get(type(kernel), set())
        for j in range(len(kernel.conditional_blocks)):  # every clamp set Chib uses
            clamped = frozenset(kernel.conditional_blocks[:j]) | mh
            state = last_state(draws)
            ref = {name: value[0] for name, value in last_state(draws).items()}
            rng, ref_rng = make_rng(24, j), make_rng(24, j)
            for _ in range(300):
                kernel.gibbs_sweep(state, [rng], clamped, {})
                for name in drawn:
                    if name not in clamped:
                        value = kernel.full_conditional(name, ref).sample(ref_rng)
                        ref[name] = np.reshape(value, np.shape(ref[name]))
                for name in ref:
                    assert np.array_equal(state[name][0], ref[name]), (j, name)

    def test_kept_rows_match_a_plain_loop(self, gibbs_draws, monkeypatch):
        kernel, draws = gibbs_draws
        config = SamplerConfig(draws=40, burn_in=25, thin=3)
        monkeypatch.setattr(modelapi, "_PACK_ROWS", 16)  # rows packed in blocks of 16, 16, 8
        got, = run_gibbs(kernel, last_state(draws), config, [make_rng(25)], [7])
        want = plain_chain(kernel, last_state(draws), config, make_rng(25))
        assert (got.burn_in, got.thin, got.seed) == (25, 3, 7)
        assert np.array_equal(got.thetas, want.thetas)
        assert (got.latents is None) == (want.latents is None)
        if got.latents is not None:
            assert np.array_equal(got.latents, want.latents)

    def test_reduced_run_matches_a_plain_loop(self, gibbs_draws):
        kernel, draws = gibbs_draws
        star = _default_theta_star(draws)
        clamped = kernel.conditional_blocks[:1]
        got = _reduced_run(kernel, draws, star, clamped, 50, make_rng(27))
        start = last_state(draws) | {name: np.asarray(star[name])[None] for name in clamped}
        config = SamplerConfig(draws=50, burn_in=min(draws.burn_in, 200))
        want = plain_chain(kernel, start, config, make_rng(27), frozenset(clamped)).unpack()
        assert got.keys() == want.keys()
        for name in got:
            assert np.array_equal(got[name], want[name]), name


class TestLockstepChains:
    """A stack of chains advanced together gives each chain bit for bit: the
    chain a stack of one gives, and the one ``posterior_sampler`` gives."""

    def test_group_equals_each_chain_alone(self, gibbs_draws):
        kernel, draws = gibbs_draws
        config = SamplerConfig(draws=20, burn_in=15, thin=3)
        group = kernel.posterior_chains(config, [make_rng(28, c) for c in range(3)], list("abc"))
        for c, chain in enumerate(group):
            alone = kernel.posterior_sampler(config, make_rng(28, c), seed="abc"[c])
            assert chain.seed == alone.seed and (chain.burn_in, chain.thin) == (15, 3)
            assert np.array_equal(chain.thetas, alone.thetas), c
            assert (chain.latents is None) == (alone.latents is None)
            if chain.latents is not None:
                assert np.array_equal(chain.latents, alone.latents), c

    def test_group_tuning_equals_each_chain_alone(self, gibbs_draws):
        # adaptation runs chain by chain in burn-in and freezes at its end
        kernel, draws = gibbs_draws
        config = SamplerConfig(draws=10, burn_in=30, thin=3)
        start = {name: np.repeat(value, 3, axis=0) for name, value in last_state(draws).items()}
        group = run_gibbs(kernel, start, config, [make_rng(29, c) for c in range(3)])
        for c, chain in enumerate(group):
            chain_alone, = run_gibbs(kernel, last_state(draws), config, [make_rng(29, c)])
            assert np.array_equal(chain.thetas, chain_alone.thetas), c
            assert np.array_equal(chain.latents, chain_alone.latents), c


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
