"""Small conjugate example models.

These have closed-form evidence, so they serve as exact oracles for the
estimator suite and as minimal examples of the kernel contract. The
known-variance model has a one-block posterior (its VB fit IS the
posterior, giving zero-variance weighting); the normal-gamma model has a
genuinely factorized mean-field fit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, psi

from .modelapi import (
    Block,
    ModelKernel,
    ParamLayout,
    PosteriorDrawSet,
    SamplerConfig,
    VBResult,
    run_gibbs,
)
from .statscore import GammaParams, LOG_2PI, MvNormalParams

__all__ = ["ToyNormalKernel", "ToyNormalGammaKernel"]


class ToyNormalKernel(ModelKernel):
    """y_i ~ N(theta, obs_var) with theta ~ N(prior_mean, prior_var); obs_var known."""

    conditional_blocks = ["theta"]

    def __init__(self, y, obs_var=1.0, prior_mean=0.0, prior_var=1.0):
        self.y = np.atleast_1d(np.asarray(y, dtype=float))
        self.obs_var = float(obs_var)
        self.prior_mean = float(prior_mean)
        self.prior_var = float(prior_var)
        self.layout = ParamLayout([Block("theta", ())])
        t = self.y.size
        post_prec = 1.0 / self.prior_var + t / self.obs_var
        self.post_var = 1.0 / post_prec
        self.post_mean = self.post_var * (self.prior_mean / self.prior_var
                                          + self.y.sum() / self.obs_var)

    def log_prior_batch(self, thetas):
        th = np.atleast_2d(thetas)[:, 0]
        return -0.5 * (LOG_2PI + math.log(self.prior_var)
                       + (th - self.prior_mean) ** 2 / self.prior_var)

    def log_likelihood_batch(self, thetas):
        th = np.atleast_2d(thetas)[:, 0]
        t = self.y.size
        sq = np.sum((self.y[None, :] - th[:, None]) ** 2, axis=1)
        return -0.5 * (t * (LOG_2PI + math.log(self.obs_var)) + sq / self.obs_var)

    def exact_log_mdd(self) -> float:
        # marginal y ~ N(prior_mean * 1, obs_var I + prior_var 11'); Sherman-Morrison
        t = self.y.size
        dev = self.y - self.prior_mean
        logdet = (t - 1) * math.log(self.obs_var) + math.log(self.obs_var + t * self.prior_var)
        quad = dev @ dev / self.obs_var - (self.prior_var / self.obs_var) * dev.sum() ** 2 \
            / (self.obs_var + t * self.prior_var)
        return -0.5 * (t * LOG_2PI + logdet + quad)

    def full_conditional(self, name, state):
        if name != "theta":
            raise KeyError(name)
        # the same posterior for every state, repeated along any stack axis
        stack = np.shape(state["theta"])
        return MvNormalParams(np.full(stack + (1,), self.post_mean),
                              np.full(stack + (1, 1), self.post_var))

    def posterior_sampler(self, config: SamplerConfig, rng, seed=None) -> PosteriorDrawSet:
        draws = self.post_mean + math.sqrt(self.post_var) * rng.standard_normal(config.draws)
        return PosteriorDrawSet(draws[:, None], self.layout, seed=seed,
                                burn_in=config.burn_in, thin=config.thin)

    def vb_fit(self) -> VBResult:
        # one block: the optimal approximation is the posterior itself
        post = MvNormalParams([self.post_mean], [[self.post_var]])
        elbo = self.exact_log_mdd()
        return VBResult(
            hyper={"theta": post},
            elbo_trace=np.array([elbo]),
            log_q=lambda thetas: post.logpdf_batch(np.atleast_2d(thetas)),
            sample=lambda rng, size: post.sample(rng, size),
        )


class ToyNormalGammaKernel(ModelKernel):
    """y_i ~ N(mu, 1/tau); mu | tau ~ N(m0, 1/(kappa0 tau)); tau ~ Gamma(a0, b0)."""

    conditional_blocks = ["mu", "tau"]

    def __init__(self, y, m0=0.0, kappa0=1.0, a0=2.0, b0=1.0):
        self.y = np.atleast_1d(np.asarray(y, dtype=float))
        self.m0, self.kappa0, self.a0, self.b0 = float(m0), float(kappa0), float(a0), float(b0)
        self.layout = ParamLayout([Block("mu", ()), Block("tau", (), "positive")])
        t = self.y.size
        ybar = self.y.mean()
        ss = float(np.sum((self.y - ybar) ** 2))
        self.kappa_t = self.kappa0 + t
        self.m_t = (self.kappa0 * self.m0 + t * ybar) / self.kappa_t
        self.a_t = self.a0 + 0.5 * t
        self.b_t = self.b0 + 0.5 * ss + 0.5 * self.kappa0 * t * (ybar - self.m0) ** 2 / self.kappa_t

    def log_prior_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        mu, tau = u["mu"], u["tau"]
        out = np.full(mu.shape, -np.inf)
        ok = tau > 0
        mu_part = -0.5 * (LOG_2PI - np.log(self.kappa0 * tau[ok])
                          + self.kappa0 * tau[ok] * (mu[ok] - self.m0) ** 2)
        tau_part = (self.a0 * math.log(self.b0) - gammaln(self.a0)
                    + (self.a0 - 1.0) * np.log(tau[ok]) - self.b0 * tau[ok])
        out[ok] = mu_part + tau_part
        return out

    def log_likelihood_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        mu, tau = u["mu"], u["tau"]
        t = self.y.size
        sq = np.sum((self.y[None, :] - mu[:, None]) ** 2, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = -0.5 * (t * LOG_2PI - t * np.log(tau) + tau * sq)
        out[~(tau > 0)] = -np.inf
        return out

    def exact_log_mdd(self) -> float:
        t = self.y.size
        return float(gammaln(self.a_t) - gammaln(self.a0)
                     + self.a0 * math.log(self.b0) - self.a_t * math.log(self.b_t)
                     + 0.5 * (math.log(self.kappa0) - math.log(self.kappa_t))
                     - 0.5 * t * LOG_2PI)

    # -- conditionals ---------------------------------------------------------

    def full_conditional(self, name, state):
        t = self.y.size
        if name == "mu":
            var = 1.0 / (self.kappa_t * np.asarray(state["tau"], dtype=float))
            return MvNormalParams(np.full(var.shape + (1,), self.m_t), var[..., None, None])
        if name == "tau":
            mu = state["mu"]
            rate = self.b0 + 0.5 * (self.kappa0 * (mu - self.m0) ** 2
                                    + np.sum((self.y - np.asarray(mu)[..., None]) ** 2, axis=-1))
            return GammaParams(self.a0 + 0.5 * (t + 1), rate)
        raise KeyError(name)

    def gibbs_sweep(self, state, rng, clamped=frozenset()):
        for name in self.conditional_blocks:
            if name not in clamped:
                state[name] = float(np.ravel(self.full_conditional(name, state).sample(rng))[0])
        return state

    def posterior_sampler(self, config: SamplerConfig, rng, seed=None) -> PosteriorDrawSet:
        state = {"mu": self.y.mean(), "tau": 1.0 / max(self.y.var(), 1e-3)}
        return run_gibbs(self, state, config, rng, seed=seed)

    # -- mean-field fit -------------------------------------------------------

    def vb_fit(self, tol=1e-12, max_iter=200) -> VBResult:
        t = self.y.size
        ybar = self.y.mean()
        ss = float(np.sum((self.y - ybar) ** 2))
        a_q = self.a0 + 0.5 * (t + 1)
        b_q = self.b_t  # any sane positive start
        trace = []
        m_q = self.m_t
        for _ in range(max_iter):
            e_tau = a_q / b_q
            v_q = 1.0 / (self.kappa_t * e_tau)
            # E[kappa0 (mu-m0)^2 + sum (y-mu)^2] under q(mu)
            e_quad = (self.kappa0 * ((m_q - self.m0) ** 2 + v_q)
                      + ss + t * ((m_q - ybar) ** 2 + v_q))
            b_q = self.b0 + 0.5 * e_quad
            trace.append(self._elbo(m_q, v_q, a_q, b_q))
            if len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
                break
        e_tau = a_q / b_q
        v_q = 1.0 / (self.kappa_t * e_tau)
        q_mu = MvNormalParams([m_q], [[v_q]])
        q_tau = GammaParams(a_q, b_q)

        def log_q(thetas):
            u = self.layout.unpack_batch(thetas)
            return (q_mu.logpdf_batch(u["mu"].reshape(-1, 1))
                    + q_tau.logpdf_batch(u["tau"]))

        def sample(rng, size):
            mu = q_mu.sample(rng, size)[:, 0]
            tau = q_tau.sample(rng, size)
            return np.column_stack([mu, tau])

        return VBResult(
            hyper={"mu": q_mu, "tau": q_tau},
            elbo_trace=np.asarray(trace),
            log_q=log_q,
            sample=sample,
        )

    def _elbo(self, m_q, v_q, a_q, b_q) -> float:
        t = self.y.size
        ybar = self.y.mean()
        ss = float(np.sum((self.y - ybar) ** 2))
        e_tau = a_q / b_q
        e_ln_tau = float(psi(a_q)) - math.log(b_q)
        e_sq_lik = ss + t * ((m_q - ybar) ** 2 + v_q)
        e_sq_pri = (m_q - self.m0) ** 2 + v_q
        val = -0.5 * t * LOG_2PI + 0.5 * t * e_ln_tau - 0.5 * e_tau * e_sq_lik
        val += -0.5 * LOG_2PI + 0.5 * math.log(self.kappa0) + 0.5 * e_ln_tau \
            - 0.5 * self.kappa0 * e_tau * e_sq_pri
        val += self.a0 * math.log(self.b0) - float(gammaln(self.a0)) \
            + (self.a0 - 1.0) * e_ln_tau - self.b0 * e_tau
        val += 0.5 * (math.log(2.0 * math.pi * v_q) + 1.0)
        val += GammaParams(a_q, b_q).entropy()
        return float(val)
