"""Test oracles that no run of the library reaches.

``elbo_monte_carlo`` checks a closed-form variational bound against Monte
Carlo draws from q; ``var_joint_family_bound`` is the conjugate VAR's bound
with q the exact normal-Wishart posterior, which must equal the exact log
evidence; ``var_exact_log_mdd`` is that evidence from a posterior computed
afresh.
"""

from __future__ import annotations

import math

import numpy as np

from mddkit.modelapi import ModelKernel, VBResult
from mddkit.statscore import LOG_2PI, _logdet
from mddkit.var import (
    NormalWishart,
    VarConjugateKernel,
    VarData,
    _log_evidence,
    var_exact_posterior,
)

__all__ = ["elbo_monte_carlo", "var_exact_log_mdd", "var_joint_family_bound"]


def elbo_monte_carlo(model: ModelKernel, vb: VBResult, rng: np.random.Generator,
                     num_draws: int = 20_000) -> tuple[float, float]:
    """Monte Carlo ELBO oracle: mean and standard error of log k(theta) - log q(theta)
    over i.i.d. draws from q. Used to validate closed-form lower bounds."""
    draws = vb.sample(rng, num_draws)
    vals = model.log_kernel_batch(draws) - vb.log_q(draws)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(num_draws))


def var_joint_family_bound(kernel: VarConjugateKernel) -> float:
    """E_q ln p(y, theta) - E_q ln q(theta) with q the exact NW posterior."""
    data, post, nw0 = kernel.data, kernel._post, kernel._nw0
    n, k, t = data.N, data.K, data.T
    e_w = post.nu * np.linalg.inv(post.S)
    elog_det = post.wishart.mean_logdet
    resid = data.Y - data.X @ post.A
    dev = post.A - nw0.A

    val = (-0.5 * t * n * LOG_2PI + 0.5 * t * elog_det
           - 0.5 * (float(np.sum(e_w * (resid.T @ resid).T))
                    + n * float(np.trace(kernel._xtx @ post.V))))
    val += (-0.5 * k * n * LOG_2PI + 0.5 * k * elog_det - 0.5 * n * _logdet(nw0.V)
            - 0.5 * (float(np.sum(e_w * (dev.T @ nw0._v_inv @ dev).T))
                     + n * float(np.trace(nw0._v_inv @ post.V))))
    val += nw0.wishart.expected_logpdf(e_w, elog_det)
    # E[ln q(A|W)] = -KN/2 ln 2pi - N/2 ln|V| + K/2 E ln|W| - KN/2
    val -= (-0.5 * k * n * LOG_2PI - 0.5 * n * _logdet(post.V) + 0.5 * k * elog_det
            - 0.5 * k * n)
    val += post.wishart.entropy()
    return float(val)


def var_exact_log_mdd(prior: NormalWishart, data: VarData) -> float:
    """The conjugate VAR's closed-form log evidence under ``prior``, from its
    exact posterior computed here rather than the one a kernel holds."""
    return _log_evidence(prior, var_exact_posterior(prior, data), data)
