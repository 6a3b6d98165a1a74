"""Each kernel rejects a malformed prior when it is built: a density that
cannot exist fails in its own constructor, and a set of densities that does
not fit the model's blocks or data fails in the kernel's."""

import functools

import numpy as np
import pytest

from mddkit.errors import ConfigError, NumericError
from mddkit.lpm import LpmKernel, lpm_synthetic
from mddkit.sfm import SfmExpKernel, SfmGammaKernel, sfm_synthetic
from mddkit.statscore import GammaParams, MvNormalParams, WishartParams
from mddkit.var import NormalWishart, VarConjugateKernel, VarIndependentKernel, var_synthetic
from priors import frontier_factors, lpm_factors, sfm_exp_factors, var_independent_factors

NOT_PD = [[1.0, 2.0], [2.0, 1.0]]


@functools.cache
def _data(family):
    if family == "var":  # N = 2, K = 3
        return var_synthetic(1, 2, 40, 1, np.zeros((3, 2)), np.eye(2))
    if family == "sfm":  # k = 2
        return sfm_synthetic(1, 6, 4, 2, "exponential", [1.0, 0.5], 0.04, 2.0)
    return lpm_synthetic(1, 6, 4, 2, 1, [0.3, -0.2], [0.1], [[0.3]])  # k = 2, m = 1


def _changed(factors, changes):
    """``factors`` with the entries of ``changes`` replaced, added, or (None) dropped."""
    merged = factors | changes
    return {name: f for name, f in merged.items() if f is not None}


def var_conjugate(a0=np.zeros((3, 2)), v0=10 * np.eye(3), s0=np.eye(2), nu0=4.0):
    return VarConjugateKernel(NormalWishart(a0, v0, s0, nu0), _data("var"))


def var_independent(**changes):
    prior = var_independent_factors(np.zeros(6), 10 * np.eye(6), np.eye(2), 4.0)
    return VarIndependentKernel(_changed(prior, changes), _data("var"))


def sfm_exp(**changes):
    prior = sfm_exp_factors(np.zeros(2), 4 * np.eye(2), 2.0, 0.1, 2.0, 1.0)
    return SfmExpKernel(_changed(prior, changes), _data("sfm"))


def sfm_gamma(lam_rate=1.0, theta_shape=2.0, theta_rate=2.0, **changes):
    prior = frontier_factors(np.zeros(2), 4 * np.eye(2), 2.0, 0.1)
    return SfmGammaKernel(_changed(prior, changes), _data("sfm"), lam_rate, theta_shape,
                          theta_rate)


def lpm(**changes):
    prior = lpm_factors(np.zeros(2), 4 * np.eye(2), [0.0], [[4.0]], [[0.5]], 3.0)
    return LpmKernel(_changed(prior, changes), _data("lpm"))


def _normal(dim, cov=None):
    return MvNormalParams(np.zeros(dim), np.eye(dim) if cov is None else cov)


CASES = {
    "var-conjugate": {
        "covariance-not-pd": (lambda: var_conjugate(s0=NOT_PD), NumericError),
        "wishart-dof": (lambda: var_conjugate(nu0=1.0), ValueError),
        "wrong-dimension": (lambda: var_conjugate(a0=np.zeros((2, 2)), v0=np.eye(2)),
                            ConfigError),
        "v0-not-pd": (lambda: var_conjugate(v0=np.diag([1.0, -1.0, 1.0])), NumericError),
    },
    "var-independent": {
        "covariance-not-pd": (
            lambda: var_independent(alpha=_normal(6, np.diag([1.0, -1.0, 1, 1, 1, 1]))),
            NumericError),
        "wishart-dof": (lambda: var_independent(sigma_inv=WishartParams(np.eye(2), 1.0)),
                        ValueError),
        "wrong-dimension": (lambda: var_independent(alpha=_normal(4)), ConfigError),
        "missing-key": (lambda: var_independent(sigma_inv=None), ConfigError),
        "extra-key": (lambda: var_independent(mu=_normal(2)), ConfigError),
    },
    "sfm-exponential": {
        "covariance-not-pd": (lambda: sfm_exp(beta=_normal(2, NOT_PD)), NumericError),
        "gamma-shape": (lambda: sfm_exp(lam=GammaParams(0.0, 1.0)), ValueError),
        "gamma-rate": (lambda: sfm_exp(sigma_prec=GammaParams(2.0, -0.1)), ValueError),
        "wrong-dimension": (lambda: sfm_exp(beta=_normal(3)), ConfigError),
        "missing-key": (lambda: sfm_exp(lam=None), ConfigError),
        "extra-key": (lambda: sfm_exp(theta=GammaParams(1.0, 1.0)), ConfigError),
    },
    "sfm-gamma": {
        "covariance-not-pd": (lambda: sfm_gamma(beta=_normal(2, NOT_PD)), NumericError),
        "gamma-rate": (lambda: sfm_gamma(sigma_prec=GammaParams(2.0, 0.0)), ValueError),
        "wrong-dimension": (lambda: sfm_gamma(beta=_normal(1)), ConfigError),
        "missing-key": (lambda: sfm_gamma(sigma_prec=None), ConfigError),
        # lambda's prior is the hierarchy's G(theta, lam_rate), never a block density
        "extra-key": (lambda: sfm_gamma(lam=GammaParams(2.0, 1.0)), ConfigError),
        "lam-rate": (lambda: sfm_gamma(lam_rate=0.0), ValueError),
        "theta-shape": (lambda: sfm_gamma(theta_shape=-1.0), ValueError),
        "theta-rate": (lambda: sfm_gamma(theta_rate=float("nan")), ValueError),
    },
    "lpm": {
        "covariance-not-pd": (lambda: lpm(beta=_normal(2, NOT_PD)), NumericError),
        "wishart-dof": (lambda: lpm(sigma_inv=WishartParams([[0.5]], 0.0)), ValueError),
        "wrong-dimension": (lambda: lpm(beta=_normal(3)), ConfigError),
        "wrong-wishart-dimension": (lambda: lpm(sigma_inv=WishartParams(np.eye(2), 4.0)),
                                    ConfigError),
        "missing-key": (lambda: lpm(mu=None), ConfigError),
        "extra-key": (lambda: lpm(lam=GammaParams(1.0, 1.0)), ConfigError),
    },
}


@pytest.mark.parametrize("build", [var_conjugate, var_independent, sfm_exp, sfm_gamma, lpm])
def test_the_default_priors_build(build):
    build()


@pytest.mark.parametrize("model, case", [(m, c) for m, cases in CASES.items() for c in cases])
def test_malformed_prior_is_rejected(model, case):
    build, error = CASES[model][case]
    with pytest.raises(error):
        build()
