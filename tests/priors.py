"""Prior densities for the test kernels, from the hyperparameters in the order
the tests write them. Each returns the ``prior_factors`` dict its kernel takes."""

from mddkit.statscore import GammaParams, MvNormalParams, WishartParams


def var_independent_factors(alpha0, v_alpha0, s0, nu0) -> dict:
    """alpha ~ N(alpha0, v_alpha0) and Sigma^-1 ~ W(s0^-1, nu0)."""
    return {"alpha": MvNormalParams(alpha0, v_alpha0), "sigma_inv": WishartParams(s0, nu0)}


def frontier_factors(beta0, v_beta0, a_sigma0, b_sigma0) -> dict:
    """beta ~ N(beta0, v_beta0) and sigma^-2 ~ G(a_sigma0, b_sigma0): the gamma
    frontier's prior_factors, and the exponential one's without lambda."""
    return {"beta": MvNormalParams(beta0, v_beta0),
            "sigma_prec": GammaParams(a_sigma0, b_sigma0)}


def sfm_exp_factors(beta0, v_beta0, a_sigma0, b_sigma0, a_lam0, b_lam0) -> dict:
    """:func:`frontier_factors` and lambda ~ G(a_lam0, b_lam0)."""
    return frontier_factors(beta0, v_beta0, a_sigma0, b_sigma0) | {
        "lam": GammaParams(a_lam0, b_lam0)}


def lpm_factors(beta0, v_beta0, mu0, v_mu0, s0, nu0) -> dict:
    """beta ~ N(beta0, v_beta0), mu ~ N(mu0, v_mu0) and Sigma^-1 ~ W(s0^-1, nu0)."""
    return {"beta": MvNormalParams(beta0, v_beta0), "mu": MvNormalParams(mu0, v_mu0),
            "sigma_inv": WishartParams(s0, nu0)}
