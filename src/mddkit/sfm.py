"""Panel stochastic frontier models with exponential or gamma inefficiency.

Rows are firm-major: observation (i, t) sits at index i * T + t. The sign
of the inefficiency term is -1 for production frontiers (default) and +1
for cost frontiers. Parameters carried by draw vectors are beta, the noise
precision sigma^-2 and the inefficiency rate lambda (plus the gamma shape
theta and the latent u for the complete-data variant).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtri, psi

from .errors import ConfigError, NumericError
from .modelapi import (
    Block,
    ModelContext,
    ModelKernel,
    ModelSpec,
    ParamLayout,
    PosteriorDrawSet,
    SamplerConfig,
    VBResult,
    read_panel_csv,
    run_gibbs,
)
from .statscore import (
    LOG_2PI,
    GammaParams,
    MvNormalParams,
    TruncNormalParams,
    _logdet,
    inverse_mills,
    ln_parabolic_cylinder_d,
    log_sum_exp,
    quadrature_1d,
    safe_cholesky,
)

__all__ = [
    "SfmData",
    "SfmExpPrior",
    "SfmGammaPrior",
    "sfm_exp_vb",
    "sfm_gamma_vb",
    "sfm_exp_integrated_loglik",
    "sfm_gamma_integrated_loglik",
    "sfm_synthetic",
    "sfm_read_csv",
    "sfm_write_csv",
    "SfmExpKernel",
    "SfmExpCdlKernel",
    "SfmGammaKernel",
    "GammaCaseInefficiency",
]


# ---------------------------------------------------------------------------
# data and priors
# ---------------------------------------------------------------------------

@dataclass
class SfmData:
    """Balanced panel: y (N*T,), x (N*T, k), firm-major row order."""

    y: np.ndarray
    x: np.ndarray
    num_firms: int
    num_periods: int
    sign: str = "production"  # production: y = x b - u + v; cost: + u

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if self.y.size != self.num_firms * self.num_periods:
            raise ValueError("y length must equal N * T")
        if self.x.shape[0] != self.y.size:
            raise ValueError("x rows must match y")
        if self.sign not in ("production", "cost"):
            raise ValueError("sign must be 'production' or 'cost'")

    @property
    def c(self) -> float:
        """Sign multiplying the inefficiency term in the frontier equation."""
        return -1.0 if self.sign == "production" else 1.0

    @property
    def k(self) -> int:
        return self.x.shape[1]


@dataclass
class SfmExpPrior:
    """beta ~ N, sigma^-2 ~ Gamma, lambda ~ Gamma (shape/rate)."""

    beta0: np.ndarray
    Vbeta0: np.ndarray
    a_sigma0: float
    b_sigma0: float
    a_lam0: float
    b_lam0: float

    def __post_init__(self):
        self.beta0 = np.asarray(self.beta0, dtype=float).ravel()
        self.Vbeta0 = np.atleast_2d(np.asarray(self.Vbeta0, dtype=float))
        safe_cholesky(self.Vbeta0)
        for v in (self.a_sigma0, self.b_sigma0, self.a_lam0, self.b_lam0):
            if not v > 0:
                raise ValueError("gamma hyper-parameters must be positive")


@dataclass
class SfmGammaPrior:
    """Gamma-inefficiency case: lambda | theta ~ G(theta, b_lam0) and
    theta^-1 ~ G(a_theta0, b_theta0)."""

    beta0: np.ndarray
    Vbeta0: np.ndarray
    a_sigma0: float
    b_sigma0: float
    b_lam0: float
    a_theta0: float
    b_theta0: float

    def __post_init__(self):
        self.beta0 = np.asarray(self.beta0, dtype=float).ravel()
        self.Vbeta0 = np.atleast_2d(np.asarray(self.Vbeta0, dtype=float))
        safe_cholesky(self.Vbeta0)
        for v in (self.a_sigma0, self.b_sigma0, self.b_lam0, self.a_theta0, self.b_theta0):
            if not v > 0:
                raise ValueError("gamma hyper-parameters must be positive")


# ---------------------------------------------------------------------------
# integrated likelihoods
# ---------------------------------------------------------------------------

def _firm_residual_stats(data: SfmData, beta: np.ndarray):
    """Per-firm residual mean and sum of squares for a batch of betas."""
    betas = np.atleast_2d(beta)
    resid = data.y[None, :] - betas @ data.x.T
    resid = resid.reshape(betas.shape[0], data.num_firms, data.num_periods)
    return resid.mean(axis=2), np.sum(resid * resid, axis=2)


def _firm_residual_means(data: SfmData, beta: np.ndarray) -> np.ndarray:
    """Per-firm residual means of one beta, as :func:`_firm_residual_stats`
    computes them (sum / T is bit for bit ``mean``) without the sums of squares."""
    resid = data.y[None, :] - np.atleast_2d(beta) @ data.x.T
    return resid.reshape(data.num_firms, data.num_periods).sum(axis=1) / data.num_periods


def sfm_exp_integrated_loglik(beta, sigma_prec, lam, data: SfmData):
    """ln p(y | beta, sigma^-2, lambda) with the inefficiency integrated out.

    The exponential convolution has the closed form (per firm, with
    s^2 = sigma^2 / T and residual mean e_bar)

        ln lam - lam c e_bar + lam^2 s^2 / 2 + ln Phi((c e_bar - lam s^2)/s)
        + ln N-terms,

    verified against direct quadrature of the complete-data integrand.
    Accepts scalars or aligned batches; returns a batch of totals.
    """
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    sigma_prec = np.atleast_1d(np.asarray(sigma_prec, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    t, c = data.num_periods, data.c
    out = np.full(beta.shape[0], -np.inf)
    ok = (sigma_prec > 0) & (lam > 0)
    if not np.any(ok):
        return out
    ebar, sum_e2 = _firm_residual_stats(data, beta[ok])
    sig2 = (1.0 / sigma_prec[ok])[:, None]
    lam_ok = lam[ok][:, None]
    s2 = sig2 / t
    m = c * ebar - lam_ok * s2
    per_firm = (-0.5 * t * (LOG_2PI + np.log(sig2))
                - (sum_e2 - t * ebar * ebar) / (2.0 * sig2)
                + np.log(lam_ok) - lam_ok * c * ebar + 0.5 * lam_ok ** 2 * s2
                + 0.5 * (LOG_2PI + np.log(s2))
                + log_ndtr(m / np.sqrt(s2)))
    out[ok] = per_firm.sum(axis=1)
    return out


def sfm_gamma_integrated_loglik(beta, sigma_prec, lam, theta, data: SfmData):
    """ln p(y | beta, sigma^-2, lambda, theta) for gamma inefficiency.

    Per firm, int_0^inf u^(theta-1) exp(-b u^2 - g u) du with b = T sigma^-2 / 2
    has the parabolic-cylinder closed form; all (row, firm) pairs go through
    one broadcast evaluation.
    """
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    sigma_prec = np.atleast_1d(np.asarray(sigma_prec, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    t, c = data.num_periods, data.c
    out = np.full(beta.shape[0], -np.inf)
    ok = (sigma_prec > 0) & (lam > 0) & (theta > 0)
    if not np.any(ok):
        return out
    ebar, sum_e2 = _firm_residual_stats(data, beta[ok])
    prec, lam_, th = sigma_prec[ok][:, None], lam[ok][:, None], theta[ok][:, None]
    sig2 = 1.0 / prec
    two_b = t * prec
    z = (lam_ - c * prec * t * ebar) / np.sqrt(two_b)
    log_conv = (-0.5 * th * np.log(two_b) + gammaln(th) + 0.25 * z * z
                + ln_parabolic_cylinder_d(th, z, tol=1e-10))
    per_firm = (-0.5 * t * (LOG_2PI + np.log(sig2)) - sum_e2 / (2.0 * sig2)
                + th * np.log(lam_) - gammaln(th) + log_conv)
    out[ok] = per_firm.sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# exponential-case VB
# ---------------------------------------------------------------------------

def sfm_exp_vb(prior: SfmExpPrior, data: SfmData, tol: float = 1e-8,
               max_iter: int = 500) -> VBResult:
    """Coordinate ascent for the exponential-inefficiency frontier model.

    Factors: normal (beta) x gamma (sigma^-2) x gamma (lambda) x product of
    zero-truncated normals (u_i). The bound is assembled term by term and is
    monotone along the sweep.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n, t, k, c = data.num_firms, data.num_periods, data.k, data.c
    v0_inv = np.linalg.inv(prior.Vbeta0)
    v0_inv_b0 = v0_inv @ prior.beta0
    xtx = data.x.T @ data.x

    a_sig = prior.a_sigma0 + 0.5 * n * t
    a_lam = prior.a_lam0 + n
    b_sig = prior.b_sigma0 + 0.5 * float(np.var(data.y)) * n * t
    b_lam = prior.b_lam0 + n  # starts E[lambda] at ~1
    u_mean = np.full(n, 1.0)
    u_var = np.full(n, 0.5)
    beta_q = prior.beta0.copy()
    v_beta = prior.Vbeta0.copy()
    mu_q = np.zeros(n)
    ups2 = 1.0

    trace = []
    converged = False
    for _ in range(max_iter):
        e_sig = a_sig / b_sig
        e_lam = a_lam / b_lam
        # q(beta)
        v_beta = np.linalg.inv(v0_inv + e_sig * xtx)
        v_beta = 0.5 * (v_beta + v_beta.T)
        adj = data.y - c * np.repeat(u_mean, t)
        beta_q = v_beta @ (v0_inv_b0 + e_sig * (data.x.T @ adj))
        # q(sigma^-2)
        ebar, sum_e2 = _firm_residual_stats(data, beta_q)
        ebar, sum_e2 = ebar[0], sum_e2[0]
        dev2 = (sum_e2 - 2.0 * c * t * ebar * u_mean
                + t * (u_mean ** 2 + u_var))
        b_sig = prior.b_sigma0 + 0.5 * (float(np.sum(dev2)) + float(np.sum(xtx * v_beta)))
        e_sig = a_sig / b_sig
        # q(lambda)
        b_lam = prior.b_lam0 + float(np.sum(u_mean))
        e_lam = a_lam / b_lam
        # q(u): truncated normals
        ups2 = 1.0 / (t * e_sig)
        mu_q = (c * t * ebar - e_lam / e_sig) / t
        ratio = mu_q / math.sqrt(ups2)
        mills = inverse_mills(ratio)
        u_mean = mu_q + math.sqrt(ups2) * mills
        u_var = ups2 * (1.0 - mills * (mills + ratio))
        trace.append(_elbo_exp(prior, data, beta_q, v_beta, a_sig, b_sig,
                               a_lam, b_lam, mu_q, ups2, u_mean, u_var))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
    if not converged:
        warnings.warn("exponential-case VB hit max_iter before the tolerance", stacklevel=2)

    layout = _sfm_layout(k)
    gauss = MvNormalParams(beta_q, v_beta)
    gam_sig = GammaParams(a_sig, b_sig)
    gam_lam = GammaParams(a_lam, b_lam)
    u_scale = math.sqrt(ups2)
    u_dists = [TruncNormalParams(m, u_scale) for m in mu_q]

    def log_q(thetas):
        u = layout.unpack_batch(thetas)
        return (gauss.logpdf_batch(u["beta"]) + gam_sig.logpdf_batch(u["sigma_prec"])
                + gam_lam.logpdf_batch(u["lam"]))

    def sample(rng, size):
        return layout.pack_batch({
            "beta": gauss.sample(rng, size),
            "sigma_prec": gam_sig.sample(rng, size),
            "lam": gam_lam.sample(rng, size),
        })

    def log_q_u(u_vals):
        u_vals = np.atleast_2d(u_vals)
        return sum(d.logpdf_batch(u_vals[:, i]) for i, d in enumerate(u_dists))

    def sample_u(rng, size):
        return np.column_stack([d.sample(rng, size) for d in u_dists])

    return VBResult(
        hyper={"beta": gauss, "sigma_prec": gam_sig, "lam": gam_lam,
               "u_mu": mu_q, "u_scale": u_scale, "u_mean": u_mean, "u_var": u_var,
               "log_q_u": log_q_u, "sample_u": sample_u},
        elbo_trace=np.asarray(trace),
        log_q=log_q,
        sample=sample,
        converged=converged,
    )


def _elbo_exp(prior, data, beta_q, v_beta, a_sig, b_sig, a_lam, b_lam,
              mu_q, ups2, u_mean, u_var) -> float:
    n, t, k, c = data.num_firms, data.num_periods, data.k, data.c
    v0_inv = np.linalg.inv(prior.Vbeta0)
    e_sig, eln_sig = a_sig / b_sig, float(psi(a_sig)) - math.log(b_sig)
    e_lam, eln_lam = a_lam / b_lam, float(psi(a_lam)) - math.log(b_lam)
    ebar, sum_e2 = _firm_residual_stats(data, beta_q)
    ebar, sum_e2 = ebar[0], sum_e2[0]
    quad = (float(np.sum(sum_e2 - 2.0 * c * t * ebar * u_mean + t * (u_mean ** 2 + u_var)))
            + float(np.sum((data.x.T @ data.x) * v_beta)))

    val = -0.5 * n * t * LOG_2PI + 0.5 * n * t * eln_sig - 0.5 * e_sig * quad
    dev = beta_q - prior.beta0
    val += (-0.5 * k * LOG_2PI - 0.5 * _logdet(prior.Vbeta0)
            - 0.5 * (dev @ v0_inv @ dev + float(np.sum(v0_inv * v_beta.T))))
    val += (prior.a_sigma0 * math.log(prior.b_sigma0) - float(gammaln(prior.a_sigma0))
            + (prior.a_sigma0 - 1.0) * eln_sig - prior.b_sigma0 * e_sig)
    val += (prior.a_lam0 * math.log(prior.b_lam0) - float(gammaln(prior.a_lam0))
            + (prior.a_lam0 - 1.0) * eln_lam - prior.b_lam0 * e_lam)
    val += n * eln_lam - e_lam * float(np.sum(u_mean))
    val += 0.5 * k * (LOG_2PI + 1.0) + 0.5 * _logdet(v_beta)
    val += GammaParams(a_sig, b_sig).entropy() + GammaParams(a_lam, b_lam).entropy()
    scale = math.sqrt(ups2)
    val += float(np.sum([TruncNormalParams(m, scale).entropy() for m in mu_q]))
    return float(val)


# ---------------------------------------------------------------------------
# gamma-case VB
# ---------------------------------------------------------------------------

class GammaCaseInefficiency:
    """The nonstandard q(u_i) ~ u^(shape-1) exp(-prec/2 u^2 - slope u) factor.

    ``prec`` is the coefficient on u^2 (precision-like convention); the
    normalizing constant and power moments come from the parabolic-cylinder
    identity. The distribution degenerates to a zero-truncated normal at
    shape = 1. ``shape``, ``prec`` and ``slope`` broadcast: an array of
    slopes gives one independent factor per firm, evaluated together.
    Scalar parameters give float moments.
    """

    def __init__(self, shape, prec, slope):
        shape, prec, slope = np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in (shape, prec, slope)))
        if not (np.all(shape > 0) and np.all(prec > 0)):
            raise ValueError("shape and precision must be positive")
        self.shape, self.prec, self.slope = shape.copy(), prec.copy(), slope.copy()
        self.root_prec = np.sqrt(self.prec)
        self.z = self.slope / self.root_prec
        # ln D_{-(shape + j)}(z) for j = 0, 1, 2 in one batched quadrature
        orders = self.shape + np.arange(3.0).reshape((3,) + (1,) * self.shape.ndim)
        log_d = ln_parabolic_cylinder_d(orders, self.z)
        self.log_norm = (-self.shape * np.log(self.root_prec) + gammaln(self.shape)
                         + 0.25 * self.z * self.z + log_d[0])
        self._moments = [
            np.exp(gammaln(self.shape + j) - gammaln(self.shape) + log_d[j] - log_d[0]
                   - j * np.log(self.root_prec))
            for j in (1, 2)]
        self._mean_log = None

    @staticmethod
    def _out(x):
        return float(x) if np.ndim(x) == 0 else x

    def moment(self, order: int):
        """E[u^order] for order 1 or 2 via ratios of parabolic-cylinder values."""
        if order not in (1, 2):
            raise ValueError("moment order must be 1 or 2")
        return self._out(self._moments[order - 1])

    def mean(self):
        return self.moment(1)

    def var(self):
        return self._out(self._moments[1] - self._moments[0] ** 2)

    def logpdf_batch(self, u: np.ndarray) -> np.ndarray:
        """ln q(u), with u broadcast against the parameters (firms last)."""
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = ((self.shape - 1.0) * np.log(u) - 0.5 * self.prec * u * u
                    - self.slope * u - self.log_norm)
        return np.where(u > 0, vals, -np.inf)

    def _trailing_logpdf(self, u: np.ndarray) -> np.ndarray:
        """ln q at points u (..., m) per factor, shaped (*param shape, m)."""
        u = np.moveaxis(np.asarray(u, dtype=float), -1, 0)
        u = u.reshape(u.shape + (1,) * (self.shape.ndim + 1 - u.ndim))
        return np.moveaxis(self.logpdf_batch(u), 0, -1)

    def mean_log(self):
        """E[ln u] by split quadrature (ln u changes sign at one)."""
        if self._mean_log is None:
            neg = quadrature_1d(lambda u: np.log(-np.log(u)) + self._trailing_logpdf(u),
                                0.0, 1.0, tol=1e-9)
            pos = quadrature_1d(lambda u: np.log(np.log(u)) + self._trailing_logpdf(u),
                                1.0, np.inf, tol=1e-9)
            self._mean_log = np.exp(pos) - np.exp(neg)
        return self._out(self._mean_log)

    def mean_log_q(self):
        """E[ln q(u)] assembled from the stored moments."""
        m1, m2 = self._moments
        return self._out((self.shape - 1.0) * self.mean_log() - 0.5 * self.prec * m2
                         - self.slope * m1 - self.log_norm)

    def sample(self, rng, size: int) -> np.ndarray:
        """Draws of shape (size, *param shape) by grid inverse CDF.

        Each factor is tabulated on the tanh-sinh nodes of (0, inf) scaled
        by its mean, which resolve both the u^(shape-1) behaviour at zero
        and the Gaussian upper tail.
        """
        grid = self._moments[0][..., None] * _U_GRID_NODES
        return _grid_sample(grid, self._trailing_logpdf(grid),
                            rng.uniform(size=(size,) + self.shape.shape))


# tanh-sinh nodes of (0, inf), t = exp(pi sinh s) for s in [-5, 5] at step 1/256
_U_GRID_NODES = np.exp(math.pi * np.sinh(np.linspace(-5.0, 5.0, 2561)))


def _grid_sample(grid: np.ndarray, log_f: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from densities tabulated at increasing nodes.

    ``grid`` and ``log_f`` (unnormalised log density) have shape
    (*batch, K); ``uniforms`` has shape (size, *batch). The CDF is the
    cumulative trapezoid mass of each cell, interpolated linearly, so draws
    are uniform within a cell and never confined to the nodes.
    """
    grid = np.asarray(grid, dtype=float)
    batch, k = grid.shape[:-1], grid.shape[-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_mass = np.log(np.diff(grid, axis=-1)) + np.logaddexp(log_f[..., 1:], log_f[..., :-1])
    mass = np.exp(log_mass - np.max(log_mass, axis=-1, keepdims=True))
    cdf = np.concatenate((np.zeros(batch + (1,)), np.cumsum(mass, axis=-1)), axis=-1)
    cdf /= cdf[..., -1:]
    # one interpolation for the whole batch: row r of the CDF is shifted to [2r, 2r + 1]
    rows = int(np.prod(batch, dtype=int))
    offset = 2.0 * np.arange(rows)
    flat_cdf = (cdf.reshape(rows, k) + offset[:, None]).ravel()
    u = uniforms.reshape(-1, rows) + offset
    return np.interp(u, flat_cdf, grid.reshape(rows, k).ravel()).reshape(uniforms.shape)


class _GridDensity:
    """Density tabulated on a log-spaced grid with trapezoid weights."""

    def __init__(self, log_unnorm, lo=math.exp(-10.0), hi=math.exp(10.0), size=2001,
                 edge_mass_tol=1e-10, max_widen=6):
        for _ in range(max_widen):
            grid = np.exp(np.linspace(math.log(lo), math.log(hi), size))
            logf = log_unnorm(grid)
            w = np.empty(size)
            w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
            w[0] = 0.5 * (grid[1] - grid[0])
            w[-1] = 0.5 * (grid[-1] - grid[-2])
            terms = logf + np.log(w)
            log_c = log_sum_exp(terms)
            probs = np.exp(terms - log_c)
            if probs[0] < edge_mass_tol and probs[-1] < edge_mass_tol:
                break
            if probs[0] >= edge_mass_tol:
                lo /= math.e ** 5
            if probs[-1] >= edge_mass_tol:
                hi *= math.e ** 5
        else:
            raise NumericError("grid density kept mass at the edges after widening")
        self.grid, self.log_c, self.probs = grid, log_c, probs
        self._logf = logf
        self._log_unnorm = log_unnorm

    def expect(self, fn) -> float:
        return float(np.sum(self.probs * fn(self.grid)))

    def mean(self) -> float:
        return self.expect(lambda g: g)

    def mean_log_q(self) -> float:
        return float(np.sum(self.probs * (self._logf - self.log_c)))

    def logpdf_batch(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, -np.inf)
        ok = x > 0
        out[ok] = self._log_unnorm(x[ok]) - self.log_c
        return out

    def sample(self, rng, size: int) -> np.ndarray:
        return _grid_sample(self.grid, self._logf, rng.uniform(size=size))


def sfm_gamma_vb(prior: SfmGammaPrior, data: SfmData, tol: float = 1e-6,
                 max_iter: int = 200,
                 upsilon_convention: str = "precision") -> VBResult:
    """Coordinate ascent for the gamma-inefficiency frontier model.

    The u factors are nonstandard (normalized by parabolic-cylinder values)
    and the theta factor lives on a quadrature grid. ``upsilon_convention``
    selects how the displayed u-factor spread parameter is read: "precision"
    treats it as the coefficient on u^2 (the reading under which the factor
    normalizes and the bound ascends); "variance" is the alternative reading,
    kept to document that it fails the invariants.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if upsilon_convention not in ("precision", "variance"):
        raise ValueError("upsilon_convention must be 'precision' or 'variance'")
    n, t, k, c = data.num_firms, data.num_periods, data.k, data.c
    v0_inv = np.linalg.inv(prior.Vbeta0)
    v0_inv_b0 = v0_inv @ prior.beta0
    xtx = data.x.T @ data.x

    a_sig = prior.a_sigma0 + 0.5 * n * t
    b_sig = prior.b_sigma0 + 0.5 * float(np.var(data.y)) * n * t
    theta_mean = 1.0
    a_lam = (n + 1) * theta_mean
    b_lam = prior.b_lam0 + n
    u_mean = np.full(n, 1.0)
    u_var = np.full(n, 0.5)
    u_mean_log = np.zeros(n)
    beta_q = prior.beta0.copy()
    v_beta = prior.Vbeta0.copy()
    u_factors = None
    theta_grid = None

    trace = []
    converged = False
    for _ in range(max_iter):
        e_sig = a_sig / b_sig
        e_lam = a_lam / b_lam
        eln_lam = float(psi(a_lam)) - math.log(b_lam)
        # q(beta)
        v_beta = np.linalg.inv(v0_inv + e_sig * xtx)
        v_beta = 0.5 * (v_beta + v_beta.T)
        adj = data.y - c * np.repeat(u_mean, t)
        beta_q = v_beta @ (v0_inv_b0 + e_sig * (data.x.T @ adj))
        # q(sigma^-2)
        ebar, sum_e2 = _firm_residual_stats(data, beta_q)
        ebar, sum_e2 = ebar[0], sum_e2[0]
        dev2 = sum_e2 - 2.0 * c * t * ebar * u_mean + t * (u_mean ** 2 + u_var)
        b_sig = prior.b_sigma0 + 0.5 * (float(np.sum(dev2)) + float(np.sum(xtx * v_beta)))
        e_sig = a_sig / b_sig
        # q(u): nonstandard factors
        prec = t * e_sig if upsilon_convention == "precision" else 1.0 / (t * e_sig)
        slopes = e_lam - c * e_sig * t * ebar
        u_factors = GammaCaseInefficiency(theta_mean, prec, slopes)
        u_mean, u_m2 = u_factors.moment(1), u_factors.moment(2)
        u_var = u_factors.var()
        u_mean_log = u_factors.mean_log()
        # q(theta) on its grid
        lin = (n + 1) * eln_lam + math.log(prior.b_lam0) + float(np.sum(u_mean_log))

        def theta_log_unnorm(th, _lin=lin):
            return (-(prior.a_theta0 + 1.0) * np.log(th) + _lin * th
                    - prior.b_theta0 / th - (n + 1) * gammaln(th))

        theta_grid = _GridDensity(theta_log_unnorm)
        theta_mean = theta_grid.mean()
        # q(lambda)
        a_lam = (n + 1) * theta_mean
        b_lam = prior.b_lam0 + float(np.sum(u_mean))
        trace.append(_elbo_gamma(prior, data, beta_q, v_beta, a_sig, b_sig,
                                 a_lam, b_lam, theta_grid, theta_mean,
                                 u_factors, u_mean, u_m2, u_mean_log))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
    if not converged:
        warnings.warn("gamma-case VB hit max_iter before the tolerance", stacklevel=2)

    layout = _sfm_gamma_layout(k)
    gauss = MvNormalParams(beta_q, v_beta)
    gam_sig = GammaParams(a_sig, b_sig)
    gam_lam = GammaParams(a_lam, b_lam)

    def log_q(thetas):
        u = layout.unpack_batch(thetas)
        return (gauss.logpdf_batch(u["beta"]) + gam_sig.logpdf_batch(u["sigma_prec"])
                + gam_lam.logpdf_batch(u["lam"]) + theta_grid.logpdf_batch(u["theta"]))

    def sample(rng, size):
        return layout.pack_batch({
            "beta": gauss.sample(rng, size),
            "sigma_prec": gam_sig.sample(rng, size),
            "lam": gam_lam.sample(rng, size),
            "theta": theta_grid.sample(rng, size),
        })

    def log_q_u(u_vals):
        return np.sum(u_factors.logpdf_batch(np.atleast_2d(u_vals)), axis=1)

    return VBResult(
        hyper={"beta": gauss, "sigma_prec": gam_sig, "lam": gam_lam,
               "theta": theta_grid, "theta_mean": theta_mean,
               "u_factors": u_factors, "u_mean": u_mean, "u_var": u_var,
               "log_q_u": log_q_u, "sample_u": u_factors.sample},
        elbo_trace=np.asarray(trace),
        log_q=log_q,
        sample=sample,
        converged=converged,
    )


def _elbo_gamma(prior, data, beta_q, v_beta, a_sig, b_sig, a_lam, b_lam,
                theta_grid, theta_mean, u_factors, u_mean, u_m2, u_mean_log) -> float:
    n, t, k, c = data.num_firms, data.num_periods, data.k, data.c
    v0_inv = np.linalg.inv(prior.Vbeta0)
    e_sig, eln_sig = a_sig / b_sig, float(psi(a_sig)) - math.log(b_sig)
    e_lam, eln_lam = a_lam / b_lam, float(psi(a_lam)) - math.log(b_lam)
    eln_theta = theta_grid.expect(np.log)
    e_theta_inv = theta_grid.expect(lambda g: 1.0 / g)
    eln_gamma_theta = theta_grid.expect(lambda g: gammaln(g))
    ebar, sum_e2 = _firm_residual_stats(data, beta_q)
    ebar, sum_e2 = ebar[0], sum_e2[0]
    quad = (float(np.sum(sum_e2 - 2.0 * c * t * ebar * u_mean + t * u_m2))
            + float(np.sum((data.x.T @ data.x) * v_beta)))

    val = -0.5 * n * t * LOG_2PI + 0.5 * n * t * eln_sig - 0.5 * e_sig * quad
    dev = beta_q - prior.beta0
    val += (-0.5 * k * LOG_2PI - 0.5 * _logdet(prior.Vbeta0)
            - 0.5 * (dev @ v0_inv @ dev + float(np.sum(v0_inv * v_beta.T))))
    val += (prior.a_sigma0 * math.log(prior.b_sigma0) - float(gammaln(prior.a_sigma0))
            + (prior.a_sigma0 - 1.0) * eln_sig - prior.b_sigma0 * e_sig)
    # lambda | theta prior and the u priors
    val += (theta_mean * math.log(prior.b_lam0) + (theta_mean - 1.0) * eln_lam
            - prior.b_lam0 * e_lam - eln_gamma_theta)
    val += (n * theta_mean * eln_lam + (theta_mean - 1.0) * float(np.sum(u_mean_log))
            - e_lam * float(np.sum(u_mean)) - n * eln_gamma_theta)
    # theta prior (inverse-gamma on theta)
    val += (prior.a_theta0 * math.log(prior.b_theta0) - float(gammaln(prior.a_theta0))
            - (prior.a_theta0 + 1.0) * eln_theta - prior.b_theta0 * e_theta_inv)
    # entropies
    val += 0.5 * k * (LOG_2PI + 1.0) + 0.5 * _logdet(v_beta)
    val += GammaParams(a_sig, b_sig).entropy() + GammaParams(a_lam, b_lam).entropy()
    val -= float(np.sum(u_factors.mean_log_q()))
    val -= theta_grid.mean_log_q()
    return float(val)


# ---------------------------------------------------------------------------
# kernels and samplers
# ---------------------------------------------------------------------------

def _sfm_layout(k: int) -> ParamLayout:
    return ParamLayout([Block("beta", (k,)), Block("sigma_prec", (), "positive"),
                        Block("lam", (), "positive")])


def _sfm_gamma_layout(k: int) -> ParamLayout:
    return ParamLayout([Block("beta", (k,)), Block("sigma_prec", (), "positive"),
                        Block("lam", (), "positive"), Block("theta", (), "positive")])


def _sample_truncnorm_vec(locs: np.ndarray, scale: float, rng) -> np.ndarray:
    """Vectorized zero-truncated normal draws matching the scalar sampler's
    inversion/rejection split."""
    locs = np.asarray(locs, dtype=float)
    ratios = locs / scale
    easy = ratios >= -5.0
    # inversion where the ratio allows it; index only when some draw is rejection's
    every = bool(easy.all())
    pick = Ellipsis if every else easy
    lo = np.exp(log_ndtr(-ratios[pick]))
    z = ndtri(lo + rng.uniform(size=lo.shape) * (1.0 - lo))
    inverted = np.maximum(locs[pick] + scale * z, 0.0)
    if every:
        return inverted
    out = np.empty(locs.shape)
    out[easy] = inverted
    for idx in np.flatnonzero(~easy):
        out[idx] = TruncNormalParams(float(locs[idx]), scale).sample(rng)
    return out


class _IndependentTruncNormals:
    """Product of per-firm zero-truncated normals, used as the u conditional."""

    def __init__(self, locs, scale):
        self.locs = np.asarray(locs, dtype=float)
        self.scale = float(scale)

    def logpdf_batch(self, u_vals):
        u_vals = np.atleast_2d(np.asarray(u_vals, dtype=float))
        z = (u_vals - self.locs) / self.scale
        terms = (-0.5 * (LOG_2PI + z * z) - math.log(self.scale)
                 - log_ndtr(self.locs / self.scale))
        bad = np.any(u_vals < 0, axis=1)
        out = terms.sum(axis=1)
        out[bad] = -np.inf
        return out

    def sample(self, rng, size=None):
        if size is None:
            return _sample_truncnorm_vec(self.locs, self.scale, rng)
        return np.stack([_sample_truncnorm_vec(self.locs, self.scale, rng)
                         for _ in range(size)])


class _FrontierKernel(ModelKernel):
    """What both frontier kernels share: the beta and sigma^-2 priors, their
    conditionals given the inefficiencies u, and the conjugate sweep steps
    (lambda's conditional is each kernel's own)."""

    def __init__(self, prior, data: SfmData):
        if prior.beta0.size != data.k:
            raise ConfigError("prior dimension does not match the regressors")
        self.prior = prior
        self.data = data
        self._gauss0 = MvNormalParams(prior.beta0, prior.Vbeta0)
        self._gam_sig0 = GammaParams(prior.a_sigma0, prior.b_sigma0)
        self._v0_inv = np.linalg.inv(prior.Vbeta0)
        self._v0_inv_b0 = self._v0_inv @ prior.beta0
        self._xtx = data.x.T @ data.x

    def _initial_state(self) -> dict:
        """A chain's start: least-squares beta and its residual precision."""
        d = self.data
        beta0, *_ = np.linalg.lstsq(d.x, d.y, rcond=None)
        resid = d.y - d.x @ beta0
        return {"beta": beta0, "sigma_prec": 1.0 / max(float(np.var(resid)), 1e-6),
                "lam": 1.0, "u": np.full(d.num_firms, 0.5)}

    def _c_times_u(self, state):
        """c * u_i at every observation, for one state or a stack."""
        return self.data.c * np.repeat(state["u"], self.data.num_periods, axis=-1)

    def _residual_means(self, state, clamped):
        """Per-firm residual means of the state's beta for the u step. A clamped
        beta never changes, so its means are computed on the first sweep and
        carried in the state under ``"_ebar"``."""
        if "beta" not in clamped:
            return _firm_residual_means(self.data, state["beta"])
        if "_ebar" not in state:
            state["_ebar"] = _firm_residual_means(self.data, state["beta"])
        return state["_ebar"]

    def _conditional_given_u(self, name, state, cu=None):
        """beta or sigma^-2 given the rest, for one state or a stack; ``cu`` is
        :meth:`_c_times_u` of the state when the caller already holds it."""
        d, t = self.data, self.data.num_periods
        if cu is None:
            cu = self._c_times_u(state)
        if name == "beta":
            prec = np.asarray(state["sigma_prec"], dtype=float)
            cov = np.linalg.inv(self._v0_inv + prec[..., None, None] * self._xtx)
            cov = 0.5 * (cov + cov.swapaxes(-1, -2))
            rhs = self._v0_inv_b0 + prec[..., None] * np.matvec(d.x.T, d.y - cu)
            return MvNormalParams(np.matvec(cov, rhs), cov)
        if name == "sigma_prec":
            resid = d.y - np.matvec(d.x, state["beta"]) - cu
            return GammaParams(self.prior.a_sigma0 + 0.5 * d.num_firms * t,
                               self.prior.b_sigma0 + 0.5 * np.vecdot(resid, resid))
        raise KeyError(name)

    def _sweep_conjugate_blocks(self, state, rng, clamped):
        # u stays fixed through these steps, so one c * u serves beta and sigma^-2
        drawn = [name for name in ("beta", "sigma_prec") if name not in clamped]
        cu = self._c_times_u(state) if drawn else None
        for name in drawn:
            state[name] = self._conditional_given_u(name, state, cu).sample(rng)
        if "lam" not in clamped:
            state["lam"] = self.full_conditional("lam", state).sample(rng)


class SfmExpKernel(_FrontierKernel):
    """Exponential-inefficiency frontier with the latent integrated out."""

    conditional_blocks = ["beta", "sigma_prec", "lam"]

    def __init__(self, prior: SfmExpPrior, data: SfmData):
        super().__init__(prior, data)
        self.layout = _sfm_layout(data.k)
        self.latent_layout = ParamLayout([Block("u", (data.num_firms,), "positive")])
        self._gam_lam0 = GammaParams(prior.a_lam0, prior.b_lam0)

    def log_prior_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        return (self._gauss0.logpdf_batch(u["beta"])
                + self._gam_sig0.logpdf_batch(u["sigma_prec"])
                + self._gam_lam0.logpdf_batch(u["lam"]))

    def log_likelihood_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        return sfm_exp_integrated_loglik(u["beta"], u["sigma_prec"], u["lam"], self.data)

    # -- conditionals ---------------------------------------------------------

    def full_conditional(self, name, state):
        """Conditionals of the conjugate blocks (stackable) and of u (one state)."""
        d = self.data
        if name == "lam":
            return GammaParams(self.prior.a_lam0 + d.num_firms,
                               self.prior.b_lam0 + np.asarray(state["u"]).sum(axis=-1))
        if name == "u":
            return self._u_conditional(state, _firm_residual_means(d, state["beta"]))
        return self._conditional_given_u(name, state)

    def _u_conditional(self, state, ebar):
        """u given the rest, for one state whose per-firm residual means are ``ebar``."""
        c, t = self.data.c, self.data.num_periods
        prec = float(state["sigma_prec"])
        lam = float(state["lam"])
        locs = (c * t * ebar - lam / prec) / t
        return _IndependentTruncNormals(locs, math.sqrt(1.0 / (t * prec)))

    def gibbs_sweep(self, state, rng, clamped=frozenset()):
        self._sweep_conjugate_blocks(state, rng, clamped)
        if "u" not in clamped:
            ebar = self._residual_means(state, clamped)
            state["u"] = self._u_conditional(state, ebar).sample(rng)
        return state

    def posterior_sampler(self, config: SamplerConfig, rng, seed=None) -> PosteriorDrawSet:
        return run_gibbs(self, self._initial_state(), config, rng, seed=seed)

    def vb_fit(self, tol: float = 1e-8, max_iter: int = 500) -> VBResult:
        return sfm_exp_vb(self.prior, self.data, tol=tol, max_iter=max_iter)

    def as_complete_data(self) -> "SfmExpCdlKernel":
        return SfmExpCdlKernel(self.prior, self.data)


class SfmExpCdlKernel(ModelKernel):
    """Complete-data variant: the latent inefficiencies join the parameter
    vector and the likelihood is the plain normal density of the noise."""

    def __init__(self, prior: SfmExpPrior, data: SfmData):
        self.prior = prior
        self.data = data
        self.layout = ParamLayout([
            Block("beta", (data.k,)), Block("sigma_prec", (), "positive"),
            Block("lam", (), "positive"), Block("u", (data.num_firms,), "positive"),
        ])
        self._gauss0 = MvNormalParams(prior.beta0, prior.Vbeta0)
        self._gam_sig0 = GammaParams(prior.a_sigma0, prior.b_sigma0)
        self._gam_lam0 = GammaParams(prior.a_lam0, prior.b_lam0)

    def log_prior_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        lam = u["lam"]
        uu = u["u"]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p_u = np.where(
                np.all(uu >= 0, axis=1) & (lam > 0),
                self.data.num_firms * np.log(np.maximum(lam, 1e-300)) - lam * uu.sum(axis=1),
                -np.inf)
        return (self._gauss0.logpdf_batch(u["beta"])
                + self._gam_sig0.logpdf_batch(u["sigma_prec"])
                + self._gam_lam0.logpdf_batch(lam) + log_p_u)

    def log_likelihood_batch(self, thetas):
        d = self.data
        u = self.layout.unpack_batch(thetas)
        prec = u["sigma_prec"]
        resid = (d.y[None, :] - u["beta"] @ d.x.T
                 - d.c * np.repeat(u["u"], d.num_periods, axis=1))
        ss = np.sum(resid * resid, axis=1)
        nt = d.num_firms * d.num_periods
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -0.5 * nt * (LOG_2PI - np.log(prec)) - 0.5 * prec * ss
        out[~(prec > 0)] = -np.inf
        return out

    @staticmethod
    def extend_draws(draws: PosteriorDrawSet, kernel: "SfmExpCdlKernel") -> PosteriorDrawSet:
        """View an integrated-kernel draw set as complete-data draws."""
        thetas = np.hstack([draws.thetas, draws.latents])
        return PosteriorDrawSet(thetas, kernel.layout, seed=draws.seed,
                                burn_in=draws.burn_in, thin=draws.thin)


def make_sfm_exp_cdl_weighting(vb: VBResult, kernel: SfmExpCdlKernel):
    """VB weighting over (beta, sigma^-2, lambda, u) for the complete-data kernel."""
    from .modelapi import WeightingDensity

    layout = kernel.layout

    def log_eval(thetas):
        u = layout.unpack_batch(thetas)
        base = (vb.hyper["beta"].logpdf_batch(u["beta"])
                + vb.hyper["sigma_prec"].logpdf_batch(u["sigma_prec"])
                + vb.hyper["lam"].logpdf_batch(u["lam"]))
        return base + vb.hyper["log_q_u"](u["u"])

    def sampler(rng, size):
        return layout.pack_batch({
            "beta": vb.hyper["beta"].sample(rng, size),
            "sigma_prec": vb.hyper["sigma_prec"].sample(rng, size),
            "lam": vb.hyper["lam"].sample(rng, size),
            "u": vb.hyper["sample_u"](rng, size),
        })

    return WeightingDensity(tag="vb-cdl", log_eval=log_eval, sampler=sampler)


class SfmGammaKernel(_FrontierKernel):
    """Gamma-inefficiency frontier; the estimator-facing kernel keeps the
    latents in the parameter vector (complete-data form) since only some
    blocks are conjugate. :func:`sfm_gamma_integrated_loglik` integrates the
    latents out."""

    conditional_blocks = ["beta", "sigma_prec", "lam"]

    def __init__(self, prior: SfmGammaPrior, data: SfmData):
        super().__init__(prior, data)
        self.layout = ParamLayout([
            Block("beta", (data.k,)), Block("sigma_prec", (), "positive"),
            Block("lam", (), "positive"), Block("theta", (), "positive"),
            Block("u", (data.num_firms,), "positive"),
        ])

    def log_prior_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        lam, theta, uu = u["lam"], u["theta"], u["u"]
        n = self.data.num_firms
        ok = (lam > 0) & (theta > 0) & np.all(uu > 0, axis=1)
        out = np.full(lam.shape, -np.inf)
        if np.any(ok):
            lam_, th_, u_ = lam[ok], theta[ok], uu[ok]
            log_p_lam = (th_ * math.log(self.prior.b_lam0) - gammaln(th_)
                         + (th_ - 1.0) * np.log(lam_) - self.prior.b_lam0 * lam_)
            log_p_theta = (self.prior.a_theta0 * math.log(self.prior.b_theta0)
                           - float(gammaln(self.prior.a_theta0))
                           - (self.prior.a_theta0 + 1.0) * np.log(th_)
                           - self.prior.b_theta0 / th_)
            log_p_u = (n * (th_ * np.log(lam_) - gammaln(th_))
                       + (th_ - 1.0) * np.sum(np.log(u_), axis=1)
                       - lam_ * u_.sum(axis=1))
            out[ok] = log_p_lam + log_p_theta + log_p_u
        return (self._gauss0.logpdf_batch(u["beta"])
                + self._gam_sig0.logpdf_batch(u["sigma_prec"]) + out)

    log_likelihood_batch = SfmExpCdlKernel.log_likelihood_batch

    # -- sampling -------------------------------------------------------------

    def full_conditional(self, name, state):
        if name == "lam":
            return GammaParams((self.data.num_firms + 1) * np.asarray(state["theta"], dtype=float),
                               self.prior.b_lam0 + np.asarray(state["u"]).sum(axis=-1))
        return self._conditional_given_u(name, state)

    def _log_cond_theta(self, theta, lin, su):
        """ln p(theta | rest) up to a constant; ``lin`` is theta's linear
        coefficient from lambda and u, ``su`` the sum of ln u."""
        return (-(self.prior.a_theta0 + 1.0) * math.log(theta)
                - self.prior.b_theta0 / theta + theta * lin
                - (self.data.num_firms + 1) * float(gammaln(theta)) - su)

    def _log_cond_u(self, u, prec, theta, slopes):
        """ln p(u_i | rest) up to a constant, per firm."""
        t = self.data.num_periods
        with np.errstate(divide="ignore"):
            vals = (theta - 1.0) * np.log(u) - 0.5 * t * prec * u * u - slopes * u
        vals[u <= 0] = -np.inf
        return vals

    def gibbs_sweep(self, state, rng, clamped=frozenset(), mh_state=None):
        self._sweep_conjugate_blocks(state, rng, clamped)
        step_theta, step_u, adapt = (0.5, np.full(self.data.num_firms, 0.5), False) \
            if mh_state is None else (mh_state["theta"], mh_state["u"], mh_state["adapt"])
        n, c, t = self.data.num_firms, self.data.c, self.data.num_periods
        lam = float(state["lam"])
        if "theta" not in clamped:
            su = float(np.sum(np.log(state["u"])))
            lin = math.log(self.prior.b_lam0) + (n + 1) * math.log(lam) + su
            cur = float(state["theta"])
            prop = cur * math.exp(step_theta * rng.standard_normal())
            # log-scale random walk: proposal asymmetry enters as log(prop/cur)
            delta = (self._log_cond_theta(prop, lin, su) - self._log_cond_theta(cur, lin, su)
                     + math.log(prop) - math.log(cur))
            accept = math.log(rng.uniform()) <= delta
            if accept:
                state["theta"] = prop
            if adapt:
                mh_state["theta"] = float(np.clip(
                    step_theta * math.exp(0.05 * ((1.0 if accept else 0.0) - 0.44)),
                    1e-3, 10.0))
        if "u" not in clamped:
            prec, theta = float(state["sigma_prec"]), float(state["theta"])
            slopes = lam - c * prec * t * self._residual_means(state, clamped)
            cur = np.asarray(state["u"], dtype=float)
            prop = cur * np.exp(step_u * rng.standard_normal(cur.size))
            delta = (self._log_cond_u(prop, prec, theta, slopes)
                     - self._log_cond_u(cur, prec, theta, slopes)
                     + np.log(prop) - np.log(cur))
            accept = np.log(rng.uniform(size=cur.size)) <= delta
            state["u"] = np.where(accept, prop, cur)
            if adapt:
                mh_state["u"] = np.clip(
                    step_u * np.exp(0.05 * (accept.astype(float) - 0.44)), 1e-3, 10.0)
        return state

    def posterior_sampler(self, config: SamplerConfig, rng, seed=None) -> PosteriorDrawSet:
        mh_state = {"theta": 0.5, "u": np.full(self.data.num_firms, 0.5), "adapt": True}
        return run_gibbs(self, self._initial_state() | {"theta": 1.0}, config, rng, seed=seed,
                         mh_state=mh_state)

    def vb_fit(self, tol: float = 1e-6, max_iter: int = 200, **kw) -> VBResult:
        return sfm_gamma_vb(self.prior, self.data, tol=tol, max_iter=max_iter, **kw)


def make_sfm_gamma_cdl_weighting(vb: VBResult, kernel: SfmGammaKernel):
    """VB weighting over (beta, sigma^-2, lambda, theta, u) for the gamma kernel."""
    from .modelapi import WeightingDensity

    layout = kernel.layout

    def log_eval(thetas):
        u = layout.unpack_batch(thetas)
        return (vb.hyper["beta"].logpdf_batch(u["beta"])
                + vb.hyper["sigma_prec"].logpdf_batch(u["sigma_prec"])
                + vb.hyper["lam"].logpdf_batch(u["lam"])
                + vb.hyper["theta"].logpdf_batch(u["theta"])
                + vb.hyper["log_q_u"](u["u"]))

    def sampler(rng, size):
        # the kernel layout is the VB layout followed by the u block
        return np.hstack([vb.sample(rng, size), vb.hyper["sample_u"](rng, size)])

    return WeightingDensity(tag="vb-cdl", log_eval=log_eval, sampler=sampler)


# ---------------------------------------------------------------------------
# synthetic data and CSV ingestion
# ---------------------------------------------------------------------------

def sfm_synthetic(seed, num_firms: int, num_periods: int, k: int, family: str,
                  beta, sigma_sq: float, lam: float, theta: float = 1.0,
                  sign: str = "production") -> SfmData:
    """Simulate a balanced frontier panel with the chosen inefficiency family."""
    from .statscore import make_rng

    if sigma_sq <= 0 or lam <= 0 or theta <= 0:
        raise ValueError("variance parameters must be positive")
    if family not in ("exponential", "gamma"):
        raise ValueError("family must be 'exponential' or 'gamma'")
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    beta = np.asarray(beta, dtype=float).ravel()
    if beta.size != k:
        raise ValueError("beta must have k entries")
    nt = num_firms * num_periods
    x = np.column_stack([np.ones(nt), rng.standard_normal((nt, k - 1))]) if k > 1 \
        else np.ones((nt, 1))
    if family == "exponential":
        u = rng.exponential(1.0 / lam, size=num_firms)
    else:
        u = rng.gamma(theta, 1.0 / lam, size=num_firms)
    c = -1.0 if sign == "production" else 1.0
    y = x @ beta + c * np.repeat(u, num_periods) + math.sqrt(sigma_sq) * rng.standard_normal(nt)
    return SfmData(y, x, num_firms, num_periods, sign=sign)


def sfm_write_csv(data: SfmData, path) -> None:
    """Write ``data`` as :func:`sfm_read_csv` reads it, which adds the
    intercept column back."""
    header = "firm_id,period,y," + ",".join(f"x{j}" for j in range(1, data.k))
    lines, width = [header.rstrip(",")], max(3, len(str(data.num_firms - 1)))
    for i in range(data.num_firms):
        for t in range(data.num_periods):
            row = i * data.num_periods + t
            xs = ",".join(repr(float(v)) for v in data.x[row, 1:])
            lines.append(f"f{i:0{width}d},{t},{float(data.y[row])!r}" + ("," + xs if xs else ""))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def sfm_read_csv(path, sign: str = "production") -> SfmData:
    """Load a balanced panel: columns firm_id, period, y, x1..xk."""
    _, cells = read_panel_csv(path, "firm", "y")
    n, t, cols = cells.shape
    rows = cells.reshape(n * t, cols)
    return SfmData(rows[:, 0].copy(), np.column_stack([np.ones(n * t), rows[:, 1:]]), n, t,
                   sign=sign)


# ---------------------------------------------------------------------------
# registry entries
# ---------------------------------------------------------------------------

def _load(family, data_csv, synth, options):
    sign = options["sign"]
    if data_csv:
        return sfm_read_csv(data_csv, sign=sign)
    return sfm_synthetic(int(synth["seed"]), int(synth["n"]), int(synth["t"]), int(synth["k"]),
                         family, synth["beta"], float(synth["sigma_sq"]), float(synth["lam"]),
                         theta=float(synth.get("theta", 1.0)), sign=sign)


def _exp_kernel(data: SfmData, options) -> SfmExpKernel:
    prior = SfmExpPrior(np.zeros(data.k), 4.0 * np.eye(data.k),
                        float(options["a_sigma"]), float(options["b_sigma"]),
                        float(options["a_lam"]), float(options["b_lam"]))
    return SfmExpKernel(prior, data)


def _exp_context(kernel: SfmExpKernel, vb: VBResult) -> ModelContext:
    cdl = kernel.as_complete_data()
    return ModelContext(kernel, vb, cdl_kernel=cdl,
                        cdl_weighting=make_sfm_exp_cdl_weighting(vb, cdl),
                        extend_draws=lambda draws: SfmExpCdlKernel.extend_draws(draws, cdl))


def _gamma_kernel(data: SfmData, options) -> SfmGammaKernel:
    prior = SfmGammaPrior(np.zeros(data.k), 4.0 * np.eye(data.k),
                          float(options["a_sigma"]), float(options["b_sigma"]),
                          float(options["b_lam"]),
                          float(options["a_theta"]), float(options["b_theta"]))
    return SfmGammaKernel(prior, data)


_SYNTH = {"seed": 1, "n": 20, "t": 5, "k": 2, "beta": (1.0, 0.5), "sigma_sq": 0.04, "lam": 2.0}
_OPTIONS = {"sign": "production", "a_sigma": 2.0, "b_sigma": 0.1, "b_lam": 1.0}

MODELS = {
    "sfm-exponential": ModelSpec(
        _SYNTH, {**_OPTIONS, "a_lam": 2.0}, partial(_load, "exponential"),
        _exp_kernel, sfm_write_csv, context=_exp_context),
    "sfm-gamma": ModelSpec(
        {**_SYNTH, "n": 12, "theta": 1.5}, {**_OPTIONS, "a_theta": 2.0, "b_theta": 2.0},
        partial(_load, "gamma"), _gamma_kernel, sfm_write_csv,
        # the kernel carries the u's, so its VB weighting is the complete-data one
        context=lambda kernel, vb: ModelContext(
            kernel, vb, vb_weighting=make_sfm_gamma_cdl_weighting(vb, kernel))),
}
