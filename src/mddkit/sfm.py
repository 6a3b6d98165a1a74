"""Panel stochastic frontier models with exponential or gamma inefficiency.

Rows are firm-major: observation (i, t) sits at index i * T + t. The sign
of the inefficiency term is -1 for production frontiers (default) and +1
for cost frontiers. Parameters carried by draw vectors are beta, the noise
precision sigma^-2 and the inefficiency rate lambda (plus the gamma shape
theta and the latent u for the complete-data variant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import gammaln, log_ndtr

from .errors import ConfigError, NumericError
from .modelapi import (
    Block,
    GibbsKernel,
    ModelContext,
    ModelKernel,
    ModelSpec,
    ParamLayout,
    VBResult,
    WeightingDensity,
    product_density,
    read_panel_csv,
    stack_state,
)
from .statscore import (
    LOG_2PI,
    GammaParams,
    MvNormalParams,
    TruncNormalParams,
    draw_each,
    ln_parabolic_cylinder_d,
    log_sum_exp,
    quadrature_expectations,
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

_GAMMA_VB_TOL = 1e-6
_GAMMA_VB_MAX_ITER = 200


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
    """Per-firm residual mean and sum of squares for a batch of betas; one x-beta
    product per beta, so each row has the bits of a one-beta call."""
    betas = np.atleast_2d(beta)
    resid = data.y - np.matvec(data.x, betas)
    resid = resid.reshape(betas.shape[0], data.num_firms, data.num_periods)
    return resid.mean(axis=2), np.sum(resid * resid, axis=2)


def _firm_residual_means(data: SfmData, beta: np.ndarray) -> np.ndarray:
    """Per-firm residual means of one beta or a stack (..., k), as
    :func:`_firm_residual_stats` computes them (sum / T is bit for bit ``mean``)
    without the sums of squares."""
    resid = data.y - np.matvec(data.x, beta)
    resid = resid.reshape(resid.shape[:-1] + (data.num_firms, data.num_periods))
    return resid.sum(axis=-1) / data.num_periods


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
# what both VB fits share
# ---------------------------------------------------------------------------

def _vb_start(kernel) -> dict:
    """The expectations both fits start from: E[sigma^-2] of the sigma^-2
    conditional at the squared deviations of y from its mean, and E[u] = 1."""
    d = kernel.data
    n, t = d.num_firms, d.num_periods
    return {"sigma_prec": kernel._sigma_conditional(float(np.var(d.y)) * n * t).mean(),
            "u": np.full(n, 1.0)}


def _beta_sigma_step(kernel, state, u_var):
    """q(beta), the kernel's conditional at the expectations in ``state``, then
    q(sigma^-2), its conditional at the expected sum of squares under q(beta)
    and q(u) (means ``state["u"]``, variances ``u_var``). Also returns the
    per-firm residual means and sums of squares of E[beta], which q(u) and the
    bound read as well."""
    d = kernel.data
    c, t, u_mean = d.c, d.num_periods, state["u"]
    q_beta = kernel.full_conditional("beta", state)
    ebar, sum_e2 = _firm_residual_stats(d, q_beta.mean)
    ebar, sum_e2 = ebar[0], sum_e2[0]
    dev2 = sum_e2 - 2.0 * c * t * ebar * u_mean + t * (u_mean ** 2 + u_var)
    q_sig = kernel._sigma_conditional(float(np.sum(dev2))
                                      + float(np.sum(kernel._xtx * q_beta.cov)))
    return q_beta, q_sig, ebar, sum_e2


def _elbo_start(kernel, q_beta, q_sig, ebar, sum_e2, u_mean, u_m2) -> float:
    """The bound's expected log likelihood given E[u] and E[u^2], plus its
    beta and sigma^-2 prior terms, summed in that order."""
    d = kernel.data
    n, t, c = d.num_firms, d.num_periods, d.c
    e_sig, eln_sig = q_sig.mean(), q_sig.mean_log()
    quad = (float(np.sum(sum_e2 - 2.0 * c * t * ebar * u_mean + t * u_m2))
            + float(np.sum(kernel._xtx * q_beta.cov)))
    val = -0.5 * n * t * LOG_2PI + 0.5 * n * t * eln_sig - 0.5 * e_sig * quad
    val += kernel.prior_factors["beta"].expected_logpdf(q_beta.mean, q_beta.cov)
    val += kernel.prior_factors["sigma_prec"].expected_logpdf(e_sig, eln_sig)
    return val


# ---------------------------------------------------------------------------
# exponential-case VB
# ---------------------------------------------------------------------------

def sfm_exp_vb(kernel: "SfmExpKernel", tol: float = 1e-8, max_iter: int = 500) -> VBResult:
    """Coordinate ascent for the exponential-inefficiency frontier model.

    Factors: normal (beta) x gamma (sigma^-2) x gamma (lambda) x product of
    zero-truncated normals (u_i). q(beta), q(lambda) and q(u) are the
    kernel's full conditionals at the current expectations; the bound is
    assembled term by term and is monotone along the sweep. q spans the
    integrated kernel's layout; the u factor serves the complete-data
    weighting.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = kernel.data.num_firms
    state, u_var = _vb_start(kernel), np.full(n, 0.5)
    trace = []
    converged = False
    for _ in range(max_iter):
        q_beta, q_sig, ebar, sum_e2 = _beta_sigma_step(kernel, state, u_var)
        # the u conditional reads the residual means of E[beta] from the state
        state.update(beta=q_beta.mean, sigma_prec=q_sig.mean(), _ebar=ebar)
        q_lam = kernel.full_conditional("lam", state)
        state["lam"] = q_lam.mean()
        q_u = kernel.full_conditional("u", state)
        state["u"], u_var = q_u.mean(), q_u.var()
        trace.append(_elbo_exp(kernel, q_beta, q_sig, q_lam, q_u, ebar, sum_e2))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break

    factors = {"beta": q_beta, "sigma_prec": q_sig, "lam": q_lam, "u": q_u}
    return VBResult.mean_field(_sfm_layout(kernel.data.k), factors, trace, {}, converged)


def _elbo_exp(kernel, q_beta, q_sig, q_lam, q_u, ebar, sum_e2) -> float:
    n = kernel.data.num_firms
    e_lam, eln_lam = q_lam.mean(), q_lam.mean_log()
    u_mean = q_u.mean()
    val = _elbo_start(kernel, q_beta, q_sig, ebar, sum_e2, u_mean, u_mean ** 2 + q_u.var())
    val += kernel.prior_factors["lam"].expected_logpdf(e_lam, eln_lam)
    val += n * eln_lam - e_lam * float(np.sum(u_mean))
    val += q_beta.entropy()
    val += q_sig.entropy() + q_lam.entropy()
    val += float(np.sum(q_u.entropy()))
    return float(val)


# ---------------------------------------------------------------------------
# gamma-case VB
# ---------------------------------------------------------------------------

class GammaCaseInefficiency:
    """The nonstandard q(u_i) ~ u^(shape-1) exp(-prec/2 u^2 - slope u) factor.

    ``prec`` is the coefficient on u^2 (precision-like convention). With
    u = t / sqrt(prec) the factor is t^(shape-1) exp(-t^2/2 - z t) in t,
    z = slope / sqrt(prec), the integrand of the parabolic-cylinder function
    D_{-shape}(z) (DLMF 12.5.1). Its normalizing constant, E[u], E[u^2] and
    E[ln u] come from one tanh-sinh pass over that integrand
    (:func:`quadrature_expectations`), ln u as a signed weight on the same
    nodes. The distribution degenerates to a zero-truncated normal at
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
        log_int, (e_t, e_t2, e_log_t) = quadrature_expectations(
            lambda t, shape_m1, z: shape_m1 * np.log(t) - 0.5 * t * t - z * t,
            (self.shape - 1.0, self.z), 0.0, np.inf, (lambda t: t, np.square, np.log))
        log_root = np.log(self.root_prec)
        self.log_norm = log_int - self.shape * log_root
        self._moments = [e_t / self.root_prec, e_t2 / self.prec]
        self._e_log_u = e_log_t - log_root

    @staticmethod
    def _out(x):
        return float(x) if np.ndim(x) == 0 else x

    def moment(self, order: int):
        """E[u^order] for order 1 or 2."""
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
            return (_log_gamma_case(u, np.log(u), self.shape - 1.0, 0.5 * self.prec, self.slope)
                    - self.log_norm)

    def _trailing_logpdf(self, u: np.ndarray) -> np.ndarray:
        """ln q at points u (..., m) per factor, shaped (*param shape, m)."""
        u = np.moveaxis(np.asarray(u, dtype=float), -1, 0)
        u = u.reshape(u.shape + (1,) * (self.shape.ndim + 1 - u.ndim))
        return np.moveaxis(self.logpdf_batch(u), 0, -1)

    def mean_log(self):
        """E[ln u]."""
        return self._out(self._e_log_u)

    def mean_log_q(self):
        """E[ln q(u)] assembled from the stored moments."""
        m1, m2 = self._moments
        return self._out((self.shape - 1.0) * self._e_log_u - 0.5 * self.prec * m2
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


def _log_gamma_case(u, log_u, shape_m1, half_prec, slope):
    """ln of u^(shape-1) exp(-half_prec u^2 - slope u), -inf at u <= 0: the
    gamma frontier's factor for u_i and, up to a constant, its conditional."""
    return np.where(u > 0, shape_m1 * log_u - half_prec * u * u - slope * u, -np.inf)


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


# the grid starts on [e^-10, e^10] at 2001 log-spaced nodes; an edge node holding
# 1e-10 of the mass or more widens that side by e^5, at most 6 times
_GRID_LO, _GRID_HI, _GRID_SIZE = math.exp(-10.0), math.exp(10.0), 2001
_GRID_EDGE_MASS_TOL, _GRID_MAX_WIDEN = 1e-10, 6


class _GridDensity:
    """Density tabulated on a log-spaced grid with the trapezoid weights of
    its log: the integral of f over x is that of f(e^s) e^s over s = ln x."""

    def __init__(self, log_unnorm):
        lo, hi = _GRID_LO, _GRID_HI
        for _ in range(_GRID_MAX_WIDEN):
            log_grid, h = np.linspace(math.log(lo), math.log(hi), _GRID_SIZE, retstep=True)
            grid = np.exp(log_grid)
            logf = log_unnorm(grid)
            w = h * grid
            w[[0, -1]] *= 0.5
            terms = logf + np.log(w)
            log_c = log_sum_exp(terms)
            probs = np.exp(terms - log_c)
            if probs[0] < _GRID_EDGE_MASS_TOL and probs[-1] < _GRID_EDGE_MASS_TOL:
                break
            if probs[0] >= _GRID_EDGE_MASS_TOL:
                lo /= math.e ** 5
            if probs[-1] >= _GRID_EDGE_MASS_TOL:
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


def sfm_gamma_vb(kernel: "SfmGammaKernel") -> VBResult:
    """Coordinate ascent for the gamma-inefficiency frontier model.

    q(beta) and q(lambda) are the kernel's full conditionals at the current
    expectations. The u factors are nonstandard: each iteration takes their
    normalizing constants, E[u], E[u^2] and E[ln u] from one tanh-sinh pass
    over all firms (:class:`GammaCaseInefficiency`), and the theta factor
    lives on a quadrature grid. q spans the layout of
    :class:`SfmGammaKernel`, u included. The u factors' spread parameter
    T E[sigma^-2] is the coefficient on -u^2 / 2 in E_q ln p, so it is read as
    a precision: so read, each factor is its coordinate-ascent optimum and
    the bound ascends; read as a variance it is no optimum, and the ascent
    guarantee is lost.
    """
    d, prior = kernel.data, kernel.prior
    n, t, c = d.num_firms, d.num_periods, d.c
    state, u_var = _vb_start(kernel) | {"theta": 1.0}, np.full(n, 0.5)
    q_lam = kernel.full_conditional("lam", state)
    u_factors = None
    theta_grid = None

    trace = []
    converged = False
    for _ in range(_GAMMA_VB_MAX_ITER):
        e_lam, eln_lam = q_lam.mean(), q_lam.mean_log()
        q_beta, q_sig, ebar, sum_e2 = _beta_sigma_step(kernel, state, u_var)
        e_sig = state["sigma_prec"] = q_sig.mean()
        # q(u): nonstandard factors
        slopes = e_lam - c * e_sig * t * ebar
        u_factors = GammaCaseInefficiency(state["theta"], t * e_sig, slopes)
        state["u"], u_m2 = u_factors.moment(1), u_factors.moment(2)
        u_var = u_factors.var()
        u_mean_log = u_factors.mean_log()
        # q(theta) on its grid
        lin = (n + 1) * eln_lam + math.log(prior.b_lam0) + float(np.sum(u_mean_log))

        def theta_log_unnorm(th, _lin=lin):
            return (-(prior.a_theta0 + 1.0) * np.log(th) + _lin * th
                    - prior.b_theta0 / th - (n + 1) * gammaln(th))

        theta_grid = _GridDensity(theta_log_unnorm)
        state["theta"] = theta_grid.mean()
        q_lam = kernel.full_conditional("lam", state)
        trace.append(_elbo_gamma(kernel, q_beta, q_sig, q_lam, theta_grid, state["theta"],
                                 u_factors, ebar, sum_e2, state["u"], u_m2, u_mean_log))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < _GAMMA_VB_TOL:
            converged = True
            break

    factors = {"beta": q_beta, "sigma_prec": q_sig, "lam": q_lam, "theta": theta_grid,
               "u": u_factors}
    return VBResult.mean_field(_sfm_gamma_layout(d.k, n), factors, trace, {}, converged)


def _elbo_gamma(kernel, q_beta, q_sig, q_lam, theta_grid, theta_mean, u_factors, ebar, sum_e2,
                u_mean, u_m2, u_mean_log) -> float:
    prior, n = kernel.prior, kernel.data.num_firms
    e_lam, eln_lam = q_lam.mean(), q_lam.mean_log()
    eln_theta = theta_grid.expect(np.log)
    e_theta_inv = theta_grid.expect(lambda g: 1.0 / g)
    eln_gamma_theta = theta_grid.expect(lambda g: gammaln(g))
    val = _elbo_start(kernel, q_beta, q_sig, ebar, sum_e2, u_mean, u_m2)
    # lambda | theta prior and the u priors
    val += (theta_mean * math.log(prior.b_lam0) + (theta_mean - 1.0) * eln_lam
            - prior.b_lam0 * e_lam - eln_gamma_theta)
    val += (n * theta_mean * eln_lam + (theta_mean - 1.0) * float(np.sum(u_mean_log))
            - e_lam * float(np.sum(u_mean)) - n * eln_gamma_theta)
    # theta prior (inverse-gamma on theta)
    val += (prior.a_theta0 * math.log(prior.b_theta0) - float(gammaln(prior.a_theta0))
            - (prior.a_theta0 + 1.0) * eln_theta - prior.b_theta0 * e_theta_inv)
    # entropies
    val += q_beta.entropy()
    val += q_sig.entropy() + q_lam.entropy()
    val -= float(np.sum(u_factors.mean_log_q()))
    val -= theta_grid.mean_log_q()
    return float(val)


# ---------------------------------------------------------------------------
# kernels and samplers
# ---------------------------------------------------------------------------

def _sfm_layout(k: int) -> ParamLayout:
    return ParamLayout([Block("beta", (k,)), Block("sigma_prec", (), "positive"),
                        Block("lam", (), "positive")])


def _u_block(num_firms: int) -> Block:
    return Block("u", (num_firms,), "positive")


def _sfm_gamma_layout(k: int, num_firms: int) -> ParamLayout:
    return ParamLayout(_sfm_layout(k).blocks + [Block("theta", (), "positive"),
                                                _u_block(num_firms)])


class _FrontierKernel(GibbsKernel):
    """What both frontier kernels share: the beta and sigma^-2 priors, their
    conditionals given the inefficiencies u, and the conjugate sweep steps
    (lambda's conditional is each kernel's own), all over a stack of states."""

    def __init__(self, prior, data: SfmData):
        if prior.beta0.size != data.k:
            raise ConfigError("prior dimension does not match the regressors")
        self.prior = prior
        self.data = data
        self.prior_factors = {"beta": MvNormalParams(prior.beta0, prior.Vbeta0),
                              "sigma_prec": GammaParams(prior.a_sigma0, prior.b_sigma0)}
        self._xtx = data.x.T @ data.x
        # y as a row, so that y - (x beta) of a stack of one is no broadcast
        self._y_row = data.y[None]

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

    def _conditional_given_u(self, name, state, cu=None):
        """beta or sigma^-2 given the rest, for one state or a stack; ``cu`` is
        :meth:`_c_times_u` of the state when the caller already holds it."""
        d = self.data
        if cu is None:
            cu = self._c_times_u(state)
        if name == "beta":
            prec = np.asarray(state["sigma_prec"], dtype=float)
            return self.prior_factors["beta"].conjugate(
                prec[..., None, None] * self._xtx, prec[..., None] * np.matvec(d.x.T, d.y - cu))
        if name == "sigma_prec":
            resid = d.y - np.matvec(d.x, state["beta"]) - cu
            return self._sigma_conditional(np.vecdot(resid, resid))
        raise KeyError(name)

    def _sigma_conditional(self, ss):
        """sigma^-2 given the rest, from the states' sums of squared residuals
        y - x beta - c u (a VB fit passes their expectation under q)."""
        p0 = self.prior_factors["sigma_prec"]
        return GammaParams(p0.shape + 0.5 * self.data.num_firms * self.data.num_periods,
                           p0.rate + 0.5 * ss)

    @staticmethod
    def _fixed(state, clamped, blocks, key, compute):
        """The term of ``blocks`` the states carry under ``key``, else
        ``compute()``. While ``blocks`` are all clamped the term never changes,
        so it is computed on the first sweep and carried from then on; a VB
        fit's state carries the residual means of E[beta] as ``_ebar``."""
        if key in state:
            return state[key]
        value = compute()
        if clamped.issuperset(blocks):
            state[key] = value
        return value

    def _residual_means(self, state, clamped):
        """Per-firm residual means of the states' betas for the u step."""
        return self._fixed(state, clamped, ("beta",), "_ebar",
                           lambda: _firm_residual_means(self.data, state["beta"]))

    def _sweep_conjugate_blocks(self, state, rngs, clamped):
        # u stays fixed through these steps, so one c * u serves beta and sigma^-2
        if "beta" not in clamped:
            cu = self._c_times_u(state)
            state["beta"] = self._conditional_given_u("beta", state, cu).sample_stack(rngs)
        if "sigma_prec" not in clamped:
            cu = self._c_times_u(state) if "beta" in clamped else cu
            resid = self._beta_residuals(state, clamped) - cu
            state["sigma_prec"] = self._sigma_conditional(
                np.vecdot(resid, resid)).sample_stack(rngs)
        if "lam" not in clamped:
            state["lam"] = self.full_conditional("lam", state).sample_stack(rngs)

    def _beta_residuals(self, state, clamped):
        """y - x beta of the states' betas for the sigma^-2 step."""
        return self._fixed(state, clamped, ("beta",), "_xres",
                           lambda: self._y_row - np.matvec(self.data.x, state["beta"]))


class SfmExpKernel(_FrontierKernel):
    """Exponential-inefficiency frontier with the latent integrated out."""

    conditional_blocks = ["beta", "sigma_prec", "lam"]

    def __init__(self, prior: SfmExpPrior, data: SfmData):
        super().__init__(prior, data)
        self.layout = _sfm_layout(data.k)
        self.latent_layout = ParamLayout([_u_block(data.num_firms)])
        self.prior_factors["lam"] = GammaParams(prior.a_lam0, prior.b_lam0)

    def log_likelihood_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        return sfm_exp_integrated_loglik(u["beta"], u["sigma_prec"], u["lam"], self.data)

    # -- conditionals ---------------------------------------------------------

    def full_conditional(self, name, state):
        """Conditionals of the conjugate blocks and of u, for one state or a stack."""
        d = self.data
        if name == "lam":
            p0 = self.prior_factors["lam"]
            return GammaParams(p0.shape + d.num_firms, p0.rate + np.add.reduce(state["u"], axis=-1))
        if name == "u":
            return self._u_conditional(state, frozenset())
        return self._conditional_given_u(name, state)

    def _u_conditional(self, state, clamped):
        """u given the rest, one zero-truncated normal per firm, for one state or
        a stack (one scale per state: a scalar, or a (chains, 1) column); the
        terms of a clamped beta or sigma^-2 are carried in the state."""
        c, t = self.data.c, self.data.num_periods
        prec = np.asarray(state["sigma_prec"], dtype=float)
        cte = self._fixed(state, clamped, ("beta",), "_cte",
                          lambda: c * t * self._residual_means(state, clamped))
        scale = self._fixed(
            state, clamped, ("sigma_prec",), "_u_scale",
            lambda: np.sqrt(1.0 / (t * prec)).reshape(prec.shape + (1,) * prec.ndim))
        return TruncNormalParams((cte - (state["lam"] / prec)[..., None]) / t, scale)

    def gibbs_sweep(self, state, rngs, clamped, steps):
        self._sweep_conjugate_blocks(state, rngs, clamped)
        if "u" not in clamped:
            state["u"] = self._u_conditional(state, clamped).sample_stack(rngs)
        return {}

    def gibbs_start(self, chains):
        return stack_state(self._initial_state(), chains)

    def vb_fit(self) -> VBResult:
        return sfm_exp_vb(self)

    def as_complete_data(self) -> "SfmExpCdlKernel":
        return SfmExpCdlKernel(self)


class SfmExpCdlKernel(ModelKernel):
    """Complete-data variant of an :class:`SfmExpKernel`: the latent
    inefficiencies join the parameter vector, the prior adds their
    exponential density given lambda to the integrated kernel's
    ``prior_factors``, and the likelihood is the plain normal density of the
    noise."""

    def __init__(self, integrated: SfmExpKernel):
        self.data = integrated.data
        self.layout = ParamLayout(integrated.layout.blocks + integrated.latent_layout.blocks)
        self.prior_factors = integrated.prior_factors

    def log_prior_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        lam = u["lam"]
        uu = u["u"]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p_u = np.where(
                np.all(uu >= 0, axis=1) & (lam > 0),
                self.data.num_firms * np.log(np.maximum(lam, 1e-300)) - lam * uu.sum(axis=1),
                -np.inf)
        f = self.prior_factors
        return (f["beta"].logpdf_batch(u["beta"]) + f["sigma_prec"].logpdf_batch(u["sigma_prec"])
                + f["lam"].logpdf_batch(lam) + log_p_u)

    def log_likelihood_batch(self, thetas):
        d = self.data
        u = self.layout.unpack_batch(thetas)
        prec = u["sigma_prec"]
        # one x-beta product per row, so a row has the bits of its one-row call
        resid = (d.y[None, :] - np.matvec(d.x, u["beta"])
                 - d.c * np.repeat(u["u"], d.num_periods, axis=1))
        ss = np.sum(resid * resid, axis=1)
        nt = d.num_firms * d.num_periods
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -0.5 * nt * (LOG_2PI - np.log(prec)) - 0.5 * prec * ss
        out[~(prec > 0)] = -np.inf
        return out


def make_sfm_exp_cdl_weighting(vb: VBResult, kernel: SfmExpCdlKernel) -> WeightingDensity:
    """VB weighting over (beta, sigma^-2, lambda, u) for the complete-data kernel."""
    return WeightingDensity("vb-cdl", *product_density(kernel.layout, vb.factors))


class SfmGammaKernel(_FrontierKernel):
    """Gamma-inefficiency frontier; the estimator-facing kernel keeps the
    latents in the parameter vector (complete-data form) since only some
    blocks are conjugate. :func:`sfm_gamma_integrated_loglik` integrates the
    latents out."""

    conditional_blocks = ["beta", "sigma_prec", "lam"]

    def __init__(self, prior: SfmGammaPrior, data: SfmData):
        super().__init__(prior, data)
        self.layout = _sfm_gamma_layout(data.k, data.num_firms)

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
        f = self.prior_factors
        return (f["beta"].logpdf_batch(u["beta"]) + f["sigma_prec"].logpdf_batch(u["sigma_prec"])
                + out)

    log_likelihood_batch = SfmExpCdlKernel.log_likelihood_batch

    # -- sampling -------------------------------------------------------------

    def full_conditional(self, name, state):
        if name == "lam":
            return GammaParams((self.data.num_firms + 1) * np.asarray(state["theta"], dtype=float),
                               self.prior.b_lam0 + np.add.reduce(state["u"], axis=-1))
        return self._conditional_given_u(name, state)

    def _log_cond_theta(self, theta, lin, su):
        """ln p(theta | rest) up to a constant; ``lin`` is theta's linear
        coefficient from lambda and u, ``su`` the sum of ln u."""
        return (-(self.prior.a_theta0 + 1.0) * math.log(theta)
                - self.prior.b_theta0 / theta + theta * lin
                - (self.data.num_firms + 1) * float(gammaln(theta)) - su)

    def metropolis_steps(self, chains):
        """Log-scale random-walk steps of 0.5 for theta and each u_i, capped at 10."""
        return {"theta": np.full(chains, 0.5),
                "u": np.full((chains, self.data.num_firms), 0.5)}, 10.0

    def gibbs_sweep(self, state, rngs, clamped, steps):
        """Conjugate beta, sigma^-2 and lambda, then log-scale random-walk
        Metropolis with the ``steps`` for theta (scalar math chain by chain)
        and for every u_i; returns their accept decisions."""
        self._sweep_conjugate_blocks(state, rngs, clamped)
        accepted = {}
        n, c, t = self.data.num_firms, self.data.c, self.data.num_periods
        lam = state["lam"]
        if "theta" not in clamped:
            thetas, accept = [], []
            sums = np.add.reduce(np.log(state["u"]), axis=-1).tolist()
            for rng, cur, step, lam_i, su in zip(rngs, state["theta"].tolist(),
                                                 steps["theta"].tolist(), lam.tolist(), sums):
                lin = math.log(self.prior.b_lam0) + (n + 1) * math.log(lam_i) + su
                prop = cur * math.exp(step * rng.standard_normal())
                # log-scale random walk: proposal asymmetry enters as log(prop/cur)
                delta = (self._log_cond_theta(prop, lin, su) - self._log_cond_theta(cur, lin, su)
                         + math.log(prop) - math.log(cur))
                accept.append(math.log(rng.uniform()) <= delta)
                thetas.append(prop if accept[-1] else cur)
            state["theta"], accepted["theta"] = np.array(thetas), np.array(accept)
        if "u" not in clamped:
            prec, theta = state["sigma_prec"], state["theta"]
            half_tp = self._fixed(state, clamped, ("sigma_prec",), "_half_tp",
                                  lambda: (0.5 * t * prec)[:, None])
            # c = +-1, so c * t * prec is bit for bit c * prec * t
            fixed_slopes = self._fixed(
                state, clamped, ("beta", "sigma_prec"), "_fixed_slopes",
                lambda: (c * t * prec)[:, None] * self._residual_means(state, clamped))
            coefs = ((theta - 1.0)[:, None], half_tp, lam[:, None] - fixed_slopes)
            cur = state["u"]
            prop = cur * np.exp(steps["u"] * draw_each(rngs, lambda rng: rng.standard_normal(n)))
            with np.errstate(divide="ignore"):
                log_prop, log_cur = np.log(prop), np.log(cur)
            delta = (_log_gamma_case(prop, log_prop, *coefs) - _log_gamma_case(cur, log_cur, *coefs)
                     + log_prop - log_cur)
            accepted["u"] = np.log(draw_each(rngs, lambda rng: rng.uniform(size=n))) <= delta
            state["u"] = np.where(accepted["u"], prop, cur)
        return accepted

    def gibbs_start(self, chains):
        return stack_state(self._initial_state() | {"theta": 1.0}, chains)

    def vb_fit(self) -> VBResult:
        return sfm_gamma_vb(self)


def make_sfm_gamma_cdl_weighting(vb: VBResult, kernel: SfmGammaKernel) -> WeightingDensity:
    """VB weighting over (beta, sigma^-2, lambda, theta, u) for the gamma kernel:
    the fit's q itself, tagged as the complete-data weighting."""
    return WeightingDensity("vb-cdl", *product_density(kernel.layout, vb.factors))


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
                        cdl_weighting=make_sfm_exp_cdl_weighting(vb, cdl))


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
        partial(_load, "gamma"), _gamma_kernel, sfm_write_csv),
}
