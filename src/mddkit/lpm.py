"""Longitudinal Poisson model with normal random effects.

Counts follow y_it ~ Poisson(exp(a_it + x_it' beta + z_it' u_i)) with
u_i ~ N(mu, Sigma). The variational fit approximates the joint of
(beta, u) by one Gaussian via fixed-point (non-conjugate message passing)
updates, which lack an ascent guarantee and are therefore damped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, EstimationError
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
    MvNormalParams,
    WishartParams,
    _logdet,
    _spd_slogdet,
    ln_multivariate_gamma,
    log_sum_exp,
    multivariate_digamma,
    safe_cholesky,
)

__all__ = [
    "LpmData",
    "LpmPrior",
    "lpm_vb",
    "lpm_loglik_integrated",
    "lpm_synthetic",
    "lpm_read_csv",
    "lpm_write_csv",
    "LpmKernel",
]


# ---------------------------------------------------------------------------
# data and prior
# ---------------------------------------------------------------------------

@dataclass
class LpmData:
    """Balanced count panel, subject-major rows.

    ``z`` holds the random-effect design per subject as an (N, T, m) array;
    the implied NT x Nm block-diagonal matrix is materialized on demand.
    ``offsets`` defaults to ln 8 for the first period and ln 2 afterwards.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    num_subjects: int
    num_periods: int
    offsets: np.ndarray | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.z = np.asarray(self.z, dtype=float)
        nt = self.num_subjects * self.num_periods
        if self.y.size != nt or self.x.shape[0] != nt:
            raise ValueError("y and x must have N * T rows")
        if np.any(self.y < 0) or np.any(self.y != np.round(self.y)):
            raise ValueError("counts must be nonnegative integers")
        if self.z.shape[:2] != (self.num_subjects, self.num_periods):
            raise ValueError("z must have shape (N, T, m)")
        if self.offsets is None:
            self.offsets = default_offsets(self.num_subjects, self.num_periods)
        else:
            self.offsets = np.asarray(self.offsets, dtype=float).ravel()
            if self.offsets.size != nt:
                raise ValueError("offsets must have N * T entries")

    @property
    def k(self) -> int:
        return self.x.shape[1]

    @property
    def m(self) -> int:
        return self.z.shape[2]

    def design(self) -> np.ndarray:
        """The (NT, k + N m) matrix [X Z] with Z block-diagonal."""
        n, t, m = self.num_subjects, self.num_periods, self.m
        z_big = np.zeros((n * t, n * m))
        for i in range(n):
            z_big[i * t:(i + 1) * t, i * m:(i + 1) * m] = self.z[i]
        return np.hstack([self.x, z_big])


def default_offsets(num_subjects: int, num_periods: int) -> np.ndarray:
    """ln 8 at the baseline period, ln 2 for the follow-ups."""
    row = np.full(num_periods, math.log(2.0))
    row[0] = math.log(8.0)
    return np.tile(row, num_subjects)


@dataclass
class LpmPrior:
    beta0: np.ndarray
    Vbeta0: np.ndarray
    mu0: np.ndarray
    Vmu0: np.ndarray
    S0: np.ndarray
    nu0: float

    def __post_init__(self):
        self.beta0 = np.asarray(self.beta0, dtype=float).ravel()
        self.Vbeta0 = np.atleast_2d(np.asarray(self.Vbeta0, dtype=float))
        self.mu0 = np.asarray(self.mu0, dtype=float).ravel()
        self.Vmu0 = np.atleast_2d(np.asarray(self.Vmu0, dtype=float))
        self.S0 = np.atleast_2d(np.asarray(self.S0, dtype=float))
        safe_cholesky(self.Vbeta0)
        safe_cholesky(self.Vmu0)
        m = self.S0.shape[0]
        if not self.nu0 > m - 1:
            raise ValueError("Wishart dof must exceed m - 1")


# ---------------------------------------------------------------------------
# variational fit
# ---------------------------------------------------------------------------

def lpm_vb(prior: LpmPrior, data: LpmData, tol: float = 1e-6, max_iter: int = 500,
           damping: float = 0.5, grad_tol: float | None = None) -> VBResult:
    """Damped fixed-point fit of q(Gamma) q(mu) q(Sigma^-1), Gamma = (beta, u).

    Each sweep rebuilds the Gaussian factor's precision from the current
    Poisson curvature, takes a damped natural-gradient step on its mean, and
    refreshes the conjugate mu and Sigma factors. The bound can dip between
    sweeps (no ascent guarantee); five consecutive drops of more than one
    nat raise an error suggesting smaller damping. ``grad_tol`` additionally
    requires the Gaussian factor's fixed-point residual below the given norm
    (the bound increment alone cannot certify a small gradient).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")
    n, t, k, m = data.num_subjects, data.num_periods, data.k, data.m
    c_mat = data.design()
    dim = k + n * m
    v0_inv_beta = np.linalg.inv(prior.Vbeta0)
    v0_inv_mu = np.linalg.inv(prior.Vmu0)
    nu_q = prior.nu0 + n

    gamma_q = np.zeros(dim)
    prec_q = np.eye(dim)
    mu_q = prior.mu0.copy()
    v_mu = prior.Vmu0.copy()
    s_q = prior.S0 + n * np.eye(m)
    trace = []
    drops = 0
    converged = False
    for _ in range(max_iter):
        e_w = nu_q * np.linalg.inv(s_q)
        e_w = 0.5 * (e_w + e_w.T)
        prior_prec = np.zeros((dim, dim))
        prior_prec[:k, :k] = v0_inv_beta
        for i in range(n):
            sl = slice(k + i * m, k + (i + 1) * m)
            prior_prec[sl, sl] = e_w
        prior_mean = np.concatenate([prior.beta0, np.tile(mu_q, n)])

        v_gamma = np.linalg.inv(prec_q)
        v_gamma = 0.5 * (v_gamma + v_gamma.T)
        cv = c_mat @ v_gamma
        half_diag = 0.5 * np.einsum("ij,ij->i", cv, c_mat)
        w = np.exp(data.offsets + c_mat @ gamma_q + half_diag)
        prec_new = c_mat.T @ (w[:, None] * c_mat) + prior_prec
        prec_q = (1.0 - damping) * prec_q + damping * prec_new
        v_gamma = np.linalg.inv(prec_q)
        v_gamma = 0.5 * (v_gamma + v_gamma.T)
        grad = c_mat.T @ (data.y - w) - prior_prec @ (gamma_q - prior_mean)
        gamma_q = gamma_q + damping * (v_gamma @ grad)

        u_means = gamma_q[k:].reshape(n, m)
        u_covs = np.stack([v_gamma[k + i * m: k + (i + 1) * m,
                                   k + i * m: k + (i + 1) * m] for i in range(n)])
        v_mu = np.linalg.inv(v0_inv_mu + n * e_w)
        v_mu = 0.5 * (v_mu + v_mu.T)
        mu_q = v_mu @ (v0_inv_mu @ prior.mu0 + e_w @ u_means.sum(axis=0))
        dev = u_means - mu_q
        s_q = prior.S0 + n * v_mu + dev.T @ dev + u_covs.sum(axis=0)
        s_q = 0.5 * (s_q + s_q.T)

        trace.append(_elbo_lpm(prior, data, c_mat, gamma_q, v_gamma, mu_q, v_mu, s_q, nu_q))
        if len(trace) > 1:
            step = trace[-1] - trace[-2]
            if step < -1.0:
                drops += 1
                if drops >= 5:
                    raise EstimationError(
                        "variational bound diverging; retry with smaller damping")
            else:
                drops = 0
            if abs(step) < tol:
                if grad_tol is not None and _gamma_gradient_norm(
                        prior, data, c_mat, gamma_q, v_gamma, mu_q, s_q, nu_q) > grad_tol:
                    continue
                converged = True
                break
    if not converged:
        warnings.warn("Poisson-panel VB hit max_iter before the tolerance", stacklevel=2)

    layout = _lpm_layout(k, m)
    gauss_gamma = MvNormalParams(gamma_q, np.linalg.inv(prec_q))
    beta_marg = MvNormalParams(gamma_q[:k], gauss_gamma.cov[:k, :k])
    gauss_mu = MvNormalParams(mu_q, v_mu)
    wish = WishartParams(s_q, nu_q)

    def log_q(thetas):
        u = layout.unpack_batch(thetas)
        return (beta_marg.logpdf_batch(u["beta"]) + gauss_mu.logpdf_batch(u["mu"])
                + wish.logpdf_batch(u["sigma_inv"]))

    def sample(rng, size):
        return layout.pack_batch({
            "beta": beta_marg.sample(rng, size),
            "mu": gauss_mu.sample(rng, size),
            "sigma_inv": wish.sample(rng, size),
        })

    return VBResult(
        hyper={"gamma": gauss_gamma, "beta": beta_marg, "mu": gauss_mu,
               "sigma_inv": wish, "S": s_q, "nu": nu_q,
               "u_means": gamma_q[k:].reshape(n, m)},
        elbo_trace=np.asarray(trace),
        log_q=log_q,
        sample=sample,
        converged=converged,
    )


def _gamma_gradient_norm(prior, data, c_mat, gamma_q, v_gamma, mu_q, s_q, nu_q) -> float:
    n, k, m = data.num_subjects, data.k, data.m
    e_w = nu_q * np.linalg.inv(s_q)
    prior_prec = np.zeros_like(v_gamma)
    prior_prec[:k, :k] = np.linalg.inv(prior.Vbeta0)
    for i in range(n):
        sl = slice(k + i * m, k + (i + 1) * m)
        prior_prec[sl, sl] = e_w
    prior_mean = np.concatenate([prior.beta0, np.tile(mu_q, n)])
    half_diag = 0.5 * np.einsum("ij,ij->i", c_mat @ v_gamma, c_mat)
    w = np.exp(data.offsets + c_mat @ gamma_q + half_diag)
    grad = c_mat.T @ (data.y - w) - prior_prec @ (gamma_q - prior_mean)
    return float(np.linalg.norm(grad))


def lpm_vb_gradient_residual(prior: LpmPrior, data: LpmData, vb: VBResult) -> float:
    """Norm of the Gaussian-factor fixed-point condition at the fitted values."""
    c_mat = data.design()
    return _gamma_gradient_norm(prior, data, c_mat, vb.hyper["gamma"].mean,
                                vb.hyper["gamma"].cov, vb.hyper["mu"].mean,
                                vb.hyper["S"], vb.hyper["nu"])


def _elbo_lpm(prior, data, c_mat, gamma_q, v_gamma, mu_q, v_mu, s_q, nu_q) -> float:
    n, t, k, m = data.num_subjects, data.num_periods, data.k, data.m
    e_w = nu_q * np.linalg.inv(s_q)
    elog_det = multivariate_digamma(m, 0.5 * nu_q) + m * math.log(2.0) - _logdet(s_q)
    half_diag = 0.5 * np.einsum("ij,ij->i", c_mat @ v_gamma, c_mat)
    eta = data.offsets + c_mat @ gamma_q
    w = np.exp(eta + half_diag)
    val = float(-np.sum(w) + data.y @ eta - np.sum(gammaln(data.y + 1.0)))

    beta_q, v_beta = gamma_q[:k], v_gamma[:k, :k]
    dev_b = beta_q - prior.beta0
    v0_inv_beta = np.linalg.inv(prior.Vbeta0)
    val += (-0.5 * k * LOG_2PI - 0.5 * _logdet(prior.Vbeta0)
            - 0.5 * (dev_b @ v0_inv_beta @ dev_b + float(np.sum(v0_inv_beta * v_beta.T))))

    u_means = gamma_q[k:].reshape(n, m)
    u_covs = np.stack([v_gamma[k + i * m: k + (i + 1) * m, k + i * m: k + (i + 1) * m]
                       for i in range(n)])
    dev_u = u_means - mu_q
    quad_u = float(np.sum(e_w * (dev_u.T @ dev_u + u_covs.sum(axis=0) + n * v_mu).T))
    val += -0.5 * n * m * LOG_2PI + 0.5 * n * elog_det - 0.5 * quad_u

    dev_m = mu_q - prior.mu0
    v0_inv_mu = np.linalg.inv(prior.Vmu0)
    val += (-0.5 * m * LOG_2PI - 0.5 * _logdet(prior.Vmu0)
            - 0.5 * (dev_m @ v0_inv_mu @ dev_m + float(np.sum(v0_inv_mu * v_mu.T))))

    val += (0.5 * (prior.nu0 - m - 1.0) * elog_det - 0.5 * float(np.sum(prior.S0 * e_w.T))
            - 0.5 * prior.nu0 * m * math.log(2.0) + 0.5 * prior.nu0 * _logdet(prior.S0)
            - ln_multivariate_gamma(m, 0.5 * prior.nu0))

    dim = k + n * m
    val += 0.5 * dim * (LOG_2PI + 1.0) + 0.5 * _logdet(v_gamma)
    val += 0.5 * m * (LOG_2PI + 1.0) + 0.5 * _logdet(v_mu)
    val -= (0.5 * (nu_q - m - 1.0) * elog_det - 0.5 * nu_q * m
            - 0.5 * nu_q * m * math.log(2.0) + 0.5 * nu_q * _logdet(s_q)
            - ln_multivariate_gamma(m, 0.5 * nu_q))
    return float(val)


# ---------------------------------------------------------------------------
# integrated likelihood
# ---------------------------------------------------------------------------

_GH_CACHE: dict = {}

# rows x subjects x nodes of one block of the m = 1 integrated likelihood: its
# largest arrays stay at 1 MB each however many rows a call brings
_BLOCK_ELEMENTS = 2 ** 17


def _gh_nodes(order: int):
    if order not in _GH_CACHE:
        _GH_CACHE[order] = np.polynomial.hermite.hermgauss(order)
    return _GH_CACHE[order]


def lpm_loglik_integrated(beta, mu, sigma_inv, data: LpmData, nodes: int = 31):
    """ln p(y | beta, mu, Sigma) with the random effects integrated out by
    adaptive Gauss-Hermite centered at each subject's conditional mode.

    Supports m <= 2; batched over aligned (beta, mu, sigma_inv) draws, -inf
    where sigma_inv is not SPD. For m = 1 the rows are integrated in blocks of
    at most ``_BLOCK_ELEMENTS`` rows x subjects x nodes.
    """
    if nodes < 21:
        raise ValueError("need at least 21 Gauss-Hermite nodes")
    if data.m > 2:
        raise ConfigError("integrated likelihood supports m <= 2")
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    sigma_inv = np.asarray(sigma_inv, dtype=float)
    if sigma_inv.ndim == 2:
        sigma_inv = sigma_inv[None]
    s = beta.shape[0]
    n, t, m = data.num_subjects, data.num_periods, data.m
    log_y_fact = float(np.sum(gammaln(data.y + 1.0)))
    spd, logdet_w = _spd_slogdet(sigma_inv)
    out = np.full(s, -np.inf)
    xg, wg = _gh_nodes(nodes)

    if m == 1:
        node_terms = xg ** 2 + np.log(wg)
        rows = np.flatnonzero(spd)
        size = max(1, _BLOCK_ELEMENTS // (n * nodes))
        for lo in range(0, rows.size, size):
            r = rows[lo:lo + size]
            out[r] = _integrate_m1(beta[r], mu[r, 0], sigma_inv[r, 0, 0], logdet_w[r],
                                   data, xg, node_terms) - log_y_fact
        return out

    # m == 2: per-draw loop with vectorized subjects
    y = data.y.reshape(n, t)
    eta0 = (data.offsets[None, :] + beta @ data.x.T).reshape(s, n, t)
    grid_a, grid_b = np.meshgrid(xg, xg, indexing="ij")
    logw2 = (np.log(wg)[:, None] + np.log(wg)[None, :] + grid_a ** 2 + grid_b ** 2).ravel()
    grid = np.stack([grid_a.ravel(), grid_b.ravel()], axis=1)  # (nodes^2, 2)
    for si in np.flatnonzero(spd):
        w_mat = sigma_inv[si]
        u = np.tile(mu[si], (n, 1))
        for _ in range(100):
            eta = eta0[si] + np.einsum("itm,im->it", data.z, u)
            lam = np.exp(eta)
            g1 = np.einsum("itm,it->im", data.z, y - lam) - (u - mu[si]) @ w_mat
            h = -np.einsum("itm,it,itl->iml", data.z, lam, data.z) - w_mat[None]
            step = np.linalg.solve(h, g1[:, :, None])[:, :, 0]
            u -= step
            if np.max(np.abs(step)) < 1e-10:
                break
        eta = eta0[si] + np.einsum("itm,im->it", data.z, u)
        lam = np.exp(eta)
        curv = np.einsum("itm,it,itl->iml", data.z, lam, data.z) + w_mat[None]
        chol_inv = np.linalg.cholesky(np.linalg.inv(curv))
        pts = u[:, None, :] + math.sqrt(2.0) * np.einsum("iml,gl->igm", chol_inv, grid)
        etas = eta0[si][:, None, :] + np.einsum("itm,igm->igt", data.z, pts)
        loglam = np.sum(y[:, None, :] * etas - np.exp(etas), axis=2)
        dev = pts - mu[si]
        quad = np.einsum("igm,ml,igl->ig", dev, w_mat, dev)
        logprior = -LOG_2PI + 0.5 * logdet_w[si] - 0.5 * quad
        _, logdet_ci = np.linalg.slogdet(chol_inv)
        logint = loglam + logprior + logw2[None, :]
        per_subject = log_sum_exp(logint, axis=1) + math.log(2.0) + logdet_ci
        out[si] = per_subject.sum() - log_y_fact
    return out


def _integrate_m1(beta, mu, prec, log_prec, data: LpmData, xg, node_terms):
    """Sum over subjects of ln int prod_t Poisson(y_it | eta_it) N(u; mu, 1/prec) du,
    less the ln y! terms, for one block of rows with scalar random effects.

    y * eta is summed per subject before the nodes enter. The periods are
    grouped by their z column (the z_t of every subject): with E_g the sum of
    exp(eta0_t) over the periods of group g,

        sum_t exp(eta0_t + z_t v) = sum_g exp(z_g v) E_g,

    so the Newton sums and the node sums take one exponential per group, not
    per period, and no array has a (rows, subjects, nodes, periods) shape.
    """
    n, t = data.num_subjects, data.num_periods
    b = beta.shape[0]
    eta0 = (data.offsets + beta @ data.x.T).reshape(b, n, t)
    y, z = data.y.reshape(n, t), data.z[:, :, 0]
    yz = np.sum(y * z, axis=1)  # (n,)
    y_eta0 = np.sum(y * eta0, axis=2)  # (b, n)
    z_cols, group = np.unique(z.T, axis=0, return_inverse=True)  # (G, n), (t,)
    exp_eta0 = np.exp(eta0)
    e_g = np.stack([exp_eta0[:, :, group == g].sum(axis=2) for g in range(len(z_cols))])
    zg = z_cols[:, None, :]  # (G, 1, n) against (G, b, n)
    prec_col, mu_col = prec[:, None], mu[:, None]

    u = np.repeat(mu_col, n, axis=1)
    for _ in range(100):
        zlam = zg * np.exp(zg * u) * e_g
        step = ((yz - np.sum(zlam, axis=0) - prec_col * (u - mu_col))
                / (-np.sum(zg * zlam, axis=0) - prec_col))
        u -= step
        if np.max(np.abs(step)) < 1e-10:
            break
    curv = np.sum(zg * zg * np.exp(zg * u) * e_g, axis=0) + prec_col
    sd = 1.0 / np.sqrt(curv)

    # integrand in log space at the shifted-scaled nodes, node-major (nodes, b, n)
    pts = (math.sqrt(2.0) * xg)[:, None, None] * sd
    pts += u
    exp_sum = np.exp(pts * z_cols[0])
    exp_sum *= e_g[0]
    buf = np.empty_like(pts)
    for g in range(1, len(z_cols)):
        np.multiply(pts, z_cols[g], out=buf)
        np.exp(buf, out=buf)
        buf *= e_g[g]
        exp_sum += buf
    logint = pts * yz
    logint -= exp_sum
    dev = np.subtract(pts, mu_col, out=buf)
    dev *= dev
    dev *= 0.5 * prec_col
    logint -= dev
    logint += node_terms[:, None, None]
    per_subject = (log_sum_exp(logint, axis=0) + y_eta0 + np.log(sd)
                   + (0.5 * log_prec - 0.5 * LOG_2PI + 0.5 * math.log(2.0))[:, None])
    return per_subject.sum(axis=1)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def _lpm_layout(k: int, m: int) -> ParamLayout:
    return ParamLayout([Block("beta", (k,)), Block("mu", (m,)),
                        Block("sigma_inv", (m, m), "spd")])


class LpmKernel(ModelKernel):
    """Poisson panel with the random effects integrated out numerically."""

    conditional_blocks = ["mu", "sigma_inv"]

    def __init__(self, prior: LpmPrior, data: LpmData, nodes: int = 31):
        if prior.beta0.size != data.k or prior.mu0.size != data.m:
            raise ConfigError("prior dimensions do not match the design")
        self.prior = prior
        self.data = data
        self.nodes = nodes
        self.layout = _lpm_layout(data.k, data.m)
        self.latent_layout = ParamLayout([Block("u", (data.num_subjects, data.m))])
        self._gauss_beta0 = MvNormalParams(prior.beta0, prior.Vbeta0)
        self._gauss_mu0 = MvNormalParams(prior.mu0, prior.Vmu0)
        self._wish0 = WishartParams(prior.S0, prior.nu0)
        self._vmu0_inv = np.linalg.inv(prior.Vmu0)
        self._vmu0_inv_mu0 = self._vmu0_inv @ prior.mu0
        self._y_nt = data.y.reshape(data.num_subjects, data.num_periods)

    def log_prior_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        # the Wishart term is -inf off the SPD cone
        return (self._gauss_beta0.logpdf_batch(u["beta"])
                + self._gauss_mu0.logpdf_batch(u["mu"])
                + self._wish0.logpdf_batch(u["sigma_inv"]))

    def log_likelihood_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        return lpm_loglik_integrated(u["beta"], u["mu"], u["sigma_inv"],
                                     self.data, nodes=self.nodes)

    def _poisson_loglik_per_subject(self, xb, zu):
        """Complete-data Poisson log likelihood less the ln y! terms, per subject,
        from the linear predictor's parts xb = offsets + X beta and zu = Z u,
        both (N, T)."""
        eta = xb + zu
        return (self._y_nt * eta - np.exp(eta)).sum(axis=1)

    def full_conditional(self, name, state):
        n = self.data.num_subjects
        u = np.asarray(state["u"])  # (..., n, m)
        if name == "mu":
            w = np.asarray(state["sigma_inv"])
            cov = np.linalg.inv(self._vmu0_inv + n * w)
            cov = 0.5 * (cov + cov.swapaxes(-1, -2))
            rhs = self._vmu0_inv_mu0 + np.matvec(w, u.sum(axis=-2))
            return MvNormalParams(np.matvec(cov, rhs), cov)
        if name == "sigma_inv":
            dev = u - np.asarray(state["mu"])[..., None, :]
            return WishartParams(self.prior.S0 + dev.swapaxes(-1, -2) @ dev,
                                 self.prior.nu0 + n)
        raise KeyError(name)

    def _steps(self, adapt: bool) -> dict:
        """The initial Metropolis step sizes by block, as ``mh_state``."""
        d = self.data
        return {"beta": 2.38 / math.sqrt(d.k), "u": np.full(d.num_subjects, 2.38 / math.sqrt(d.m)),
                "adapt": adapt}

    def _carry(self, state):
        """Add what the Metropolis steps carry across sweeps where absent: xb, zu,
        the beta prior term, the per-subject log likelihood and the proposal
        factors (from the curvature at the state when no VB fit gave them)."""
        d, n, t = self.data, self.data.num_subjects, self.data.num_periods
        if "_ll" not in state:
            state["_xb"] = (d.offsets + d.x @ state["beta"]).reshape(n, t)
            state["_zu"] = np.einsum("itm,im->it", d.z, state["u"])
            state["_lp_beta"] = self._gauss_beta0.logpdf(state["beta"])
            state["_ll"] = self._poisson_loglik_per_subject(state["_xb"], state["_zu"])
        if "_chol_beta" not in state:
            lam = np.exp(state["_xb"] + state["_zu"])
            state["_chol_beta"] = safe_cholesky(np.linalg.inv(
                d.x.T @ (lam.reshape(-1, 1) * d.x) + np.linalg.inv(self.prior.Vbeta0)))
            state["_u_chols"] = safe_cholesky(np.linalg.inv(
                np.einsum("itm,it,itl->iml", d.z, lam, d.z) + state["sigma_inv"]))

    def gibbs_sweep(self, state, rng, clamped=frozenset(), mh_state=None):
        """Random-walk Metropolis for beta, then all u_i, then conjugate mu and
        Sigma^-1; proposals are the state's ``"_chol_beta"`` / ``"_u_chols"``
        scaled by the ``mh_state`` steps (the initial ones, unadapted, if None)."""
        d = self.data
        n, t, k, m = d.num_subjects, d.num_periods, d.k, d.m
        mh_state = self._steps(adapt=False) if mh_state is None else mh_state
        self._carry(state)
        if "beta" not in clamped:
            prop = state["beta"] + mh_state["beta"] * (state["_chol_beta"] @ rng.standard_normal(k))
            xb_prop = (d.offsets + d.x @ prop).reshape(n, t)
            lp_prop = self._gauss_beta0.logpdf(prop)
            ll_prop = self._poisson_loglik_per_subject(xb_prop, state["_zu"])
            delta = float(ll_prop.sum() - state["_ll"].sum()) + lp_prop - state["_lp_beta"]
            acc = math.log(rng.uniform()) <= delta
            if acc:
                state.update(beta=prop, _xb=xb_prop, _lp_beta=lp_prop, _ll=ll_prop)
            if mh_state["adapt"]:
                target = 0.44 if k == 1 else 0.234
                mh_state["beta"] = min(max(mh_state["beta"] * math.exp(
                    0.05 * ((1.0 if acc else 0.0) - target)), 1e-3), 50.0)
        if "u" not in clamped:
            step, u, ll, w_mat = mh_state["u"], state["u"], state["_ll"], state["sigma_inv"]
            noise = rng.standard_normal((n, m))
            prop_u = u + step[:, None] * np.einsum("iml,il->im", state["_u_chols"], noise)
            zu_prop = np.einsum("itm,im->it", d.z, prop_u)
            new = self._poisson_loglik_per_subject(state["_xb"], zu_prop)
            dev_c, dev_p = u - state["mu"], prop_u - state["mu"]
            dprior = -0.5 * (np.einsum("im,ml,il->i", dev_p, w_mat, dev_p)
                             - np.einsum("im,ml,il->i", dev_c, w_mat, dev_c))
            acc_u = np.log(rng.uniform(size=n)) <= (new - ll + dprior)
            state["u"] = np.where(acc_u[:, None], prop_u, u)
            state["_zu"] = np.where(acc_u[:, None], zu_prop, state["_zu"])
            state["_ll"] = np.where(acc_u, new, ll)
            if mh_state["adapt"]:
                target = 0.44 if m == 1 else 0.234
                mh_state["u"] = np.clip(step * np.exp(0.05 * (acc_u.astype(float) - target)),
                                        1e-3, 50.0)
        for name in ("mu", "sigma_inv"):
            if name not in clamped:
                state[name] = self.full_conditional(name, state).sample(rng)
        return state

    def posterior_sampler(self, config: SamplerConfig, rng, seed=None,
                          vb: VBResult | None = None) -> PosteriorDrawSet:
        """:meth:`gibbs_sweep` chain from the VB fit's means, its proposals
        scaled from the variational covariance blocks and adapted in burn-in."""
        n, k, m = self.data.num_subjects, self.data.k, self.data.m
        vb = lpm_vb(self.prior, self.data) if vb is None else vb
        # the (m, m) diagonal blocks of the u part of the Gaussian factor
        u_covs = vb.hyper["gamma"].cov[k:, k:].reshape(n, m, n, m)[np.arange(n), :, np.arange(n)]
        state = {"beta": vb.hyper["beta"].mean.copy(), "u": vb.hyper["u_means"].copy(),
                 "mu": vb.hyper["mu"].mean.copy(),
                 "sigma_inv": vb.hyper["nu"] * np.linalg.inv(vb.hyper["S"]),
                 "_chol_beta": safe_cholesky(vb.hyper["beta"].cov),
                 "_u_chols": safe_cholesky(u_covs)}
        return run_gibbs(self, state, config, rng, seed=seed, mh_state=self._steps(adapt=True))

    def vb_fit(self, tol: float = 1e-6, max_iter: int = 500, damping: float = 0.5) -> VBResult:
        return lpm_vb(self.prior, self.data, tol=tol, max_iter=max_iter, damping=damping)


# ---------------------------------------------------------------------------
# synthetic data and CSV ingestion
# ---------------------------------------------------------------------------

def lpm_synthetic(seed, num_subjects: int, num_periods: int, k: int, m: int,
                  beta, mu, sigma) -> LpmData:
    """Simulate the count panel with the baseline/follow-up offset scheme."""
    from .statscore import make_rng

    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    beta = np.asarray(beta, dtype=float).ravel()
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if beta.size != k or mu.size != m or sigma.shape != (m, m):
        raise ValueError("parameter dimensions inconsistent with k, m")
    n, t = num_subjects, num_periods
    x = rng.standard_normal((n * t, k))
    z = np.ones((n, t, m))
    if m == 2:
        z[:, :, 1] = np.linspace(-1.0, 1.0, t)[None, :]
    elif m > 2:
        z[:, :, 1:] = rng.standard_normal((n, t, m - 1))
    chol = safe_cholesky(sigma + 1e-12 * np.eye(m))
    u = mu + rng.standard_normal((n, m)) @ chol.T
    offsets = default_offsets(n, t)
    eta = offsets + x @ beta + np.einsum("itm,im->it", z, u).ravel()
    y = rng.poisson(np.exp(eta))
    return LpmData(y, x, z, n, t)


def lpm_write_csv(data: LpmData, path) -> None:
    """Write ``data`` as :func:`lpm_read_csv` reads it, offsets included.
    Only a random intercept (m = 1, z = 1) round-trips."""
    if data.m != 1 or np.any(data.z != 1.0):
        raise ConfigError(f"cannot write a panel with m = {data.m} random effects: "
                          "the CSV format has no z columns")
    header = ("subject_id,period,count,"
              + ",".join(f"x{j + 1}" for j in range(data.k)) + ",offset")
    lines, width = [header], max(3, len(str(data.num_subjects - 1)))
    for i in range(data.num_subjects):
        for t in range(data.num_periods):
            row = i * data.num_periods + t
            xs = ",".join(repr(float(v)) for v in data.x[row])
            lines.append(f"s{i:0{width}d},{t},{int(data.y[row])},{xs},"
                         f"{float(data.offsets[row])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def lpm_read_csv(path) -> LpmData:
    """Load a count panel: columns subject_id, period, count, covariates,
    with an optional trailing ``offset`` column."""
    header, cells = read_panel_csv(path, "subject", "count")
    n, t, cols = cells.shape
    rows = cells.reshape(n * t, cols)
    has_offset = header[-1] == "offset"
    x = rows[:, 1:cols - has_offset]
    return LpmData(rows[:, 0].copy(), x.copy() if x.shape[1] else np.ones((n * t, 1)),
                   np.ones((n, t, 1)), n, t, offsets=rows[:, -1].copy() if has_offset else None)


# ---------------------------------------------------------------------------
# registry entry
# ---------------------------------------------------------------------------

def _load(data_csv, synth, options):
    if data_csv:
        return lpm_read_csv(data_csv)
    m = int(synth["m"])
    mu = [0.1] * m if synth["mu"] is None else synth["mu"]
    return lpm_synthetic(int(synth["seed"]), int(synth["n"]), int(synth["t"]), int(synth["k"]),
                         m, synth["beta"], mu, np.eye(m) * float(synth["sigma_diag"]))


def _kernel(data: LpmData, options) -> LpmKernel:
    dof = options["prior_dof"]
    prior = LpmPrior(np.zeros(data.k), 4.0 * np.eye(data.k),
                     np.zeros(data.m), 4.0 * np.eye(data.m),
                     np.eye(data.m) * float(options["prior_scale_sigma"]),
                     data.m + 2.0 if dof is None else float(dof))
    return LpmKernel(prior, data)


MODELS = {
    "lpm": ModelSpec(
        # mu None: 0.1 per effect; prior_dof None: m + 2
        {"seed": 1, "n": 20, "t": 5, "k": 2, "m": 1, "beta": (0.3, -0.2), "mu": None,
         "sigma_diag": 0.3},
        {"prior_scale_sigma": 0.5, "prior_dof": None},
        _load, _kernel, lpm_write_csv,
        # the sampler scales its Metropolis proposals from the VB fit
        context=lambda kernel, vb: ModelContext(kernel, vb, sampler_kwargs={"vb": vb})),
}
