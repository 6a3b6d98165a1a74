"""Vector autoregressions under conjugate and independent normal-Wishart priors.

The coefficient vector alpha stacks the rows of the K x N coefficient
matrix A (regressor-major), so that y_t = (x_t' kron I_N) alpha + eps_t.
The precision matrix enters draw vectors in vech form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .modelapi import (
    Block,
    ModelContext,
    ModelKernel,
    ModelSpec,
    ParamLayout,
    PosteriorDrawSet,
    SamplerConfig,
    VBResult,
    run_gibbs,
)
from .statscore import (
    LOG_2PI,
    MatricNormalParams,
    MvNormalParams,
    WishartParams,
    _logdet,
    _spd_slogdet,
    ln_multivariate_gamma,
    multivariate_digamma,
    safe_cholesky,
)

__all__ = [
    "VarData",
    "VarConjugatePrior",
    "VarIndependentPrior",
    "VarConjugatePosterior",
    "var_exact_posterior",
    "var_exact_log_mdd",
    "var_vb_conjugate",
    "var_vb_independent",
    "var_synthetic",
    "var_read_csv",
    "var_write_csv",
    "VarConjugateKernel",
    "VarIndependentKernel",
]


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

@dataclass
class VarData:
    """Observation matrix Y (T x N) and lag design X (T x K), K = 1 + p N."""

    Y: np.ndarray
    X: np.ndarray
    p: int

    def __post_init__(self):
        self.Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if self.Y.shape[0] != self.X.shape[0]:
            raise ValueError("Y and X must have the same number of rows")
        if self.X.shape[1] != 1 + self.p * self.Y.shape[1]:
            raise ValueError("X must have 1 + p*N columns")
        if 0 < self.T < self.K:
            warnings.warn("fewer observations than regressors; OLS is ill-posed", stacklevel=2)

    @property
    def T(self) -> int:
        return self.Y.shape[0]

    @property
    def N(self) -> int:
        return self.Y.shape[1]

    @property
    def K(self) -> int:
        return self.X.shape[1]

    @classmethod
    def from_series(cls, series: np.ndarray, p: int) -> "VarData":
        """Build Y and the lag design from a raw (T_raw x N) series; the first
        p rows are consumed as presample."""
        series = np.atleast_2d(np.asarray(series, dtype=float))
        t_raw, n = series.shape
        if p < 0:
            raise ValueError("lag order must be nonnegative")
        if t_raw <= p:
            raise ValueError("series shorter than the lag order")
        t = t_raw - p
        x = np.empty((t, 1 + p * n))
        x[:, 0] = 1.0
        for lag in range(1, p + 1):
            x[:, 1 + (lag - 1) * n: 1 + lag * n] = series[p - lag: t_raw - lag]
        return cls(series[p:], x, p)


@dataclass
class VarConjugatePrior:
    """A | Sigma ~ MN(A0, Sigma, V0); Sigma^-1 ~ W(S0^-1, nu0)."""

    A0: np.ndarray
    V0: np.ndarray
    S0: np.ndarray
    nu0: float

    def __post_init__(self):
        self.A0 = np.atleast_2d(np.asarray(self.A0, dtype=float))
        self.V0 = np.atleast_2d(np.asarray(self.V0, dtype=float))
        self.S0 = np.atleast_2d(np.asarray(self.S0, dtype=float))
        safe_cholesky(self.V0)
        n = self.S0.shape[0]
        if not self.nu0 > n - 1:
            raise ValueError("Wishart dof must exceed N - 1")

    @property
    def K(self):
        return self.A0.shape[0]

    @property
    def N(self):
        return self.A0.shape[1]


@dataclass
class VarIndependentPrior:
    """alpha ~ N(alpha0, Vbig0) independent of Sigma^-1 ~ W(S0^-1, nu0)."""

    alpha0: np.ndarray
    Vbig0: np.ndarray
    S0: np.ndarray
    nu0: float

    def __post_init__(self):
        self.alpha0 = np.asarray(self.alpha0, dtype=float).ravel()
        self.Vbig0 = np.atleast_2d(np.asarray(self.Vbig0, dtype=float))
        self.S0 = np.atleast_2d(np.asarray(self.S0, dtype=float))
        safe_cholesky(self.Vbig0)
        n = self.S0.shape[0]
        if not self.nu0 > n - 1:
            raise ValueError("Wishart dof must exceed N - 1")


@dataclass
class VarConjugatePosterior:
    A: np.ndarray
    V: np.ndarray
    S: np.ndarray
    nu: float


# ---------------------------------------------------------------------------
# exact conjugate analysis
# ---------------------------------------------------------------------------

def var_exact_posterior(prior: VarConjugatePrior, data: VarData) -> VarConjugatePosterior:
    """Normal-Wishart posterior of the conjugate VAR."""
    v0_inv = np.linalg.inv(prior.V0)
    v_post = np.linalg.inv(v0_inv + data.X.T @ data.X)
    v_post = 0.5 * (v_post + v_post.T)
    a_post = v_post @ (v0_inv @ prior.A0 + data.X.T @ data.Y)
    resid = data.Y - data.X @ a_post
    dev = a_post - prior.A0
    s_post = resid.T @ resid + prior.S0 + dev.T @ v0_inv @ dev
    s_post = 0.5 * (s_post + s_post.T)
    return VarConjugatePosterior(a_post, v_post, s_post, data.T + prior.nu0)


def var_exact_log_mdd(prior: VarConjugatePrior, data: VarData) -> float:
    """Closed-form log evidence via the normalizing-constant ratio.

    Algebraically the matric-variate-t ordinate of Y, written without
    forming T x T matrices.
    """
    post = var_exact_posterior(prior, data)
    n, t = data.N, data.T
    return (-0.5 * n * t * math.log(math.pi)
            + ln_multivariate_gamma(n, 0.5 * post.nu) - ln_multivariate_gamma(n, 0.5 * prior.nu0)
            + 0.5 * n * (_logdet(post.V) - _logdet(prior.V0))
            + 0.5 * prior.nu0 * _logdet(prior.S0) - 0.5 * post.nu * _logdet(post.S))


# ---------------------------------------------------------------------------
# VB: conjugate prior
# ---------------------------------------------------------------------------

def _wishart_elog_det(scale_inv: np.ndarray, dof: float) -> float:
    """E[ln|W|] for W ~ W(scale_inv^-1, dof)."""
    n = scale_inv.shape[0]
    return multivariate_digamma(n, 0.5 * dof) + n * math.log(2.0) - _logdet(scale_inv)


def _wishart_cross_entropy_terms(scale_inv_q, dof_q, elog_det, e_w_trace_with, scale_inv_p, dof_p):
    """E_q[ln p(W)] for a Wishart prior p with parameters (scale_inv_p, dof_p)."""
    n = scale_inv_p.shape[0]
    return (0.5 * (dof_p - n - 1.0) * elog_det - 0.5 * e_w_trace_with
            - 0.5 * dof_p * n * math.log(2.0) + 0.5 * dof_p * _logdet(scale_inv_p)
            - ln_multivariate_gamma(n, 0.5 * dof_p))


def _wishart_neg_entropy(scale_inv_q, dof_q, elog_det) -> float:
    """E_q[ln q(W)] for q = W(scale_inv_q^-1, dof_q)."""
    n = scale_inv_q.shape[0]
    return (0.5 * (dof_q - n - 1.0) * elog_det - 0.5 * dof_q * n
            - 0.5 * dof_q * n * math.log(2.0) + 0.5 * dof_q * _logdet(scale_inv_q)
            - ln_multivariate_gamma(n, 0.5 * dof_q))


def var_vb_conjugate(prior: VarConjugatePrior, data: VarData,
                     factorized: bool = True) -> VBResult:
    """Closed-form VB for the conjugate VAR.

    ``factorized=False`` keeps the joint normal-Wishart family, which
    reproduces the exact posterior; its bound then equals the exact log
    evidence. The factorized fit breaks the coefficient/precision coupling
    and its bound sits strictly below.
    """
    post = var_exact_posterior(prior, data)
    n, k, t = data.N, data.K, data.T
    if not factorized:
        elbo = _elbo_conjugate_joint(prior, data, post)
        return _var_conjugate_vbresult(post.A, post.V, post.S, post.nu, None, elbo,
                                       data, joint=True)
    nu_q = t + 1.0 + data.p * n + prior.nu0  # = posterior dof + K
    if not nu_q - n - 1.0 > 0:
        raise ConfigError("factorized VB needs nu* > N + 1")
    s_q = (nu_q / post.nu) * post.S
    col_cov = s_q / nu_q  # = inv(E_q[Sigma^-1]); the coordinate-ascent optimum
    elbo = _elbo_conjugate_factorized(prior, data, post, s_q, nu_q, col_cov)
    return _var_conjugate_vbresult(post.A, post.V, s_q, nu_q, col_cov, elbo, data, joint=False)


def _elbo_conjugate_factorized(prior, data, post, s_q, nu_q, col_cov) -> float:
    n, k, t = data.N, data.K, data.T
    v0_inv = np.linalg.inv(prior.V0)
    e_w = nu_q * np.linalg.inv(s_q)
    elog_det = _wishart_elog_det(s_q, nu_q)
    resid = data.Y - data.X @ post.A
    m_lik = resid.T @ resid + np.trace(data.X.T @ data.X @ post.V) * col_cov
    dev = post.A - prior.A0
    m_pri = dev.T @ v0_inv @ dev + np.trace(v0_inv @ post.V) * col_cov

    val = -0.5 * t * n * LOG_2PI + 0.5 * t * elog_det - 0.5 * float(np.sum(e_w * m_lik.T))
    val += (-0.5 * k * n * LOG_2PI + 0.5 * k * elog_det - 0.5 * n * _logdet(prior.V0)
            - 0.5 * float(np.sum(e_w * m_pri.T)))
    val += _wishart_cross_entropy_terms(s_q, nu_q, elog_det,
                                        float(np.sum(prior.S0 * e_w.T)), prior.S0, prior.nu0)
    # entropies of q_A (matric normal) and q_W
    val += 0.5 * k * n * (LOG_2PI + 1.0) + 0.5 * n * _logdet(post.V) + 0.5 * k * _logdet(col_cov)
    val -= _wishart_neg_entropy(s_q, nu_q, elog_det)
    return float(val)


def _elbo_conjugate_joint(prior, data, post) -> float:
    """E_q ln p(y, theta) - E_q ln q(theta) with q the exact NW posterior."""
    n, k, t = data.N, data.K, data.T
    v0_inv = np.linalg.inv(prior.V0)
    e_w = post.nu * np.linalg.inv(post.S)
    elog_det = _wishart_elog_det(post.S, post.nu)
    resid = data.Y - data.X @ post.A
    dev = post.A - prior.A0

    val = (-0.5 * t * n * LOG_2PI + 0.5 * t * elog_det
           - 0.5 * (float(np.sum(e_w * (resid.T @ resid).T))
                    + n * float(np.trace(data.X.T @ data.X @ post.V))))
    val += (-0.5 * k * n * LOG_2PI + 0.5 * k * elog_det - 0.5 * n * _logdet(prior.V0)
            - 0.5 * (float(np.sum(e_w * (dev.T @ v0_inv @ dev).T))
                     + n * float(np.trace(v0_inv @ post.V))))
    val += _wishart_cross_entropy_terms(post.S, post.nu, elog_det,
                                        float(np.sum(prior.S0 * e_w.T)), prior.S0, prior.nu0)
    # E[ln q(A|W)] = -KN/2 ln 2pi - N/2 ln|V| + K/2 E ln|W| - KN/2
    val -= (-0.5 * k * n * LOG_2PI - 0.5 * n * _logdet(post.V) + 0.5 * k * elog_det
            - 0.5 * k * n)
    val -= _wishart_neg_entropy(post.S, post.nu, elog_det)
    return float(val)


def var_vblb_conjugate_closed_form(prior: VarConjugatePrior, data: VarData) -> float:
    """The factorized bound in its condensed display form (cross-check)."""
    post = var_exact_posterior(prior, data)
    n, k, t = data.N, data.K, data.T
    nu_bar = t + prior.nu0
    nu_q = nu_bar + k
    return (-0.5 * n * t * math.log(math.pi) + 0.5 * n * k * math.log(2.0 * math.e)
            + 0.5 * n * (nu_bar * math.log(nu_bar) - nu_q * math.log(nu_q))
            + ln_multivariate_gamma(n, 0.5 * nu_q) - ln_multivariate_gamma(n, 0.5 * prior.nu0)
            + 0.5 * n * (_logdet(post.V) - _logdet(prior.V0))
            + 0.5 * (prior.nu0 * _logdet(prior.S0) - nu_bar * _logdet(post.S)))


def _var_conjugate_vbresult(a_q, v_q, s_q, nu_q, col_cov, elbo, data, joint) -> VBResult:
    n, k = data.N, data.K
    layout = _var_layout(n, k)
    wish = WishartParams(s_q, nu_q)
    if joint:
        # q(A, W) = q(A|W) q(W); only the joint evaluator and sampler make sense
        v_chol = safe_cholesky(v_q)

        v_inv = np.linalg.inv(v_q)

        def log_q(thetas):
            u = layout.unpack_batch(thetas)
            a = u["alpha"].reshape(-1, k, n)
            w = u["sigma_inv"]
            spd, w_logdet = _spd_slogdet(w)
            dev = a - a_q
            q_mat = np.einsum("skn,kl,slm->snm", dev, v_inv, dev)
            quad = np.einsum("snm,smn->s", q_mat, w)
            log_a = (-0.5 * k * n * LOG_2PI + 0.5 * k * w_logdet
                     - 0.5 * n * _logdet(v_q) - 0.5 * quad)
            out = log_a + wish.logpdf_batch(w)
            out[~spd] = -np.inf
            return out

        def sample(rng, size):
            w = wish.sample(rng, size)
            g = np.linalg.inv(np.linalg.cholesky(w))
            z = rng.standard_normal((size, k, n))
            a = a_q[None] + (v_chol @ z) @ g
            return layout.pack_batch({"alpha": a.reshape(size, -1), "sigma_inv": w})

        hyper = {"A": a_q, "V": v_q, "S": s_q, "nu": nu_q}
        return VBResult(hyper=hyper, elbo_trace=np.array([elbo]), log_q=log_q, sample=sample)

    mat = MatricNormalParams(a_q, v_q, col_cov)

    def log_q(thetas):
        u = layout.unpack_batch(thetas)
        a = u["alpha"].reshape(-1, k, n)
        return mat.logpdf_batch(a) + wish.logpdf_batch(u["sigma_inv"])

    def sample(rng, size):
        a = mat.sample(rng, size)
        w = wish.sample(rng, size)
        return layout.pack_batch({"alpha": a.reshape(size, -1), "sigma_inv": w})

    hyper = {"A": a_q, "V": v_q, "S": s_q, "nu": nu_q, "col_cov": col_cov}
    return VBResult(hyper=hyper, elbo_trace=np.array([elbo]), log_q=log_q, sample=sample)


# ---------------------------------------------------------------------------
# VB: independent prior
# ---------------------------------------------------------------------------

def var_vb_independent(prior: VarIndependentPrior, data: VarData,
                       tol: float = 1e-8, max_iter: int = 500) -> VBResult:
    """Coordinate ascent for the independent normal-Wishart prior.

    Starts the precision factor at the OLS residual scale; the coefficient
    factor update uses E[Sigma^-1] = nu S^-1, then the scale update folds in
    the coefficient uncertainty. The bound is assembled term by term, so the
    trace is monotone along the iterations.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n, k, t = data.N, data.K, data.T
    nk = n * k
    xtx = data.X.T @ data.X
    xty = data.X.T @ data.Y
    v0_inv = np.linalg.inv(prior.Vbig0)
    v0_inv_a0 = v0_inv @ prior.alpha0

    # initialization: OLS residual cross-product
    a_ols, *_ = np.linalg.lstsq(data.X, data.Y, rcond=None)
    resid = data.Y - data.X @ a_ols
    s_q = prior.S0 + resid.T @ resid
    nu_q = t + prior.nu0

    trace = []
    alpha_q = prior.alpha0.copy()
    v_q = prior.Vbig0.copy()
    converged = False
    for _ in range(max_iter):
        e_w = nu_q * np.linalg.inv(s_q)
        e_w = 0.5 * (e_w + e_w.T)
        # q(alpha): precision Vbig0^-1 + X'X kron E[W]
        prec = v0_inv + np.kron(xtx, e_w)
        v_q = np.linalg.inv(prec)
        v_q = 0.5 * (v_q + v_q.T)
        alpha_q = v_q @ (v0_inv_a0 + (e_w @ xty.T).T.ravel())
        # q(W): scale folds residual and coefficient covariance
        a_mat = alpha_q.reshape(k, n)
        resid = data.Y - data.X @ a_mat
        v4 = v_q.reshape(k, n, k, n)
        s_q = prior.S0 + resid.T @ resid + np.einsum("kl,knlm->nm", xtx, v4)
        s_q = 0.5 * (s_q + s_q.T)
        trace.append(_elbo_independent(prior, data, alpha_q, v_q, s_q, nu_q))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
    if not converged:
        warnings.warn("independent-prior VB hit max_iter before the tolerance", stacklevel=2)

    layout = _var_layout(n, k)
    gauss = MvNormalParams(alpha_q, v_q)
    wish = WishartParams(s_q, nu_q)

    def log_q(thetas):
        u = layout.unpack_batch(thetas)
        return gauss.logpdf_batch(u["alpha"]) + wish.logpdf_batch(u["sigma_inv"])

    def sample(rng, size):
        return layout.pack_batch({"alpha": gauss.sample(rng, size),
                                  "sigma_inv": wish.sample(rng, size)})

    return VBResult(
        hyper={"alpha": alpha_q, "V": v_q, "S": s_q, "nu": nu_q},
        elbo_trace=np.asarray(trace),
        log_q=log_q,
        sample=sample,
        converged=converged,
    )


def _elbo_independent(prior, data, alpha_q, v_q, s_q, nu_q) -> float:
    n, k, t = data.N, data.K, data.T
    xtx = data.X.T @ data.X
    v0_inv = np.linalg.inv(prior.Vbig0)
    e_w = nu_q * np.linalg.inv(s_q)
    elog_det = _wishart_elog_det(s_q, nu_q)
    a_mat = alpha_q.reshape(k, n)
    resid = data.Y - data.X @ a_mat
    v4 = v_q.reshape(k, n, k, n)
    quad_lik = float(np.sum(e_w * (resid.T @ resid).T)) \
        + float(np.einsum("kl,nm,lmkn->", xtx, e_w, v4))
    dev = alpha_q - prior.alpha0
    quad_pri = float(dev @ v0_inv @ dev) + float(np.sum(v0_inv * v_q.T))

    val = -0.5 * t * n * LOG_2PI + 0.5 * t * elog_det - 0.5 * quad_lik
    val += -0.5 * n * k * LOG_2PI - 0.5 * _logdet(prior.Vbig0) - 0.5 * quad_pri
    val += _wishart_cross_entropy_terms(s_q, nu_q, elog_det,
                                        float(np.sum(prior.S0 * e_w.T)), prior.S0, prior.nu0)
    val += 0.5 * n * k * (LOG_2PI + 1.0) + 0.5 * _logdet(v_q)
    val -= _wishart_neg_entropy(s_q, nu_q, elog_det)
    return float(val)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _var_layout(n: int, k: int) -> ParamLayout:
    return ParamLayout([Block("alpha", (n * k,)), Block("sigma_inv", (n, n), "spd")])


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron over the last two axes, broadcasting leading stack axes."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


class _VarKernelBase(ModelKernel):
    def __init__(self, data: VarData):
        self.data = data
        self.layout = _var_layout(data.N, data.K)
        self._xtx = data.X.T @ data.X
        self._xty = data.X.T @ data.Y
        self._yty = data.Y.T @ data.Y

    def log_likelihood_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        n, k, t = self.data.N, self.data.K, self.data.T
        a = u["alpha"].reshape(-1, k, n)
        w = u["sigma_inv"]
        spd, logdet = _spd_slogdet(w)
        # residual cross-product from the sufficient statistics:
        # Y'Y - A'X'Y - (A'X'Y)' + A'X'X A, never a (rows, T, N) residual array
        at = a.swapaxes(-1, -2)
        axy = at @ self._xty
        m = self._yty - axy - axy.swapaxes(-1, -2) + at @ self._xtx @ a
        quad = np.vecdot(m.reshape(-1, n * n), w.reshape(-1, n * n))
        out = -0.5 * t * n * LOG_2PI + 0.5 * t * logdet - 0.5 * quad
        out[~spd] = -np.inf
        return out

    def _coefficients_and_residuals(self, state):
        """Coefficient matrices A (K x N) of one state or a stack, and Y - X A."""
        a = np.asarray(state["alpha"])
        a = a.reshape(a.shape[:-1] + (self.data.K, self.data.N))
        return a, self.data.Y - self.data.X @ a


class VarConjugateKernel(_VarKernelBase):
    """Conjugate-prior VAR with exact posterior sampling."""

    conditional_blocks = ["alpha", "sigma_inv"]

    def __init__(self, prior: VarConjugatePrior, data: VarData):
        super().__init__(data)
        if prior.K != data.K or prior.N != data.N:
            raise ConfigError("prior dimensions do not match the data")
        self.prior = prior
        self._post = var_exact_posterior(prior, data)
        self._v0_inv = np.linalg.inv(prior.V0)
        self._wish0 = WishartParams(prior.S0, prior.nu0)

    def log_prior_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        n, k = self.data.N, self.data.K
        a = u["alpha"].reshape(-1, k, n)
        w = u["sigma_inv"]
        spd, logdet = _spd_slogdet(w)
        dev = a - self.prior.A0
        q = np.einsum("skn,kl,slm->snm", dev, self._v0_inv, dev)
        quad = np.einsum("snm,smn->s", q, w)
        log_a = (-0.5 * k * n * LOG_2PI + 0.5 * k * logdet
                 - 0.5 * n * _logdet(self.prior.V0) - 0.5 * quad)
        out = log_a + self._wish0.logpdf_batch(w)
        out[~spd] = -np.inf
        return out

    def posterior_sampler(self, config: SamplerConfig, rng, seed=None) -> PosteriorDrawSet:
        """Direct Monte Carlo from the exact normal-Wishart posterior."""
        s = config.draws
        n, k = self.data.N, self.data.K
        w = WishartParams(self._post.S, self._post.nu).sample(rng, s)
        g = np.linalg.inv(np.linalg.cholesky(w))
        z = rng.standard_normal((s, k, n))
        a = self._post.A[None] + (safe_cholesky(self._post.V) @ z) @ g
        thetas = self.layout.pack_batch({"alpha": a.reshape(s, -1), "sigma_inv": w})
        return PosteriorDrawSet(thetas, self.layout, seed=seed, burn_in=0, thin=1)

    def full_conditional(self, name, state):
        if name == "alpha":
            sigma = np.linalg.inv(state["sigma_inv"])
            cov = _kron(self._post.V, 0.5 * (sigma + sigma.swapaxes(-1, -2)))
            return MvNormalParams(np.broadcast_to(self._post.A.ravel(), cov.shape[:-1]), cov)
        if name == "sigma_inv":
            a, resid = self._coefficients_and_residuals(state)
            dev = a - self.prior.A0
            scale_inv = (self.prior.S0 + resid.swapaxes(-1, -2) @ resid
                         + dev.swapaxes(-1, -2) @ self._v0_inv @ dev)
            return WishartParams(0.5 * (scale_inv + scale_inv.swapaxes(-1, -2)),
                                 self.prior.nu0 + self.data.T + self.data.K)
        raise KeyError(name)

    def vb_fit(self, factorized: bool = True) -> VBResult:
        return var_vb_conjugate(self.prior, self.data, factorized=factorized)

    def exact_log_mdd(self) -> float:
        return var_exact_log_mdd(self.prior, self.data)


class VarIndependentKernel(_VarKernelBase):
    """Independent-prior VAR with a two-block Gibbs sampler."""

    conditional_blocks = ["alpha", "sigma_inv"]

    def __init__(self, prior: VarIndependentPrior, data: VarData):
        super().__init__(data)
        nk = data.N * data.K
        if prior.alpha0.size != nk or prior.S0.shape[0] != data.N:
            raise ConfigError("prior dimensions do not match the data")
        self.prior = prior
        self._v0_inv = np.linalg.inv(prior.Vbig0)
        self._v0_inv_a0 = self._v0_inv @ prior.alpha0
        self._gauss0 = MvNormalParams(prior.alpha0, prior.Vbig0)
        self._wish0 = WishartParams(prior.S0, prior.nu0)

    def log_prior_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        # the Wishart term is -inf off the SPD cone
        return self._gauss0.logpdf_batch(u["alpha"]) + self._wish0.logpdf_batch(u["sigma_inv"])

    def full_conditional(self, name, state):
        if name == "alpha":
            w = np.asarray(state["sigma_inv"])
            cov = np.linalg.inv(self._v0_inv + _kron(self._xtx, w))
            cov = 0.5 * (cov + cov.swapaxes(-1, -2))
            xty_w = (w @ self._xty.T).swapaxes(-1, -2)
            rhs = self._v0_inv_a0 + xty_w.reshape(xty_w.shape[:-2] + (-1,))
            return MvNormalParams(np.matvec(cov, rhs), cov)
        if name == "sigma_inv":
            _, resid = self._coefficients_and_residuals(state)
            scale_inv = self.prior.S0 + resid.swapaxes(-1, -2) @ resid
            return WishartParams(0.5 * (scale_inv + scale_inv.swapaxes(-1, -2)),
                                 self.prior.nu0 + self.data.T)
        raise KeyError(name)

    def gibbs_sweep(self, state, rng, clamped=frozenset()):
        for name in self.conditional_blocks:
            if name not in clamped:
                state[name] = self.full_conditional(name, state).sample(rng)
        return state

    def posterior_sampler(self, config: SamplerConfig, rng, seed=None) -> PosteriorDrawSet:
        a_ols, *_ = np.linalg.lstsq(self.data.X, self.data.Y, rcond=None)
        resid = self.data.Y - self.data.X @ a_ols
        w0 = np.linalg.inv((resid.T @ resid + self.prior.S0) / (self.data.T + self.prior.nu0))
        state = {"alpha": a_ols.ravel().copy(), "sigma_inv": 0.5 * (w0 + w0.T)}
        return run_gibbs(self, state, config, rng, seed=seed)

    def vb_fit(self, tol: float = 1e-8, max_iter: int = 500) -> VBResult:
        return var_vb_independent(self.prior, self.data, tol=tol, max_iter=max_iter)


# ---------------------------------------------------------------------------
# synthetic data and CSV ingestion
# ---------------------------------------------------------------------------

def var_synthetic(seed, n: int, t: int, p: int, coeffs: np.ndarray,
                  sigma: np.ndarray, burn: int = 100) -> VarData:
    """Simulate a stable VAR(p); raises on an explosive companion matrix."""
    from .statscore import make_rng

    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))  # K x N
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    k = 1 + p * n
    if coeffs.shape != (k, n):
        raise ValueError(f"coefficient matrix must be {k} x {n}")
    if p > 0:
        companion = np.zeros((n * p, n * p))
        companion[:n, :] = coeffs[1:].T.reshape(n, n * p)
        if p > 1:
            companion[n:, :-n] = np.eye(n * (p - 1))
        radius = np.max(np.abs(np.linalg.eigvals(companion)))
        if radius >= 1.0:
            raise ValueError(f"explosive dynamics: companion spectral radius {radius:.3f} >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    chol = safe_cholesky(sigma)
    total = burn + t + p
    y = np.zeros((total, n))
    for row in range(total):
        x = np.concatenate([[1.0]] + [y[row - lag] if row - lag >= 0 else np.zeros(n)
                                      for lag in range(1, p + 1)])
        y[row] = x @ coeffs + chol @ rng.standard_normal(n)
    return VarData.from_series(y[burn:], p)


def var_write_csv(data: VarData, path) -> None:
    """Write ``data`` as :func:`var_read_csv` reads it at the same lag order:
    the p presample rows, then Y."""
    header = ",".join(f"y{j + 1}" for j in range(data.N))
    first = data.X[0, 1:1 + data.p * data.N].reshape(data.p, data.N)[::-1]
    rows = np.vstack([first, data.Y])
    body = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
    with open(path, "w") as fh:
        fh.write(header + "\n" + body + "\n")


def var_read_csv(path, p: int):
    """Load a VAR series: one header row, columns = series; an optional
    leading ISO-8601 date column is ignored for the math."""
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    drop_first = False
    try:
        float(rows[0][0])
    except ValueError:
        drop_first = True
    names = header[1:] if drop_first else header
    data = np.empty((len(rows), len(names)))
    for i, row in enumerate(rows):
        cells = row[1:] if drop_first else row
        if len(cells) != len(names):
            raise ConfigError(f"{path}: row {i + 2} has {len(cells)} cells, expected {len(names)}")
        for j, cell in enumerate(cells):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise ConfigError(f"{path}: bad cell at row {i + 2}, column {names[j]!r}: {cell!r}")
    return VarData.from_series(data, p), names


# ---------------------------------------------------------------------------
# registry entries
# ---------------------------------------------------------------------------

def _load(data_csv, synth, options):
    p = int(options["p"])
    if data_csv:
        return var_read_csv(data_csv, p)[0]
    n = int(synth["n"])
    coeffs = np.zeros((1 + p * n, n))
    if p >= 1:
        coeffs[1:1 + n, :] = float(synth["ar_diag"]) * np.eye(n)
    return var_synthetic(int(synth["seed"]), n, int(synth["t"]), p, coeffs, np.eye(n))


def _prior_scale_and_dof(data: VarData, options):
    dof = options["prior_dof"]
    return float(options["prior_scale"]), data.N + 2.0 if dof is None else float(dof)


def _conjugate_kernel(data: VarData, options) -> VarConjugateKernel:
    scale, dof = _prior_scale_and_dof(data, options)
    prior = VarConjugatePrior(np.zeros((data.K, data.N)), scale * np.eye(data.K),
                              np.eye(data.N), dof)
    return VarConjugateKernel(prior, data)


def _independent_kernel(data: VarData, options) -> VarIndependentKernel:
    scale, dof = _prior_scale_and_dof(data, options)
    nk = data.N * data.K
    prior = VarIndependentPrior(np.zeros(nk), scale * np.eye(nk), np.eye(data.N), dof)
    return VarIndependentKernel(prior, data)


_SYNTH = {"seed": 1, "n": 2, "t": 80, "ar_diag": 0.5}
_OPTIONS = {"p": 1, "prior_scale": 10.0, "prior_dof": None}   # prior_dof None: N + 2

MODELS = {
    "var-conjugate": ModelSpec(
        _SYNTH, _OPTIONS, _load, _conjugate_kernel, var_write_csv,
        context=lambda kernel, vb: ModelContext(kernel, vb, exact=kernel.exact_log_mdd())),
    "var-independent": ModelSpec(_SYNTH, _OPTIONS, _load, _independent_kernel, var_write_csv),
}
