"""Vector autoregressions under conjugate and independent normal-Wishart priors.

The coefficient vector alpha stacks the rows of the K x N coefficient
matrix A (regressor-major), so that y_t = (x_t' kron I_N) alpha + eps_t.
The precision matrix enters draw vectors in vech form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .modelapi import (
    Block,
    GibbsKernel,
    ModelContext,
    ModelKernel,
    ModelSpec,
    ParamLayout,
    PosteriorDrawSet,
    SamplerConfig,
    VBResult,
    stack_state,
)
from .statscore import (
    LOG_2PI,
    MvNormalParams,
    WishartParams,
    _logdet,
    _spd_slogdet,
    ln_multivariate_gamma,
    safe_cholesky,
)

__all__ = [
    "VarData",
    "VarConjugatePrior",
    "VarIndependentPrior",
    "NormalWishart",
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

_INDEPENDENT_VB_TOL = 1e-8
_INDEPENDENT_VB_MAX_ITER = 500
_SYNTH_BURN = 100  # simulated rows dropped before the kept sample


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
class NormalWishart:
    """A | W ~ MN(A, V, W^-1) and W ~ W(S^-1, nu), with W = Sigma^-1: the
    conjugate VAR's prior (A0, V0, S0, nu0) and its exact posterior. Densities
    and draws are rows in the VAR layout."""

    A: np.ndarray
    V: np.ndarray
    S: np.ndarray
    nu: float

    def __post_init__(self):
        self.wishart = WishartParams(self.S, self.nu)

    @cached_property
    def layout(self) -> ParamLayout:
        return _var_layout(self.A.shape[1], self.A.shape[0])

    @cached_property
    def _v_inv(self) -> np.ndarray:
        return np.linalg.inv(self.V)

    @cached_property
    def _log_norm(self) -> float:
        """ln Z: the matric normal's and the Wishart's log normalisers."""
        k, n = self.A.shape
        return 0.5 * k * n * LOG_2PI + 0.5 * n * _logdet(self.V) + self.wishart._log_norm

    def logpdf_batch(self, thetas) -> np.ndarray:
        """ln density at the rows ``thetas``; -inf where W is not SPD.

        With D = A - A0 the density is one Wishart-shaped kernel,
        -tr(W (S + D' V^-1 D)) / 2 + (nu + K - N - 1) ln|W| / 2 - ln Z."""
        u = self.layout.unpack_batch(thetas)
        k, n = self.A.shape
        dev = u["alpha"].reshape(-1, k, n) - self.A
        w = u["sigma_inv"]
        spd, logdet = _spd_slogdet(w)
        scale = dev.swapaxes(-1, -2) @ (self._v_inv @ dev)
        scale += self.S
        out = np.vecdot(scale.reshape(-1, n * n), w.reshape(-1, n * n))
        out *= -0.5
        with np.errstate(invalid="ignore"):
            out += 0.5 * (self.nu + k - n - 1.0) * logdet
        out -= self._log_norm
        out[~spd] = -np.inf
        return out

    def sample(self, rng, size: int) -> np.ndarray:
        """``size`` rows: W first, then A given W."""
        k, n = self.A.shape
        w = self.wishart.sample(rng, size)
        g = np.linalg.inv(np.linalg.cholesky(w))
        z = rng.standard_normal((size, k, n))
        a = self.A[None] + (safe_cholesky(self.V) @ z) @ g
        return self.layout.pack_batch({"alpha": a.reshape(size, -1), "sigma_inv": w})


# ---------------------------------------------------------------------------
# exact conjugate analysis
# ---------------------------------------------------------------------------

def var_exact_posterior(prior: VarConjugatePrior, data: VarData) -> NormalWishart:
    """Normal-Wishart posterior of the conjugate VAR."""
    v0_inv = np.linalg.inv(prior.V0)
    v_post = np.linalg.inv(v0_inv + data.X.T @ data.X)
    v_post = 0.5 * (v_post + v_post.T)
    a_post = v_post @ (v0_inv @ prior.A0 + data.X.T @ data.Y)
    resid = data.Y - data.X @ a_post
    dev = a_post - prior.A0
    s_post = resid.T @ resid + prior.S0 + dev.T @ v0_inv @ dev
    s_post = 0.5 * (s_post + s_post.T)
    return NormalWishart(a_post, v_post, s_post, data.T + prior.nu0)


def var_exact_log_mdd(prior: VarConjugatePrior, data: VarData) -> float:
    """Closed-form log evidence via the normalizing-constant ratio.

    Algebraically the matric-variate-t ordinate of Y, written without
    forming T x T matrices.
    """
    return _log_evidence(NormalWishart(prior.A0, prior.V0, prior.S0, prior.nu0),
                         var_exact_posterior(prior, data), data)


def _log_evidence(prior: NormalWishart, post: NormalWishart, data: VarData) -> float:
    """ln p(Y) from the normal-Wishart prior and its exact posterior."""
    n, t = data.N, data.T
    return (-0.5 * n * t * math.log(math.pi)
            + ln_multivariate_gamma(n, 0.5 * post.nu) - ln_multivariate_gamma(n, 0.5 * prior.nu)
            + 0.5 * n * (_logdet(post.V) - _logdet(prior.V))
            + 0.5 * prior.nu * _logdet(prior.S) - 0.5 * post.nu * _logdet(post.S))


# ---------------------------------------------------------------------------
# VB: conjugate prior
# ---------------------------------------------------------------------------

def var_vb_conjugate(prior: VarConjugatePrior, data: VarData,
                     factorized: bool = True) -> VBResult:
    """Closed-form VB for the conjugate VAR.

    ``factorized=False`` keeps the joint normal-Wishart family, which
    reproduces the exact posterior; its bound then equals the exact log
    evidence. The factorized fit breaks the coefficient/precision coupling
    and its bound sits strictly below.
    """
    return VarConjugateKernel(prior, data).vb_fit(factorized)


def _vb_conjugate(kernel: "VarConjugateKernel", factorized: bool) -> VBResult:
    """:func:`var_vb_conjugate` of the kernel, from its exact posterior."""
    data, post = kernel.data, kernel._post
    n = data.N
    hyper = {"A": post.A, "V": post.V, "S": post.S, "nu": post.nu}
    if not factorized:
        # q is the exact normal-Wishart posterior itself, no product of factors
        elbo = _elbo_conjugate_joint(kernel)
        return VBResult(hyper, np.array([elbo]), post.logpdf_batch, post.sample, True)
    nu_q = post.nu + data.K
    if not nu_q - n - 1.0 > 0:
        raise ConfigError("factorized VB needs nu* > N + 1")
    s_q = (nu_q / post.nu) * post.S
    col_cov = s_q / nu_q  # = inv(E_q[Sigma^-1]); the coordinate-ascent optimum
    q_w = WishartParams(s_q, nu_q)
    # the bound is ln p(y) - KL(q || posterior); with q(A) = MN(A*, V, col_cov)
    # and col_cov = inv(E_q W), the coefficients' part of -KL is K/2 (E ln|W| + ln|col_cov|)
    elbo = (_log_evidence(kernel._nw0, post, data)
            + 0.5 * data.K * (_logdet(col_cov) + q_w.mean_logdet)
            + q_w.entropy() + post.wishart.expected_logpdf(q_w.mean(), q_w.mean_logdet))
    # vec(A) row by row, as alpha stacks it: covariance V kron col_cov
    factors = {"alpha": MvNormalParams(post.A.ravel(), _kron(post.V, col_cov)), "sigma_inv": q_w}
    hyper.update(S=s_q, nu=nu_q, col_cov=col_cov)
    return VBResult.mean_field(_var_layout(n, data.K), factors, [elbo], hyper, True)


def _elbo_conjugate_joint(kernel) -> float:
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


# ---------------------------------------------------------------------------
# VB: independent prior
# ---------------------------------------------------------------------------

def var_vb_independent(kernel: "VarIndependentKernel") -> VBResult:
    """Coordinate ascent for the independent normal-Wishart prior.

    Starts the precision factor at the OLS residual scale; the coefficient
    factor is the kernel's alpha conditional at E[Sigma^-1] = nu S^-1, then
    the scale update folds in the coefficient uncertainty. The bound is
    assembled term by term, so the trace is monotone along the iterations.
    """
    w0, data = kernel.prior_factors["sigma_inv"], kernel.data
    n, k, t = data.N, data.K, data.T

    # initialization: OLS residual cross-product
    a_ols, *_ = np.linalg.lstsq(data.X, data.Y, rcond=None)
    resid = data.Y - data.X @ a_ols
    s_q = w0.scale_inv + resid.T @ resid
    nu_q = t + w0.dof

    trace = []
    converged = False
    for _ in range(_INDEPENDENT_VB_MAX_ITER):
        e_w = nu_q * np.linalg.inv(s_q)
        q_alpha = kernel.full_conditional("alpha", {"sigma_inv": 0.5 * (e_w + e_w.T)})
        # q(W): scale folds residual and coefficient covariance
        _, resid = kernel._coefficients_and_residuals({"alpha": q_alpha.mean})
        v4 = q_alpha.cov.reshape(k, n, k, n)
        s_q = w0.scale_inv + resid.T @ resid + np.einsum("kl,knlm->nm", kernel._xtx, v4)
        s_q = 0.5 * (s_q + s_q.T)
        q_w = WishartParams(s_q, nu_q)
        trace.append(_elbo_independent(kernel, q_alpha, q_w, resid))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < _INDEPENDENT_VB_TOL:
            converged = True
            break

    factors = {"alpha": q_alpha, "sigma_inv": q_w}
    return VBResult.mean_field(_var_layout(n, k), factors, trace, {}, converged)


def _elbo_independent(kernel, q_alpha, q_w, resid) -> float:
    """The bound at q(alpha) q(W), with ``resid`` Y - X E[A]."""
    data = kernel.data
    n, k, t = data.N, data.K, data.T
    e_w = q_w.dof * np.linalg.inv(q_w.scale_inv)
    elog_det = q_w.mean_logdet
    v4 = q_alpha.cov.reshape(k, n, k, n)
    quad_lik = float(np.sum(e_w * (resid.T @ resid).T)) \
        + float(np.einsum("kl,nm,lmkn->", kernel._xtx, e_w, v4))

    val = -0.5 * t * n * LOG_2PI + 0.5 * t * elog_det - 0.5 * quad_lik
    val += kernel.prior_factors["alpha"].expected_logpdf(q_alpha.mean, q_alpha.cov)
    val += kernel.prior_factors["sigma_inv"].expected_logpdf(e_w, elog_det)
    val += q_alpha.entropy()
    val += q_w.entropy()
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
        self._nw0 = NormalWishart(prior.A0, prior.V0, prior.S0, prior.nu0)
        self._post = var_exact_posterior(prior, data)

    def log_prior_batch(self, thetas):
        return self._nw0.logpdf_batch(thetas)

    def posterior_sampler(self, config: SamplerConfig, rng, seed=None) -> PosteriorDrawSet:
        """Direct Monte Carlo from the exact normal-Wishart posterior."""
        return PosteriorDrawSet(self._post.sample(rng, config.draws), self.layout, seed=seed,
                                burn_in=0, thin=1)

    def full_conditional(self, name, state):
        if name == "alpha":
            sigma = np.linalg.inv(state["sigma_inv"])
            cov = _kron(self._post.V, 0.5 * (sigma + sigma.swapaxes(-1, -2)))
            return MvNormalParams(np.broadcast_to(self._post.A.ravel(), cov.shape[:-1]), cov)
        if name == "sigma_inv":
            a, resid = self._coefficients_and_residuals(state)
            nw0 = self._nw0
            dev = a - nw0.A
            scale_inv = (nw0.S + resid.swapaxes(-1, -2) @ resid
                         + dev.swapaxes(-1, -2) @ nw0._v_inv @ dev)
            return WishartParams(0.5 * (scale_inv + scale_inv.swapaxes(-1, -2)),
                                 nw0.nu + self.data.T + self.data.K)
        raise KeyError(name)

    def vb_fit(self, factorized: bool = True) -> VBResult:
        return _vb_conjugate(self, factorized)

    def exact_log_mdd(self) -> float:
        return var_exact_log_mdd(self.prior, self.data)


class VarIndependentKernel(_VarKernelBase, GibbsKernel):
    """Independent-prior VAR with a two-block Gibbs sampler."""

    conditional_blocks = ["alpha", "sigma_inv"]

    def __init__(self, prior: VarIndependentPrior, data: VarData):
        super().__init__(data)
        nk = data.N * data.K
        if prior.alpha0.size != nk or prior.S0.shape[0] != data.N:
            raise ConfigError("prior dimensions do not match the data")
        self.prior = prior
        self.prior_factors = {"alpha": MvNormalParams(prior.alpha0, prior.Vbig0),
                              "sigma_inv": WishartParams(prior.S0, prior.nu0)}

    def full_conditional(self, name, state):
        if name == "alpha":
            w = np.asarray(state["sigma_inv"])
            xty_w = (w @ self._xty.T).swapaxes(-1, -2)
            return self.prior_factors["alpha"].conjugate(
                _kron(self._xtx, w), xty_w.reshape(xty_w.shape[:-2] + (-1,)))
        if name == "sigma_inv":
            _, resid = self._coefficients_and_residuals(state)
            w0 = self.prior_factors["sigma_inv"]
            scale_inv = w0.scale_inv + resid.swapaxes(-1, -2) @ resid
            return WishartParams(0.5 * (scale_inv + scale_inv.swapaxes(-1, -2)),
                                 w0.dof + self.data.T)
        raise KeyError(name)

    def gibbs_start(self, chains):
        a_ols, *_ = np.linalg.lstsq(self.data.X, self.data.Y, rcond=None)
        resid = self.data.Y - self.data.X @ a_ols
        w0 = np.linalg.inv((resid.T @ resid + self.prior.S0) / (self.data.T + self.prior.nu0))
        return stack_state({"alpha": a_ols.ravel(), "sigma_inv": 0.5 * (w0 + w0.T)}, chains)

    def vb_fit(self) -> VBResult:
        return var_vb_independent(self)


# ---------------------------------------------------------------------------
# synthetic data and CSV ingestion
# ---------------------------------------------------------------------------

def var_synthetic(seed, n: int, t: int, p: int, coeffs: np.ndarray, sigma: np.ndarray) -> VarData:
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
    total = _SYNTH_BURN + t + p
    y = np.zeros((total, n))
    for row in range(total):
        x = np.concatenate([[1.0]] + [y[row - lag] if row - lag >= 0 else np.zeros(n)
                                      for lag in range(1, p + 1)])
        y[row] = x @ coeffs + chol @ rng.standard_normal(n)
    return VarData.from_series(y[_SYNTH_BURN:], p)


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
