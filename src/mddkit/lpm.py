"""Longitudinal Poisson model with normal random effects.

Counts follow y_it ~ Poisson(exp(a_it + x_it' beta + z_it' u_i)) with
u_i ~ N(mu, Sigma). The variational fit approximates the joint of
(beta, u) by one Gaussian via fixed-point (non-conjugate message passing)
updates, which lack an ascent guarantee and are therefore damped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, EstimationError
from .modelapi import (
    Block,
    GibbsKernel,
    ModelSpec,
    ParamLayout,
    VBResult,
    check_prior_factors,
    config_int,
    config_real,
    config_reals,
    read_panel_csv,
    stack_state,
)
from .statscore import (
    LOG_2PI,
    MvNormalParams,
    WishartParams,
    _spd_slogdet,
    draw_each,
    log_sum_exp,
    safe_cholesky,
)

__all__ = [
    "LpmData",
    "lpm_vb",
    "lpm_loglik_integrated",
    "lpm_synthetic",
    "lpm_read_csv",
    "lpm_write_csv",
    "LpmKernel",
]

_VB_TOL = 1e-6
_VB_MAX_ITER = 500
_VB_DAMPING = 0.5  # the weight of each sweep's fixed-point update
_GH_NODES = 31  # Gauss-Hermite nodes per random-effect dimension


# ---------------------------------------------------------------------------
# data
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


# ---------------------------------------------------------------------------
# variational fit
# ---------------------------------------------------------------------------

def lpm_vb(kernel: "LpmKernel") -> VBResult:
    """Damped fixed-point fit of q(Gamma) q(mu) q(Sigma^-1), Gamma = (beta, u).

    Each sweep rebuilds the Gaussian factor's precision from the current
    Poisson curvature, takes a damped natural-gradient step on its mean, and
    refreshes the conjugate factors: q(mu) is the kernel's mu conditional at
    E[u] and E[Sigma^-1], q(Sigma^-1) folds in the second moments. The bound
    can dip between sweeps (no ascent guarantee); five consecutive drops of
    more than one nat raise an error suggesting smaller damping.
    """
    data, w0 = kernel.data, kernel.prior_factors["sigma_inv"]
    n, k, m = data.num_subjects, data.k, data.m
    c_mat = data.design()
    dim = k + n * m
    nu_q = w0.dof + n

    gamma_q = np.zeros(dim)
    # v_gamma is always the symmetrized inverse of prec_q
    prec_q, v_gamma = np.eye(dim), np.eye(dim)
    q_mu = kernel.prior_factors["mu"]  # q(mu) starts at its prior
    s_q = w0.scale_inv + n * np.eye(m)
    trace = []
    drops = 0
    converged = False
    for _ in range(_VB_MAX_ITER):
        e_w = nu_q * np.linalg.inv(s_q)
        e_w = 0.5 * (e_w + e_w.T)
        prior_prec, w, grad = _gaussian_factor_gradient(kernel, c_mat, gamma_q, v_gamma,
                                                        q_mu.mean, e_w)
        prec_new = c_mat.T @ (w[:, None] * c_mat) + prior_prec
        prec_q = (1.0 - _VB_DAMPING) * prec_q + _VB_DAMPING * prec_new
        v_gamma = np.linalg.inv(prec_q)
        v_gamma = 0.5 * (v_gamma + v_gamma.T)
        gamma_q = gamma_q + _VB_DAMPING * (v_gamma @ grad)

        u_means = gamma_q[k:].reshape(n, m)
        u_covs = np.stack([v_gamma[k + i * m: k + (i + 1) * m,
                                   k + i * m: k + (i + 1) * m] for i in range(n)])
        q_mu = kernel.full_conditional("mu", {"u": u_means, "sigma_inv": e_w})
        dev = u_means - q_mu.mean
        s_q = w0.scale_inv + n * q_mu.cov + dev.T @ dev + u_covs.sum(axis=0)
        s_q = 0.5 * (s_q + s_q.T)

        trace.append(_elbo_lpm(kernel, c_mat, gamma_q, v_gamma, u_covs, q_mu, s_q, nu_q))
        if len(trace) > 1:
            step = trace[-1] - trace[-2]
            if step < -1.0:
                drops += 1
                if drops >= 5:
                    raise EstimationError(
                        "variational bound diverging; retry with smaller damping")
            else:
                drops = 0
            if abs(step) < _VB_TOL:
                converged = True
                break

    gauss_gamma = MvNormalParams(gamma_q, np.linalg.inv(prec_q))
    factors = {"beta": MvNormalParams(gamma_q[:k], gauss_gamma.cov[:k, :k]),
               "mu": q_mu, "sigma_inv": WishartParams(s_q, nu_q)}
    # q(beta) is the beta marginal of the Gaussian factor over (beta, u)
    return VBResult.mean_field(_lpm_layout(k, m), factors, trace, {"gamma": gauss_gamma},
                               converged)


def _gaussian_factor_gradient(kernel, c_mat, gamma_q, v_gamma, mu_q, e_w):
    """At q(Gamma) = N(gamma_q, v_gamma): the block-diagonal prior precision of
    Gamma = (beta, u) (V_beta0^-1, then E[Sigma^-1] per subject), the Poisson
    weights E[exp(eta)] and the bound's gradient in the mean, as
    ``(prior_prec, w, grad)``."""
    data = kernel.data
    n, k, m = data.num_subjects, data.k, data.m
    prior_prec = np.zeros_like(v_gamma)
    prior_prec[:k, :k] = kernel.prior_factors["beta"].precision
    for i in range(n):
        sl = slice(k + i * m, k + (i + 1) * m)
        prior_prec[sl, sl] = e_w
    prior_mean = np.concatenate([kernel.prior_factors["beta"].mean, np.tile(mu_q, n)])
    half_diag = 0.5 * np.einsum("ij,ij->i", c_mat @ v_gamma, c_mat)
    w = np.exp(data.offsets + c_mat @ gamma_q + half_diag)
    grad = c_mat.T @ (data.y - w) - prior_prec @ (gamma_q - prior_mean)
    return prior_prec, w, grad


def _elbo_lpm(kernel, c_mat, gamma_q, v_gamma, u_covs, q_mu, s_q, nu_q) -> float:
    data = kernel.data
    n, k, m = data.num_subjects, data.k, data.m
    q_w = WishartParams(s_q, nu_q)
    e_w = nu_q * np.linalg.inv(s_q)
    elog_det = q_w.mean_logdet
    half_diag = 0.5 * np.einsum("ij,ij->i", c_mat @ v_gamma, c_mat)
    eta = data.offsets + c_mat @ gamma_q
    w = np.exp(eta + half_diag)
    val = float(-np.sum(w) + data.y @ eta - np.sum(gammaln(data.y + 1.0)))

    val += kernel.prior_factors["beta"].expected_logpdf(gamma_q[:k], v_gamma[:k, :k])

    dev_u = gamma_q[k:].reshape(n, m) - q_mu.mean
    quad_u = float(np.sum(e_w * (dev_u.T @ dev_u + u_covs.sum(axis=0) + n * q_mu.cov).T))
    val += -0.5 * n * m * LOG_2PI + 0.5 * n * elog_det - 0.5 * quad_u

    val += kernel.prior_factors["mu"].expected_logpdf(q_mu.mean, q_mu.cov)
    val += kernel.prior_factors["sigma_inv"].expected_logpdf(e_w, elog_det)
    val += MvNormalParams(gamma_q, v_gamma).entropy()
    val += q_mu.entropy()
    val += q_w.entropy()
    return float(val)


# ---------------------------------------------------------------------------
# integrated likelihood
# ---------------------------------------------------------------------------

# rows x subjects x nodes^m of one block of the integrated likelihood: its
# largest arrays stay at 1 MB each however many rows a call brings
_BLOCK_ELEMENTS = 2 ** 17


@functools.cache
def _product_grid(nodes: int, m: int):
    """The Gauss-Hermite product grid in m dimensions as (nodes^m, 1, 1) arrays,
    shared by every call and never written: each coordinate's nodes times
    sqrt 2, and the log weights plus the squared nodes (the rule's exp(-x^2))."""
    xg, wg = np.polynomial.hermite.hermgauss(nodes)
    axes = np.meshgrid(*[xg] * m, indexing="ij")
    terms = np.meshgrid(*[xg ** 2 + np.log(wg)] * m, indexing="ij")
    return ([math.sqrt(2.0) * a.ravel()[:, None, None] for a in axes],
            np.sum([a.ravel() for a in terms], axis=0)[:, None, None])


def lpm_loglik_integrated(beta, mu, sigma_inv, data: LpmData):
    """ln p(y | beta, mu, Sigma) with the random effects integrated out by
    adaptive Gauss-Hermite (``_GH_NODES`` per dimension) centered at each
    subject's conditional mode.

    Supports m <= 2; batched over aligned (beta, mu, sigma_inv) draws, -inf
    where sigma_inv is not SPD. The rows are integrated in blocks of at most
    ``_BLOCK_ELEMENTS`` rows x subjects x nodes^m.
    """
    if data.m > 2:
        raise ConfigError("integrated likelihood supports m <= 2")
    n, m = data.num_subjects, data.m
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    sigma_inv = np.asarray(sigma_inv, dtype=float).reshape(-1, m, m)
    log_y_fact = float(np.sum(gammaln(data.y + 1.0)))
    spd, logdet_w = _spd_slogdet(sigma_inv)
    out = np.full(beta.shape[0], -np.inf)
    grid, node_terms = _product_grid(_GH_NODES, m)
    groups = np.unique(data.z.transpose(1, 0, 2), axis=0, return_inverse=True)
    rows = np.flatnonzero(spd)
    size = max(1, _BLOCK_ELEMENTS // (n * node_terms.size))
    # the blocks share their work arrays: allocated per block, their pages can go
    # back to the OS and fault in again each time (glibc trims a freed heap top)
    work = np.empty((2 * m + 1, min(size, rows.size) * n * node_terms.size))
    for lo in range(0, rows.size, size):
        r = rows[lo:lo + size]
        out[r] = _integrate_block(beta[r], mu[r], sigma_inv[r], logdet_w[r],
                                  data, groups, grid, node_terms, work) - log_y_fact
    return out


def _integrate_block(beta, mu, w, logdet_w, data: LpmData, groups, grid, node_terms, work):
    """Sum over subjects of ln int prod_t Poisson(y_it | eta_it) N(u; mu, W^-1) du,
    less the ln y! terms, for one block of rows; ``work`` holds 2 m + 1 flat
    arrays of at least nodes^m x rows x subjects each. Each coordinate j of u,
    of the Newton step and of the nodes is its own (..., rows, subjects) array.

    y * eta is summed per subject before the nodes enter, and the periods are
    grouped by their z row (the z_t of every subject; ``groups`` holds the
    distinct rows, (G, n, m), and each period's group): with E_g the sum of
    exp(eta0_t) over group g, sum_t exp(eta0_t + z_t' v) = sum_g exp(z_g' v) E_g.
    So the Newton sums and the node sums take one exponential per group, not
    per period, and no array has a (rows, subjects, nodes, periods) shape.
    """
    n, t, m = data.num_subjects, data.num_periods, data.m
    # one x-beta product per row, so a row has the bits of its one-row call
    eta0 = (data.offsets + np.matvec(data.x, beta)).reshape(-1, n, t)
    y = data.y.reshape(n, t)
    yz = [np.sum(y * data.z[:, :, j], axis=1) for j in range(m)]  # (n,) each
    y_eta0 = np.sum(y * eta0, axis=2)  # (b, n)
    z_rows, group = groups
    exp_eta0 = np.exp(eta0)
    e_g = np.stack([exp_eta0[:, :, group == g].sum(axis=2) for g in range(len(z_rows))])
    zg = [z_rows[:, None, :, j] for j in range(m)]  # (G, 1, n) against (G, b, n)
    mu_c = [mu[:, j, None] for j in range(m)]
    w_c = [[w[:, j, l, None] for l in range(m)] for j in range(m)]

    u = [np.repeat(mu_c[j], n, axis=1) for j in range(m)]
    # a row stops at its own first max |step| below 1e-10, as its one-row call
    # does: only the live rows step, gathered (u_l, e_l, w_l, mu_l) whenever
    # some stop, and a stopped row's u is scattered back into the block's
    live = np.arange(len(mu))
    u_l, e_l, w_l, mu_l = u, e_g, w_c, mu_c
    for _ in range(100):
        ex = np.exp(_weighted_sum(zg, u_l))
        zlam = [zg[j] * ex * e_l for j in range(m)]
        grad = [yz[j] - np.sum(zlam[j], axis=0)
                - _weighted_sum(w_l[j], [u_l[l] - mu_l[l] for l in range(m)]) for j in range(m)]
        step = _newton_step([[-np.sum(zg[j] * zlam[l], axis=0) - w_l[j][l] for l in range(m)]
                             for j in range(m)], grad)
        for j in range(m):
            u_l[j] -= step[j]
        done = np.all([np.abs(s) < 1e-10 for s in step], axis=(0, 2))
        if done.any():
            for j in range(m):
                u[j][live[done]] = u_l[j][done]
            keep = ~done
            live, u_l, e_l = live[keep], [a[keep] for a in u_l], e_l[:, keep]
            w_l, mu_l = [[a[keep] for a in row] for row in w_l], [a[keep] for a in mu_l]
            if not live.size:
                break
    for j in range(m):  # rows still live after the last step
        u[j][live] = u_l[j]
    ex = np.exp(_weighted_sum(zg, u))
    chol = _chol_inverse([[np.sum(zg[j] * zg[l] * ex * e_g, axis=0) + w_c[j][l]
                           for l in range(m)] for j in range(m)])

    # integrand in log space at u + sqrt 2 L x, node-major (nodes^m, b, n)
    bufs = [a[:node_terms.size * y_eta0.size].reshape(-1, *y_eta0.shape) for a in work]
    pts, exp_sum, buf, spares = bufs[:m], bufs[m], bufs[m + 1], bufs[m + 2:]
    for j in range(m):
        _weighted_sum(grid, chol[j], pts[j], [buf])
        pts[j] += u[j]
    for g in range(len(z_rows)):
        part = _weighted_sum(pts, z_rows[g].T, buf if g else exp_sum, spares)
        np.exp(part, out=part)
        part *= e_g[g]
        if g:
            exp_sum += part
    logint = _weighted_sum(pts, yz, buf, spares)
    logint -= exp_sum
    for j in range(m):  # less (u - mu)' W (u - mu) / 2, term by term
        np.subtract(pts[j], mu_c[j], out=pts[j])
        for l in range(j + 1):
            term = np.multiply(pts[l], pts[j], out=exp_sum)
            term *= 0.5 * w_c[j][j] if l == j else w_c[l][j]
            logint -= term
    logint += node_terms
    per_subject = (log_sum_exp(logint, axis=0) + y_eta0
                   + np.sum(np.log([chol[j][j] for j in range(m)]), axis=0)
                   + (0.5 * logdet_w - 0.5 * m * LOG_2PI + 0.5 * m * math.log(2.0))[:, None])
    return per_subject.sum(axis=1)


def _weighted_sum(xs, coefs, out=None, spares=(None,)):
    """sum_j xs[j] * coefs[j] left to right, into ``out`` and ``spares`` when given."""
    out = np.multiply(xs[0], coefs[0], out=out)
    for x, c, spare in zip(xs[1:], coefs[1:], spares):
        out += np.multiply(x, c, out=spare)
    return out


def _newton_step(h, g):
    """h^-1 g for a symmetric 1 x 1 or 2 x 2 h: division, or adjugate over determinant."""
    if len(g) == 1:
        return [g[0] / h[0][0]]
    det = h[0][0] * h[1][1] - h[0][1] * h[0][1]
    return [(h[1][1] * g[0] - h[0][1] * g[1]) / det, (h[0][0] * g[1] - h[0][1] * g[0]) / det]


def _chol_inverse(c):
    """Rows L[j][:j + 1] of the lower Cholesky factor of c^-1, c SPD 1 x 1 or 2 x 2."""
    if len(c) == 1:
        return [[1.0 / np.sqrt(c[0][0])]]
    det = c[0][0] * c[1][1] - c[0][1] * c[0][1]
    l00 = np.sqrt(c[1][1] / det)
    return [[l00], [-c[0][1] / (det * l00), 1.0 / np.sqrt(c[1][1])]]


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def _lpm_layout(k: int, m: int) -> ParamLayout:
    return ParamLayout([Block("beta", (k,)), Block("mu", (m,)),
                        Block("sigma_inv", (m, m), "spd")])


class LpmKernel(GibbsKernel):
    """Poisson panel with the random effects integrated out numerically;
    ``prior_factors`` holds normals for beta and mu and a Wishart for Sigma^-1."""

    conditional_blocks = ["mu", "sigma_inv"]

    def __init__(self, prior_factors: dict, data: LpmData):
        self.prior_factors = check_prior_factors(
            prior_factors, {"beta": data.k, "mu": data.m, "sigma_inv": data.m})
        self.data = data
        self.layout = _lpm_layout(data.k, data.m)
        self.latent_layout = ParamLayout([Block("u", (data.num_subjects, data.m))])
        # the counts and the offsets with a leading chain axis: in a stack of
        # one they meet the states' arrays without broadcasting
        self._y_nt = data.y.reshape(1, data.num_subjects, data.num_periods)
        self._offsets_row = data.offsets[None]

    def log_likelihood_batch(self, thetas):
        u = self.layout.unpack_batch(thetas)
        return lpm_loglik_integrated(u["beta"], u["mu"], u["sigma_inv"], self.data)

    def _poisson_loglik_per_subject(self, xb, zu):
        """Complete-data Poisson log likelihood less the ln y! terms, per subject,
        from the linear predictor's parts xb = offsets + X beta and zu = Z u,
        both (chains, N, T)."""
        eta = xb + zu
        return np.add.reduce(self._y_nt * eta - np.exp(eta), axis=-1)

    def full_conditional(self, name, state):
        n = self.data.num_subjects
        u = np.asarray(state["u"])  # (..., n, m)
        if name == "mu":
            w = np.asarray(state["sigma_inv"])
            return self.prior_factors["mu"].conjugate(n * w, np.matvec(w, u.sum(axis=-2)))
        if name == "sigma_inv":
            dev = u - np.asarray(state["mu"])[..., None, :]
            w0 = self.prior_factors["sigma_inv"]
            return WishartParams(w0.scale_inv + dev.swapaxes(-1, -2) @ dev, w0.dof + n)
        raise KeyError(name)

    def metropolis_steps(self, chains):
        """Random-walk steps of 2.38 / sqrt(dimension) for beta and each u_i,
        capped at 50."""
        d = self.data
        return {"beta": np.full(chains, 2.38 / math.sqrt(d.k)),
                "u": np.full((chains, d.num_subjects), 2.38 / math.sqrt(d.m))}, 50.0

    def _carry(self, state):
        """Add what the Metropolis steps carry across sweeps where absent: xb, zu,
        the per-subject log likelihood and the proposal factors, the Cholesky
        factors of the VB fit's q(beta) covariance and of each subject's (m, m)
        block of its Gaussian factor over u."""
        d = self.data
        n, t, k, m = d.num_subjects, d.num_periods, d.k, d.m
        if "_ll" not in state:
            state["_xb"] = (self._offsets_row + np.matvec(d.x, state["beta"])).reshape(-1, n, t)
            state["_zu"] = np.einsum("itm,cim->cit", d.z, state["u"])
            state["_ll"] = self._poisson_loglik_per_subject(state["_xb"], state["_zu"])
        if "_chol_beta" not in state:
            u_cov = self.vb.hyper["gamma"].cov[k:, k:].reshape(n, m, n, m)
            state.update(stack_state(
                {"_chol_beta": safe_cholesky(self.vb.factors["beta"].cov),
                 "_u_chols": safe_cholesky(u_cov[np.arange(n), :, np.arange(n)])},
                len(state["beta"])))

    def gibbs_sweep(self, state, rngs, clamped, steps):
        """Random-walk Metropolis for beta, then all u_i, then conjugate mu and
        Sigma^-1, over a stack of states; proposals are the states'
        ``"_chol_beta"`` / ``"_u_chols"`` scaled by the ``steps``. Returns the
        accept decisions."""
        d = self.data
        n, t, k, m = d.num_subjects, d.num_periods, d.k, d.m
        accepted = {}
        self._carry(state)
        if "beta" not in clamped:
            beta, ll = state["beta"], state["_ll"]
            noise = draw_each(rngs, lambda rng: rng.standard_normal(k))
            prop = beta + steps["beta"][:, None] * np.matvec(state["_chol_beta"], noise)
            xb_prop = (self._offsets_row + np.matvec(d.x, prop)).reshape(-1, n, t)
            ll_prop = self._poisson_loglik_per_subject(xb_prop, state["_zu"])
            beta0 = self.prior_factors["beta"]
            dev_c, dev_p = beta - beta0.mean, prop - beta0.mean
            dprior = -0.5 * (np.einsum("ck,kl,cl->c", dev_p, beta0.precision, dev_p)
                             - np.einsum("ck,kl,cl->c", dev_c, beta0.precision, dev_c))
            delta = (np.add.reduce(ll_prop, axis=-1) - np.add.reduce(ll, axis=-1)) + dprior
            acc = np.log(draw_each(rngs, lambda rng: rng.uniform())) <= delta
            state["beta"] = np.where(acc[:, None], prop, beta)
            state["_xb"] = np.where(acc[:, None, None], xb_prop, state["_xb"])
            state["_ll"] = np.where(acc[:, None], ll_prop, ll)
            accepted["beta"] = acc
        if "u" not in clamped:
            step, u, ll, w_mat = steps["u"], state["u"], state["_ll"], state["sigma_inv"]
            noise = draw_each(rngs, lambda rng: rng.standard_normal((n, m)))
            prop_u = u + step[..., None] * np.einsum("ciml,cil->cim", state["_u_chols"], noise)
            zu_prop = np.einsum("itm,cim->cit", d.z, prop_u)
            new = self._poisson_loglik_per_subject(state["_xb"], zu_prop)
            mu = state["mu"][:, None, :]
            dev_c, dev_p = u - mu, prop_u - mu
            dprior = -0.5 * (np.einsum("cim,cml,cil->ci", dev_p, w_mat, dev_p)
                             - np.einsum("cim,cml,cil->ci", dev_c, w_mat, dev_c))
            uniforms = draw_each(rngs, lambda rng: rng.uniform(size=n))
            acc_u = np.log(uniforms) <= (new - ll + dprior)
            state["u"] = np.where(acc_u[..., None], prop_u, u)
            state["_zu"] = np.where(acc_u[..., None], zu_prop, state["_zu"])
            state["_ll"] = np.where(acc_u, new, ll)
            accepted["u"] = acc_u
        for name in ("mu", "sigma_inv"):
            if name not in clamped:
                state[name] = self.full_conditional(name, state).sample_stack(rngs)
        return accepted

    def gibbs_start(self, chains):
        """Chains from the VB fit's means (the first sweep adds the proposals)."""
        n, k, m = self.data.num_subjects, self.data.k, self.data.m
        q_gamma, q_w = self.vb.hyper["gamma"], self.vb.factors["sigma_inv"]
        return stack_state({"beta": self.vb.factors["beta"].mean,
                            "u": q_gamma.mean[k:].reshape(n, m), "mu": self.vb.factors["mu"].mean,
                            "sigma_inv": q_w.dof * np.linalg.inv(q_w.scale_inv)}, chains)

    def vb_fit(self) -> VBResult:
        return lpm_vb(self)


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
    k, m = config_int(synth, "synth.k", 1), config_int(synth, "synth.m", 1)
    if m > 2:  # beyond what the integrated likelihood's quadrature supports
        raise ConfigError(f"synth.m must be 1 or 2, got {m}")
    mu = [0.1] * m if synth["mu"] is None else config_reals(synth, "synth.mu", m)
    return lpm_synthetic(config_int(synth, "synth.seed", 0), config_int(synth, "synth.n", 1),
                         config_int(synth, "synth.t", 1), k, m,
                         config_reals(synth, "synth.beta", k), mu,
                         np.eye(m) * config_real(synth, "synth.sigma_diag"))


def _kernel(data: LpmData, options) -> LpmKernel:
    dof = (data.m + 2.0 if options["prior_dof"] is None
           else config_real(options, "options.prior_dof", data.m - 1.0))
    sigma_inv = WishartParams(np.eye(data.m) * config_real(options, "options.prior_scale_sigma"),
                              dof)
    return LpmKernel({"beta": MvNormalParams(np.zeros(data.k), 4.0 * np.eye(data.k)),
                      "mu": MvNormalParams(np.zeros(data.m), 4.0 * np.eye(data.m)),
                      "sigma_inv": sigma_inv}, data)


MODELS = {
    "lpm": ModelSpec(
        # mu None: 0.1 per effect; prior_dof None: m + 2
        {"seed": 1, "n": 20, "t": 5, "k": 2, "m": 1, "beta": (0.3, -0.2), "mu": None,
         "sigma_diag": 0.3},
        {"prior_scale_sigma": 0.5, "prior_dof": None},
        _load, _kernel, lpm_write_csv),
}
