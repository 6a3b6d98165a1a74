"""Marginal data density estimators and weighting-density constructors.

Three generic engines (reciprocal importance sampling, bridge sampling,
importance sampling) consume a posterior draw set, a batched log kernel
and a weighting density; everything is accumulated in log space. The
corrected harmonic mean and the Gibbs-output (conditional-decomposition)
estimator are separate routines with their own requirements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.special import gammaln

from .diagnostics import batch_means_se
from .errors import EstimationError, NumericError, UnsupportedModelError
from .modelapi import ModelKernel, PosteriorDrawSet, SamplerConfig, WeightingDensity, run_gibbs
from .statscore import MvNormalParams, chi_square_quantile, log_sum_exp, safe_cholesky

__all__ = [
    "MddEstimate",
    "ris_estimate",
    "bs_estimate",
    "is_estimate",
    "chm_estimate",
    "chib_estimate",
    "make_vb_weighting",
    "make_prior_weighting",
    "make_normal_weighting",
    "make_geweke_weighting",
    "make_swz_weighting",
    "make_pmd_weighting",
]


@dataclass
class MddEstimate:
    """One log-MDD estimate with method metadata and optional diagnostics."""

    log_mdd: float
    method: str
    num_posterior_draws: int = 0
    num_weighting_draws: int = 0
    iterations: int = 0
    extras: dict = field(default_factory=dict)

    def se_batch_means(self, num_batches: int = 30) -> float:
        """Delta-method SE of the log estimate from its per-draw log terms.

        The estimate is the log (or minus the log) of the mean weight
        exp(term); its SE is the batch-means SE of the normalised weights
        exp(term - max term) over the first floor(S / B) * B terms, divided
        by their mean.
        """
        terms = self.extras.get("log_terms")
        if terms is None:
            raise UnsupportedModelError(f"{self.method} keeps no per-draw series")
        terms = np.asarray(terms, dtype=float)
        usable = terms[:(terms.size // num_batches) * num_batches]
        weights = np.exp(usable - np.max(usable))
        return batch_means_se(weights, num_batches) / float(np.mean(weights))


def _kernel_values(kernel, draws, cached=None):
    if cached is not None:
        return np.asarray(cached, dtype=float)
    return kernel.log_kernel_batch(draws.thetas)


# ---------------------------------------------------------------------------
# generic engines
# ---------------------------------------------------------------------------

def ris_estimate(kernel: ModelKernel, draws: PosteriorDrawSet, h: WeightingDensity,
                 log_kernel_values=None, log_weight_values=None) -> MddEstimate:
    """Reciprocal importance sampling: inverse of the chain average of h/kernel."""
    log_k = _kernel_values(kernel, draws, log_kernel_values)
    log_h = h.log_eval(draws.thetas) if log_weight_values is None else np.asarray(log_weight_values)
    terms = log_h - log_k
    if not np.any(np.isfinite(terms)):
        raise EstimationError(f"RIS weighting {h.tag!r} is zero at every chain draw")
    log_recip = log_sum_exp(terms) - math.log(terms.size)
    return MddEstimate(
        log_mdd=-log_recip,
        method=f"ris-{h.tag}",
        num_posterior_draws=draws.size,
        extras={"log_terms": terms},
    )


def is_estimate(kernel: ModelKernel, f: WeightingDensity, num_draws: int,
                rng: np.random.Generator) -> MddEstimate:
    """Importance sampling over i.i.d. draws from f."""
    f.require_sampler()
    thetas = f.sampler(rng, num_draws)
    terms = kernel.log_kernel_batch(thetas) - f.log_eval(thetas)
    return MddEstimate(
        log_mdd=log_sum_exp(terms) - math.log(num_draws),
        method=f"is-{f.tag}",
        num_weighting_draws=num_draws,
        extras={"log_terms": terms},
    )


def bs_estimate(kernel: ModelKernel, draws: PosteriorDrawSet, g: WeightingDensity,
                num_weighting_draws: int | None = None, rng: np.random.Generator | None = None,
                tol: float = 1e-10, max_iter: int = 100,
                log_kernel_values=None, log_weight_values=None) -> MddEstimate:
    """Bridge sampling via the optimal-bridge recursion, iterated in log space.

    With S posterior draws and O weighting draws the fixed point is
        r = [O^-1 sum_o l_o / (s2 l_o + s1 r)] / [S^-1 sum_s 1 / (s2 l_s + s1 r)]
    where l = kernel/g ratios, s1 = O/(O+S) and s2 = S/(O+S).
    """
    g.require_sampler()
    if rng is None:
        raise ValueError("bridge sampling needs an rng for the weighting draws")
    s = draws.size
    o = num_weighting_draws or s
    log_k_chain = _kernel_values(kernel, draws, log_kernel_values)
    log_g_chain = g.log_eval(draws.thetas) if log_weight_values is None \
        else np.asarray(log_weight_values)
    l1 = log_k_chain - log_g_chain                       # chain draws
    g_draws = g.sampler(rng, o)
    l2 = kernel.log_kernel_batch(g_draws) - g.log_eval(g_draws)  # weighting draws

    log_s1, log_s2 = math.log(o / (o + s)), math.log(s / (o + s))

    def step(log_r):
        num = l2 - np.logaddexp(log_s2 + l2, log_s1 + log_r)
        den = -np.logaddexp(log_s2 + l1, log_s1 + log_r)
        return (log_sum_exp(num) - math.log(o)) - (log_sum_exp(den) - math.log(s))

    # start from RIS with h = g on the chain; fall back to 0
    if np.any(np.isfinite(-l1)):
        log_r = -(log_sum_exp(-l1) - math.log(s))
    else:
        log_r = 0.0
    trace = [log_r]
    for it in range(1, max_iter + 1):
        new = step(log_r)
        trace.append(new)
        if abs(new - log_r) < tol:
            return MddEstimate(
                log_mdd=new, method=f"bs-{g.tag}", num_posterior_draws=s,
                num_weighting_draws=o, iterations=it,
                extras={"trace": np.asarray(trace)},
            )
        log_r = new
    raise EstimationError(
        f"bridge sampling did not converge in {max_iter} iterations; trace={trace[-8:]}")


# ---------------------------------------------------------------------------
# corrected harmonic mean
# ---------------------------------------------------------------------------

def chm_estimate(kernel: ModelKernel, draws: PosteriorDrawSet, rng: np.random.Generator,
                 num_is_draws: int = 10_000, log_kernel_values=None) -> MddEstimate:
    """Harmonic mean of the likelihood rescaled by the prior mass of the
    chain bounding box, the box probability estimated by importance sampling
    from a moment-matched normal (log-transformed on constrained blocks)."""
    if num_is_draws < 1000:
        raise ValueError("box-probability importance sampling needs >= 1000 draws")
    layout = draws.layout
    box_lo = draws.thetas.min(axis=0)
    box_hi = draws.thetas.max(axis=0)

    g = make_normal_weighting(draws)
    g_draws = g.sampler(rng, num_is_draws)
    inside = np.all((g_draws >= box_lo) & (g_draws <= box_hi), axis=1)
    log_ratio = kernel.log_prior_batch(g_draws) - g.log_eval(g_draws)
    log_ratio[~inside] = -np.inf
    if not np.any(np.isfinite(log_ratio)):
        raise EstimationError("no importance draw landed in the chain bounding box")
    log_p_box = log_sum_exp(log_ratio) - math.log(num_is_draws)

    log_k = _kernel_values(kernel, draws, log_kernel_values)
    log_lik = log_k - kernel.log_prior_batch(draws.thetas)
    harmonic_terms = -log_lik
    log_harm_inv = log_sum_exp(harmonic_terms) - math.log(draws.size)
    return MddEstimate(
        log_mdd=log_p_box - log_harm_inv,
        method="chm",
        num_posterior_draws=draws.size,
        num_weighting_draws=num_is_draws,
        extras={"log_p_box": log_p_box, "log_terms": harmonic_terms},
    )


# ---------------------------------------------------------------------------
# Gibbs-output conditional decomposition
# ---------------------------------------------------------------------------

def _default_theta_star(draws: PosteriorDrawSet) -> dict:
    """Posterior mean; positive blocks use the geometric mean, SPD blocks the
    matrix mean (stays inside the cone)."""
    layout = draws.layout
    star = {}
    unpacked = layout.unpack_batch(draws.thetas)
    for b in layout.blocks:
        vals = unpacked[b.name]
        if b.support == "positive":
            star[b.name] = np.exp(np.log(vals).mean(axis=0))
        else:
            star[b.name] = vals.mean(axis=0)
    return star


def chib_estimate(kernel: ModelKernel, draws: PosteriorDrawSet, rng: np.random.Generator,
                  theta_star: dict | None = None, reduced_run_length: int | None = None,
                  log_kernel_values=None) -> MddEstimate:
    """Basic marginal likelihood identity evaluated at a high-density point.

    ln p(y) = ln p(y|t*) + ln p(t*) - ln p(t*|y), with the posterior ordinate
    decomposed block by block along the Gibbs sweep order; every factor after
    the first is Rao-Blackwellized over one reduced run with the earlier
    blocks clamped at their starred values.
    """
    blocks = kernel.conditional_blocks
    if missing := kernel.layout.missing(blocks):  # would need Chib-Jeliazkov ordinates
        raise UnsupportedModelError(f"chib needs a full conditional for every block; "
                                    f"{type(kernel).__name__} has none for {' and '.join(missing)}")
    if len(blocks) > 1 and not hasattr(kernel, "gibbs_sweep"):
        raise UnsupportedModelError(f"{type(kernel).__name__} lacks a clampable Gibbs sweep")
    run_len = reduced_run_length or draws.size
    star = dict(theta_star) if theta_star is not None else _default_theta_star(draws)

    log_ordinate = 0.0
    factors = []
    for j, name in enumerate(blocks):
        states = draws.unpack() if j == 0 else \
            _reduced_run(kernel, draws, star, blocks[:j], run_len, rng)
        star_value = np.asarray(star[name], dtype=float)[None]
        vals = kernel.full_conditional(name, states).logpdf_batch(star_value)[:, 0]
        factor = log_sum_exp(vals) - math.log(len(vals))
        factors.append(factor)
        log_ordinate += factor

    theta_star_vec = kernel.layout.pack(star)
    log_k_star = float(kernel.log_kernel_batch(theta_star_vec[None, :])[0])
    if not np.isfinite(log_k_star):
        raise EstimationError("theta* fell outside the prior support")
    return MddEstimate(
        log_mdd=log_k_star - log_ordinate,
        method="chib",
        num_posterior_draws=draws.size,
        num_weighting_draws=run_len * max(len(blocks) - 1, 0),
        extras={"ordinate_factors": np.asarray(factors), "theta_star": star},
    )


def _reduced_run(kernel, draws, star, clamped_names, run_len, rng):
    """Stacked states of a Gibbs run from the last draw with the clamped
    blocks held at their starred values (default Metropolis steps)."""
    state = {k: v[0] for k, v in draws.unpack([draws.size - 1]).items()}
    for name in clamped_names:
        state[name] = star[name]
    config = SamplerConfig(draws=run_len, burn_in=min(draws.burn_in, 200))
    return run_gibbs(kernel, state, config, rng, clamped=frozenset(clamped_names)).unpack()


# ---------------------------------------------------------------------------
# weighting densities
# ---------------------------------------------------------------------------

def make_vb_weighting(vb) -> WeightingDensity:
    """The fitted variational density as a weighting function."""
    return WeightingDensity(tag="vb", log_eval=vb.log_q, sampler=vb.sample)


def make_prior_weighting(kernel: ModelKernel) -> WeightingDensity:
    """h = prior; RIS with this weighting is the harmonic mean estimator."""
    return WeightingDensity(tag="prior", log_eval=kernel.log_prior_batch)


def make_normal_weighting(draws: PosteriorDrawSet, tag: str = "normal") -> WeightingDensity:
    """Moment-matched multivariate normal on the unconstrained transform of the
    draws (log for positive blocks, Cholesky-log for SPD blocks)."""
    layout = draws.layout
    phis, _ = layout.to_unconstrained_batch(draws.thetas)
    base = MvNormalParams(phis.mean(axis=0), np.atleast_2d(np.cov(phis.T)))

    def log_eval(thetas):
        phi, log_jac = layout.to_unconstrained_batch(thetas)
        return base.logpdf_batch(phi) + log_jac

    def sampler(rng, size):
        return layout.from_unconstrained(base.sample(rng, size))

    return WeightingDensity(tag=tag, log_eval=log_eval, sampler=sampler)


def make_geweke_weighting(draws: PosteriorDrawSet, alpha: float = 0.05) -> WeightingDensity:
    """Moment-matched normal truncated to its 100(1-alpha)% highest density
    region; constrained blocks are handled on the unconstrained transform with
    the Jacobian so the result is a proper density on the original space."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    layout = draws.layout
    phis, _ = layout.to_unconstrained_batch(draws.thetas)
    mean = phis.mean(axis=0)
    cov = np.atleast_2d(np.cov(phis.T))
    base = MvNormalParams(mean, cov)
    n = layout.dim
    threshold = chi_square_quantile(n, 1.0 - alpha)
    chol = safe_cholesky(base.cov)

    def log_eval(thetas):
        phi, log_jac = layout.to_unconstrained_batch(thetas)
        dev = phi - mean
        z = _tri_solve(chol, dev)
        maha = np.sum(z * z, axis=0)
        out = base.logpdf_batch(phi) - math.log1p(-alpha) + log_jac
        out[maha > threshold] = -np.inf
        return out

    return WeightingDensity(tag="geweke", log_eval=log_eval)


def _tri_solve(chol, dev):
    from scipy.linalg import solve_triangular
    return solve_triangular(chol, dev.T, lower=True)


_MODE_SENTINEL = 1e100  # objective value where the kernel is not finite


def _kernel_mode(kernel: ModelKernel, layout, start: np.ndarray) -> np.ndarray:
    """Kernel mode on the unconstrained transform by BFGS from ``start``.

    Each objective call evaluates the point and its central-difference
    stencil (step cbrt(eps) * max(1, |phi|)) in one (2d + 1)-row kernel call;
    a non-finite stencil reads as the sentinel, so the line search backs off.
    """
    d = start.size
    step_scale = np.cbrt(np.finfo(float).eps)
    eye = np.eye(d)

    def neg_log_kernel_and_grad(phi):
        h = step_scale * np.maximum(1.0, np.abs(phi))
        stencil = np.vstack([phi, phi + h * eye, phi - h * eye])
        vals = kernel.log_kernel_batch(layout.from_unconstrained(stencil))
        if not np.all(np.isfinite(vals)):
            return _MODE_SENTINEL, np.zeros(d)
        return -vals[0], (vals[d + 1:] - vals[1:d + 1]) / (2.0 * h)

    res = minimize(neg_log_kernel_and_grad, start, jac=True, method="BFGS",
                   options={"maxiter": 2_000, "gtol": 1e-8})
    if not res.fun < _MODE_SENTINEL:
        raise NumericError("posterior mode search failed")
    return res.x


def make_swz_weighting(kernel: ModelKernel, draws: PosteriorDrawSet,
                       coverage: float = 0.9, radial_percentiles=(1.0, 99.0),
                       log_kernel_values=None) -> WeightingDensity:
    """Elliptical weighting centered at the posterior mode with a fitted
    power-law radial density, truncated to a kernel superlevel set holding
    ~``coverage`` of the chain draws.

    The ellipse lives on the unconstrained transform; the scaling matrix is
    the second moment of the transformed draws about the transformed mode,
    the radial exponent is fitted by matching the mean Mahalanobis radius.
    """
    layout = draws.layout
    log_k = _kernel_values(kernel, draws, log_kernel_values)
    phis, _ = layout.to_unconstrained_batch(draws.thetas)
    phi_hat = _kernel_mode(kernel, layout, phis[int(np.argmax(log_k))])

    dev = phis - phi_hat
    omega = dev.T @ dev / draws.size
    chol = safe_cholesky(np.atleast_2d(omega))
    z = _tri_solve(chol, dev)
    radii = np.sqrt(np.sum(z * z, axis=0))
    a, b = np.percentile(radii, radial_percentiles)
    r_mean = radii.mean()

    def mean_radius(nu):
        # E[r] under p(r) ~ r^(nu-1) on [a, b], written in ratios of q = a/b < 1
        q = a / b
        return b * nu / (nu + 1.0) * (1.0 - q ** (nu + 1.0)) / (1.0 - q ** nu)

    try:
        nu = brentq(lambda v: mean_radius(v) - r_mean, 1e-3, 1e6)
    except ValueError:
        nu = float(layout.dim)  # radius matching infeasible; chi-like default
    threshold = np.percentile(log_k, 100.0 * (1.0 - coverage))

    n = layout.dim
    log_det_half = float(np.sum(np.log(np.diag(chol))))
    log_const = (float(gammaln(n / 2.0)) - math.log(2.0) - (n / 2.0) * math.log(math.pi)
                 + math.log(nu) - math.log(b ** nu - a ** nu)
                 - math.log(coverage) - log_det_half)

    def log_eval(thetas):
        thetas = np.atleast_2d(thetas)
        phi, log_jac = layout.to_unconstrained_batch(thetas)
        d = phi - phi_hat
        zz = _tri_solve(chol, d)
        r = np.sqrt(np.sum(zz * zz, axis=0))
        with np.errstate(divide="ignore"):
            out = log_const + (nu - n) * np.log(r) + log_jac
        out[(r < a) | (r > b)] = -np.inf
        alive = np.isfinite(out)
        if np.any(alive):
            k_vals = kernel.log_kernel_batch(thetas[alive])
            sub = out[alive]
            sub[k_vals <= threshold] = -np.inf
            out[alive] = sub
        return out

    return WeightingDensity(tag="swz", log_eval=log_eval)


_PMD_BLOCK_ROWS = 1024


def make_pmd_weighting(kernel: ModelKernel, draws: PosteriorDrawSet,
                       blocks: list[str] | None = None,
                       components: int | None = 512) -> WeightingDensity:
    """Product of Rao-Blackwellized marginal posterior densities.

    Each factor is the chain average of the block's full conditional; the
    sampler draws every block independently from the conditional of a
    uniformly chosen component state. ``components`` caps the number of
    mixture components by even-stride subsampling (None keeps all draws).
    """
    names = blocks or kernel.conditional_blocks
    if not names:
        raise UnsupportedModelError(f"{type(kernel).__name__} exposes no conditionals for PMD")
    if components is None or components >= draws.size:
        idx = np.arange(draws.size)
    else:
        idx = np.linspace(0, draws.size - 1, components).round().astype(int)
    states = draws.unpack(idx)
    conditionals = {name: kernel.full_conditional(name, states) for name in names}
    layout = draws.layout
    n_comp = len(idx)

    def log_eval(thetas):
        # blocks of points bound each (components, points) temporary
        thetas = np.atleast_2d(thetas)
        total = np.zeros(thetas.shape[0])
        for lo in range(0, thetas.shape[0], _PMD_BLOCK_ROWS):
            rows = slice(lo, lo + _PMD_BLOCK_ROWS)
            unpacked = layout.unpack_batch(thetas[rows])
            for name in names:
                comp = conditionals[name].logpdf_batch(unpacked[name])
                total[rows] += log_sum_exp(comp, axis=0) - math.log(n_comp)
        return total

    def sampler(rng, size):
        out = {}
        for name in names:
            choice = rng.integers(0, n_comp, size=size)
            chosen = {k: v[choice] for k, v in states.items()}
            out[name] = kernel.full_conditional(name, chosen).sample(rng)
        return layout.pack_batch(out)

    # a draw needs every parameter block; the conditionals may cover only some
    covered = not layout.missing(names)
    return WeightingDensity(tag="pmd", log_eval=log_eval, sampler=sampler if covered else None)
