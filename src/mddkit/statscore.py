"""Distributions, special functions and log-space numerics.

Every density in the package is evaluated in natural logs; raw-space
densities are never formed because the estimator ratios underflow for
realistic sample sizes.

Wishart convention used everywhere: ``WishartParams(scale_inv=S, dof=nu)``
is the distribution of a precision matrix W with E[W] = nu * inv(S).
Equivalently, the conventional scale matrix is inv(S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrs
from scipy.special import gammainc, gammaln, log_ndtr, multigammaln, ndtri, psi

from .errors import NumericError

LOG_2PI = math.log(2.0 * math.pi)

__all__ = [
    "LOG_2PI",
    "log_sum_exp",
    "ln_multivariate_gamma",
    "multivariate_digamma",
    "inverse_mills",
    "ln_parabolic_cylinder_d",
    "chi_square_quantile",
    "quadrature_1d",
    "safe_cholesky",
    "MvNormalParams",
    "MatricNormalParams",
    "WishartParams",
    "GammaParams",
    "TruncNormalParams",
    "make_rng",
]


# ---------------------------------------------------------------------------
# scalar primitives
# ---------------------------------------------------------------------------

def log_sum_exp(values, axis=None):
    """ln sum(exp(values)) without overflow; -inf entries are harmless zeros.

    Raises ValueError on empty input.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty vector")
    vmax = np.max(v, axis=axis, keepdims=True)
    vmax = np.where(np.isfinite(vmax), vmax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(v - vmax), axis=axis)) + np.squeeze(vmax, axis=axis)
    if axis is None:
        return float(out)
    return out


def log_mean_exp(values, axis=None):
    """ln mean(exp(values)); companion of :func:`log_sum_exp`."""
    v = np.asarray(values, dtype=float)
    n = v.size if axis is None else v.shape[axis]
    return log_sum_exp(v, axis=axis) - math.log(n)


def ln_multivariate_gamma(dim: int, x: float) -> float:
    """ln Gamma_dim(x); requires x > (dim - 1) / 2."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if not x > (dim - 1) / 2.0:
        raise ValueError(f"ln_multivariate_gamma: x={x} at or below the pole (dim-1)/2")
    return float(multigammaln(x, dim))


def multivariate_digamma(dim: int, x: float) -> float:
    """d/dx ln Gamma_dim(x) = sum_j psi(x + (1 - j) / 2)."""
    j = np.arange(1, dim + 1)
    return float(np.sum(psi(x + (1.0 - j) / 2.0)))


def inverse_mills(x):
    """phi(x) / Phi(x) for finite real x.

    Moderate and positive arguments use exp(ln phi - ln Phi); deep negative
    arguments (x < -8) use the Laplace continued fraction for the Mills
    ratio, which stays accurate where the direct ratio is 0/0.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    deep = x < -8.0
    xm = x[~deep]
    out[~deep] = np.exp(-0.5 * xm * xm - 0.5 * LOG_2PI - log_ndtr(xm))
    if np.any(deep):
        xd = x[deep]
        # m(x) = -x + 1/(-x + 2/(-x + 3/(-x + ...)))
        cf = np.zeros_like(xd)
        for k in range(40, 0, -1):
            cf = k / (-xd + cf)
        out[deep] = -xd + cf
    return float(out[0]) if scalar else out


def chi_square_quantile(dof: int, prob: float) -> float:
    """x such that P(chi2_dof <= x) = prob, solved to 1e-10.

    Root-find on the regularized lower incomplete gamma via bracketed
    bisection refined by Newton steps.
    """
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie strictly inside (0, 1)")
    a = dof / 2.0

    def cdf(x):
        return gammainc(a, x / 2.0)

    lo, hi = 0.0, max(4.0 * dof, 10.0)
    while cdf(hi) < prob:
        hi *= 2.0
    x = 0.5 * (lo + hi)
    for _ in range(200):
        f = cdf(x) - prob
        if f > 0:
            hi = x
        else:
            lo = x
        # Newton step from the pdf; fall back to bisection when it escapes.
        logpdf = (a - 1.0) * math.log(x / 2.0) - x / 2.0 - gammaln(a) - math.log(2.0)
        step = f / math.exp(logpdf)
        xn = x - step
        if not lo < xn < hi:
            xn = 0.5 * (lo + hi)
        if abs(xn - x) < 1e-12 * max(1.0, x):
            x = xn
            break
        x = xn
    if abs(cdf(x) - prob) > 1e-10:
        raise NumericError(f"chi_square_quantile did not reach 1e-10 (residual {cdf(x) - prob:.3e})")
    return float(x)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

_DE_CUTOFF = 5.0  # |s| beyond this puts nodes within ~1e-100 of the interval ends
_DE_CACHED_LEVELS = 12  # deeper levels (>80k nodes each) are rebuilt per call
_DE_NODES: dict = {}


def _de_unit_nodes(level: int):
    """Tanh-sinh nodes of one refinement level on the unit interval.

    Level 0 is the full grid with step h = 1/4; level j >= 1 holds only the
    odd multiples of h = 2^-(j+2), the nodes that level adds. Returns
    ``(h, log_u, log_1mu, log_jac)``: the logs of u, 1 - u and du/ds at each
    node, as read-only arrays shared by every call.
    """
    tables = _DE_NODES.get(level)
    if tables is None:
        h = 0.25 * 0.5 ** level
        if level == 0:
            s_pos = np.arange(h, _DE_CUTOFF, h)
            s = np.concatenate((-s_pos[::-1], [0.0], s_pos))
        else:
            s_pos = np.arange(h, _DE_CUTOFF, 2.0 * h)
            s = np.concatenate((-s_pos[::-1], s_pos))
        x2 = math.pi * np.sinh(s)  # 2 * x
        log_u = -np.logaddexp(0.0, -x2)
        log_1mu = -np.logaddexp(0.0, x2)
        log_jac = math.log(math.pi) + np.log(np.cosh(s)) + log_u + log_1mu
        for arr in (log_u, log_1mu, log_jac):
            arr.setflags(write=False)
        tables = (h, log_u, log_1mu, log_jac)
        if level <= _DE_CACHED_LEVELS:
            _DE_NODES[level] = tables
    return tables


def quadrature_1d(log_f, lower, upper, tol=1e-10, max_levels=20):
    """ln of the integral of exp(log_f) over (lower, upper).

    ``log_f`` must accept a vector of m abscissae and return log-integrand
    values (-inf allowed) of shape ``(..., m)``: a batch of integrands over
    the same interval, evaluated together. The result has the leading shape
    (a float for a single integrand). ``log_f`` only needs to be finite on
    the interior of the domain. An infinite upper limit is mapped onto
    (0, 1) through t = u / (1 - u); the unit-interval integral is then
    evaluated with a double-exponential (tanh-sinh) trapezoid whose step is
    halved per refinement level until two consecutive levels agree to
    ``tol`` relative. Each integrand keeps the estimate of the first level
    at which it agreed, so a batch gives the values of separate calls;
    refinement stops when the slowest one has agreed. Endpoint
    singularities integrable in the ordinary sense are handled by the node
    clustering of the transform.

    An integrand that is -inf at every node of every level returns -inf,
    after all ``max_levels`` refinements (mass may sit between coarse
    nodes). Any other integrand that has not agreed by then raises
    NumericError carrying the achieved estimate.
    """
    lower = float(lower)
    infinite = np.isinf(upper)
    if not infinite:
        upper = float(upper)
        if not upper > lower:
            raise ValueError("upper must exceed lower")
        width = upper - lower

    def log_terms(level):
        h, log_u, log_1mu, log_jac = _de_unit_nodes(level)
        if infinite:
            t = lower + np.exp(log_u - log_1mu)
            log_j = log_jac - 2.0 * log_1mu
            good = t > lower
        else:
            t = lower + width * np.exp(log_u)
            log_j = log_jac + math.log(width)
            good = (t > lower) & (t < upper)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fv = np.asarray(log_f(t[good]), dtype=float)
        vals = np.full(fv.shape[:-1] + t.shape, -np.inf)
        vals[..., good] = np.where(np.isnan(fv), -np.inf, fv) + log_j[good]
        return vals + math.log(h)

    total = np.asarray(log_sum_exp(log_terms(0), axis=-1))
    result = np.full(total.shape, np.nan)
    done = np.zeros(total.shape, dtype=bool)
    for level in range(1, max_levels + 1):
        new = log_terms(level)
        cur = np.asarray(log_sum_exp(
            np.concatenate((new, (total + math.log(0.5))[..., None]), axis=-1), axis=-1))
        with np.errstate(invalid="ignore"):
            agree = (np.isfinite(cur) & np.isfinite(total)
                     & (np.abs(cur - total) <= tol * np.maximum(1.0, np.abs(cur))))
        newly = agree & ~done
        result[newly] = cur[newly]
        done |= newly
        total = cur
        if np.all(done):
            break
    else:
        # nothing finite found at any refinement level: the integrand is zero
        zero = ~done & (total == -np.inf)
        result[zero] = -np.inf
        done |= zero
        if not np.all(done):
            raise NumericError(
                f"quadrature_1d did not converge; achieved estimate {total[~done]!r}")
    return float(result) if result.ndim == 0 else result


def ln_parabolic_cylinder_d(order, x, tol=1e-12):
    """ln D_{-order}(x) for order >= 0 through the integral representation.

    D_{-v}(x) = exp(-x^2/4) / Gamma(v) * int_0^inf t^(v-1) exp(-t^2/2 - x t) dt
    for v > 0; v = 0 short-circuits to ln D_0(x) = -x^2/4. ``order`` and
    ``x`` broadcast against each other; every v > 0 element is integrated in
    one batched quadrature. Scalar arguments give a float.
    """
    v, x = np.broadcast_arrays(np.asarray(order, dtype=float), np.asarray(x, dtype=float))
    if np.any(v < 0):
        raise ValueError("order must be >= 0 (this computes D_{-order})")
    out = np.array(-x * x / 4.0)
    pos = v > 0.0
    if np.any(pos):
        vp, xp = v[pos][:, None], x[pos][:, None]

        def log_integrand(t):
            return (vp - 1.0) * np.log(t) - 0.5 * t * t - xp * t

        log_int = quadrature_1d(log_integrand, 0.0, np.inf, tol=tol)
        out[pos] = out[pos] - gammaln(v[pos]) + log_int
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# linear algebra helpers
# ---------------------------------------------------------------------------

def safe_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with one jittered retry; stacks factor together.

    Retry adds 1e-10 * trace/n to each diagonal; a second failure raises
    NumericError rather than looping (silent jitter masks model bugs). One
    positive finite 1 x 1 matrix is factored as its square root, the bits
    LAPACK returns, without the call; any other 1 x 1 value (0, negative,
    NaN) takes the generic path.
    """
    a = np.asarray(a, dtype=float)
    if a.shape == (1, 1) and 0.0 < a[0, 0] < math.inf:
        return np.sqrt(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        n = a.shape[-1]
        jitter = 1e-10 * np.trace(a, axis1=-2, axis2=-1) / n
        try:
            return np.linalg.cholesky(a + jitter[..., None, None] * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise NumericError("matrix not positive definite (jittered retry failed)") from exc


@cache
def _tril_indices(n: int, k: int = 0):
    """Read-only ``np.tril_indices(n, k)``, computed once per (n, k)."""
    rows, cols = np.tril_indices(n, k=k)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _check_symmetric(a: np.ndarray, name: str):
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"{name} must be a square matrix or a stack of them")
    if a.shape == (1, 1):  # a single entry is its own transpose, NaN included
        return
    # relative to max(1, max |a|); the scale is only needed for a visible asymmetry
    asym = np.abs(a - a.swapaxes(-1, -2)).max()
    if asym > 1e-12 and asym > 1e-12 * np.abs(a).max():
        raise ValueError(f"{name} must be symmetric within 1e-12 relative")


@cache
def _identity(n: int) -> np.ndarray:
    """Read-only ``np.eye(n)``, built once per n."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _inverse_from_cholesky(chol: np.ndarray) -> np.ndarray:
    """inv(a) of an SPD matrix, or of each in a stack, from its lower Cholesky
    factor: LAPACK potrs against the identity, the routine scipy's
    ``cho_solve`` runs per matrix, called without its per-call checks."""
    eye = _identity(chol.shape[-1])

    def solve(c):
        inv, info = dpotrs(c, eye, lower=True)
        if info != 0:
            raise NumericError(f"potrs rejected argument {-info}")
        return inv

    if chol.ndim == 2:
        return solve(chol)
    return np.stack([solve(c) for c in chol.reshape((-1,) + eye.shape)]).reshape(chol.shape)


def _chol_logdet(chol: np.ndarray):
    """ln det of the matrix (or of each matrix in a stack) factored as chol chol'."""
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


def _logdet(m) -> float:
    """ln det of one SPD matrix through its Cholesky factor."""
    return float(_chol_logdet(safe_cholesky(np.atleast_2d(m))))


def _spd_slogdet(w):
    """(SPD mask, ln |det|) of symmetric matrices w (..., n, n).

    SPD by Sylvester's criterion, every leading principal minor positive:
    the sign of the full determinant alone passes a negative-definite matrix
    of even dimension.
    """
    sign, logdet = np.linalg.slogdet(w)
    spd = (sign > 0) & (w[..., 0, 0] > 0)
    for k in range(2, w.shape[-1]):
        spd &= np.linalg.slogdet(w[..., :k, :k])[0] > 0
    return spd, logdet


# ---------------------------------------------------------------------------
# distribution layer
# ---------------------------------------------------------------------------

@dataclass
class MvNormalParams:
    """Multivariate normal with mean (n,) and SPD covariance (n, n).

    An optional leading axis, shared by mean and covariance, stacks
    independent distributions: densities then come back as (stack, points),
    and a draw without ``size`` holds one point per stacked distribution.
    """

    mean: np.ndarray
    cov: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        _check_symmetric(self.cov, "covariance")
        if self.cov.shape[-1] != self.mean.shape[-1]:
            raise ValueError("mean/covariance dimension mismatch")
        self._chol = safe_cholesky(self.cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    @cached_property
    def _expanded(self):
        """Centre c (the average mean), flattened precision P, 2 P (mean - c),
        and the constant term of the log density."""
        d = self.dim
        centre = self.mean.reshape(-1, d).mean(axis=0)
        dev = self.mean - centre
        prec = np.linalg.inv(self.cov)
        pm = np.matvec(prec, dev)
        const = d * LOG_2PI + _chol_logdet(self._chol) + np.sum(pm * dev, axis=-1)
        return (centre, prec.reshape(prec.shape[:-2] + (d * d,)), 2.0 * pm,
                np.asarray(const)[..., None])

    def logpdf(self, x) -> float:
        return float(self.logpdf_batch(x)[0])

    def logpdf_batch(self, x: np.ndarray) -> np.ndarray:
        """ln density at the points x (points, n): shaped (points,), or
        (stack, points) for stacked parameters."""
        d = self.dim
        centre, prec, two_pm, const = self._expanded
        # (x-m)'P(x-m) expanded about the centre so that each term is one BLAS
        # matmul over the whole stack and no temporary is larger than the
        # (stack, points) result; centring keeps the terms from cancelling
        x = np.asarray(x, dtype=float).reshape(-1, d) - centre
        outer = (x[:, :, None] * x[:, None, :]).reshape(len(x), d * d)
        out = prec @ outer.T
        out -= two_pm @ x.T
        out += const
        out *= -0.5
        return out

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draws shaped (size, stack, n), or (stack, n) without ``size``."""
        n = 1 if size is None else size
        z = rng.standard_normal((n,) + self.mean.shape)
        # the draws of each stacked distribution form one matrix product
        draws = self.mean + (z.swapaxes(0, -2) @ self._chol.swapaxes(-1, -2)).swapaxes(0, -2)
        return draws[0] if size is None else draws


@dataclass
class MatricNormalParams:
    """Matric-variate normal for a K x N matrix.

    ``row_cov`` (K x K) scales across rows, ``col_cov`` (N x N) across
    columns; vec(X) with column stacking is N(vec(mean), col_cov kron row_cov).
    """

    mean: np.ndarray
    row_cov: np.ndarray
    col_cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_2d(np.asarray(self.mean, dtype=float))
        self.row_cov = np.atleast_2d(np.asarray(self.row_cov, dtype=float))
        self.col_cov = np.atleast_2d(np.asarray(self.col_cov, dtype=float))
        _check_symmetric(self.row_cov, "row covariance")
        _check_symmetric(self.col_cov, "column covariance")
        k, n = self.mean.shape
        if self.row_cov.shape[0] != k or self.col_cov.shape[0] != n:
            raise ValueError("mean/covariance dimension mismatch")
        self._chol_row = safe_cholesky(self.row_cov)
        self._chol_col = safe_cholesky(self.col_cov)

    @property
    def shape(self):
        return self.mean.shape

    def logpdf(self, x) -> float:
        return float(self.logpdf_batch(np.asarray(x, dtype=float)[None, :, :])[0])

    def logpdf_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            x = x[None, :, :]
        k, n = self.mean.shape
        dev = x - self.mean
        # trace(inv(col) dev' inv(row) dev) via triangular solves
        a = solve_triangular(self._chol_row, dev.transpose(1, 0, 2).reshape(k, -1), lower=True)
        a = a.reshape(k, x.shape[0], n).transpose(1, 0, 2)
        b = solve_triangular(self._chol_col, a.transpose(2, 0, 1).reshape(n, -1), lower=True)
        b = b.reshape(n, x.shape[0], k)
        quad = np.einsum("nsk,nsk->s", b, b)
        return -0.5 * (k * n * LOG_2PI + n * _chol_logdet(self._chol_row)
                       + k * _chol_logdet(self._chol_col) + quad)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        n_draws = 1 if size is None else size
        k, n = self.mean.shape
        z = rng.standard_normal((n_draws, k, n))
        draws = self.mean + self._chol_row @ z @ self._chol_col.T
        return draws[0] if size is None else draws


@dataclass
class WishartParams:
    """Wishart W(inv(scale_inv), dof): E[W] = dof * inv(scale_inv).

    ``scale_inv`` may stack matrices along a leading axis under one ``dof``;
    shapes then follow :class:`MvNormalParams`.
    """

    scale_inv: np.ndarray
    dof: float

    def __post_init__(self):
        self.scale_inv = np.atleast_2d(np.asarray(self.scale_inv, dtype=float))
        _check_symmetric(self.scale_inv, "scale_inv")
        n = self.dim
        if not self.dof > n - 1:
            raise ValueError(f"dof must exceed dim - 1 = {n - 1}")
        self._chol_s = safe_cholesky(self.scale_inv)

    @property
    def dim(self) -> int:
        return self.scale_inv.shape[-1]

    def _log_norm(self):
        n, nu = self.dim, self.dof
        # normalizer of W(Psi, nu) with Psi = inv(scale_inv)
        return (0.5 * nu * n * math.log(2.0)
                - 0.5 * nu * _chol_logdet(self._chol_s)
                + ln_multivariate_gamma(n, 0.5 * nu))

    def logpdf(self, w) -> float:
        return float(self.logpdf_batch(w)[0])

    def logpdf_batch(self, w: np.ndarray) -> np.ndarray:
        """ln density at the matrices w (points, n, n): shaped (points,), or
        (stack, points) for stacked parameters; -inf off the SPD cone."""
        n, nu = self.dim, self.dof
        w = np.asarray(w, dtype=float).reshape(-1, n, n)
        spd, logdet_w = _spd_slogdet(w)
        # tr(scale_inv w) for every (stacked distribution, point) pair in one matmul
        out = self.scale_inv.reshape(self.scale_inv.shape[:-2] + (n * n,)) @ w.reshape(-1, n * n).T
        out *= -0.5
        with np.errstate(invalid="ignore"):
            out += 0.5 * (nu - n - 1.0) * logdet_w
        out -= np.asarray(self._log_norm())[..., None]
        out[..., ~spd] = -np.inf
        return out

    def mean(self) -> np.ndarray:
        return self.dof * _inverse_from_cholesky(self._chol_s)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Bartlett decomposition draw, bit-reproducible for a given rng; shaped
        (size, stack, n, n), or (stack, n, n) without ``size``."""
        n, nu = self.dim, self.dof
        shape = (1 if size is None else size,) + self.scale_inv.shape[:-2]
        m = safe_cholesky(_inverse_from_cholesky(self._chol_s))
        a = np.zeros(shape + (n, n))
        rows, cols = _tril_indices(n, -1)
        if len(rows):
            a[..., rows, cols] = rng.standard_normal(shape + (len(rows),))
        for j in range(n):
            a[..., j, j] = np.sqrt(rng.gamma(0.5 * (nu - j), 2.0, size=shape))
        la = m @ a
        draws = la @ la.swapaxes(-1, -2)
        return draws[0] if size is None else draws


@dataclass
class GammaParams:
    """Gamma in shape/rate form: mean = shape / rate.

    ``shape`` and ``rate`` may be vectors that broadcast to a stack of
    distributions; shapes then follow :class:`MvNormalParams`.
    """

    shape: float
    rate: float

    def __post_init__(self):
        positive = (self.shape > 0) & (self.rate > 0)
        if not (positive if np.isscalar(positive) else positive.all()):
            raise ValueError("gamma shape and rate must be strictly positive")

    def logpdf(self, x) -> float:
        return float(self.logpdf_batch(np.atleast_1d(np.asarray(x, dtype=float)))[0])

    def logpdf_batch(self, x: np.ndarray) -> np.ndarray:
        """ln density at the points x: shaped like x for unstacked parameters,
        (stack, points) for stacked ones and a vector of points."""
        x = np.asarray(x, dtype=float)
        a = np.asarray(self.shape, dtype=float)[..., None]
        b = np.asarray(self.rate, dtype=float)[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = a * np.log(b) - gammaln(a) + (a - 1.0) * np.log(x) - b * x
        return np.where(x > 0, out, -np.inf)

    def mean(self):
        return self.shape / self.rate

    def mean_log(self) -> float:
        return float(psi(self.shape)) - math.log(self.rate)

    def entropy(self) -> float:
        a, b = self.shape, self.rate
        return a - math.log(b) + float(gammaln(a)) + (1.0 - a) * float(psi(a))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draws shaped (size, stack); without ``size`` one per stacked
        distribution, a float for unstacked parameters."""
        if size is not None:
            size = (size,) + np.broadcast_shapes(np.shape(self.shape), np.shape(self.rate))
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)


@dataclass
class TruncNormalParams:
    """Normal(location, scale^2) truncated to [0, inf)."""

    location: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be strictly positive")

    @property
    def _alpha(self) -> float:
        return self.location / self.scale

    def log_normalizer(self) -> float:
        """ln Phi(location / scale), the kept probability mass."""
        return float(log_ndtr(self._alpha))

    def mean(self) -> float:
        return self.location + self.scale * inverse_mills(self._alpha)

    def var(self) -> float:
        m = inverse_mills(self._alpha)
        return self.scale ** 2 * (1.0 - m * (m + self._alpha))

    def entropy(self) -> float:
        a = self._alpha
        return 0.5 * (LOG_2PI + 1.0) + math.log(self.scale) + self.log_normalizer() \
            - 0.5 * a * inverse_mills(a)

    def logpdf(self, x) -> float:
        return float(self.logpdf_batch(np.atleast_1d(np.asarray(x, dtype=float)))[0])

    def logpdf_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, -np.inf)
        ok = x >= 0
        z = (x[ok] - self.location) / self.scale
        out[ok] = -0.5 * (LOG_2PI + z * z) - math.log(self.scale) - self.log_normalizer()
        return out

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Inversion for location/scale >= -5, exponential rejection below."""
        n = 1 if size is None else size
        a = self._alpha
        if a >= -5.0:
            lo = float(np.exp(log_ndtr(-a)))  # P(Z < -a) = mass below 0
            u = rng.uniform(lo, 1.0, size=n)
            z = ndtri(u)
            draws = self.location + self.scale * z
            draws = np.maximum(draws, 0.0)
        else:
            # Robert (1995) translated-exponential rejection on the tail z >= -a
            am = -a
            lam = 0.5 * (am + math.sqrt(am * am + 4.0))
            draws = np.empty(n)
            for i in range(n):
                while True:
                    z = am + rng.exponential(1.0 / lam)
                    log_acc = -0.5 * (z - lam) ** 2
                    if math.log(rng.uniform()) <= log_acc:
                        draws[i] = self.location + self.scale * z
                        break
        return float(draws[0]) if size is None else draws


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def make_rng(base_seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator for a (base seed, derivation path) pair.

    The path components form a SeedSequence spawn key, so independent
    streams for chains, reduced runs and importance samplers never collide
    and do not depend on call order.
    """
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))
