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
from scipy.linalg.lapack import dpotrs
from scipy.special import chdtri, erfcx, gammaln, log_ndtr, multigammaln, ndtri, psi

from .errors import NumericError

LOG_2PI = math.log(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_2 = math.sqrt(2.0)

__all__ = [
    "LOG_2PI",
    "log_sum_exp",
    "ln_multivariate_gamma",
    "multivariate_digamma",
    "inverse_mills",
    "ln_parabolic_cylinder_d",
    "chi_square_quantile",
    "quadrature_1d",
    "quadrature_expectations",
    "safe_cholesky",
    "draw_each",
    "MvNormalParams",
    "WishartParams",
    "GammaParams",
    "TruncNormalParams",
    "make_rng",
]


# ---------------------------------------------------------------------------
# scalar primitives
# ---------------------------------------------------------------------------

def log_sum_exp(values, axis=None, overwrite=False):
    """ln sum(exp(values)) without overflow; -inf entries are harmless zeros.

    The caller's array is never written unless ``overwrite`` is set: then a
    float array ``values`` is itself the working temporary, and the caller must
    not read it afterwards. Either way the arithmetic, and so the result, is
    the same. Raises ValueError on empty input.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty vector")
    vmax = np.max(v, axis=axis, keepdims=True)
    vmax = np.where(np.isfinite(vmax), vmax, 0.0)
    # one temporary (``values`` itself with ``overwrite``), exponentiated in place
    tmp = np.asarray(np.subtract(v, vmax, out=v if overwrite else None))
    np.exp(tmp, out=tmp)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(tmp, axis=axis)) + np.squeeze(vmax, axis=axis)
    if axis is None:
        return float(out)
    return out


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
    """phi(x) / Phi(x) for finite real x, as sqrt(2 / pi) / erfcx(-x / sqrt(2)):
    the scaled complementary error function keeps it accurate in both tails,
    including deep negative arguments where the direct ratio is 0/0."""
    out = _SQRT_2_OVER_PI / erfcx(-np.asarray(x, dtype=float) / _SQRT_2)
    return float(out) if out.ndim == 0 else out


def chi_square_quantile(dof: int, prob: float) -> float:
    """x such that P(chi2_dof <= x) = prob."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie strictly inside (0, 1)")
    return float(chdtri(dof, 1.0 - prob))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

_DE_CUTOFF = 5.0  # |s| beyond this puts nodes within ~1e-100 of the interval ends
_DE_CACHED_LEVELS = 12  # deeper levels (>80k nodes each) are rebuilt per call
_DE_NODES: dict = {}
_DE_MAX_LEVELS = 20
# most integrand values (integrands x nodes) one refinement level may evaluate: a
# level adds 20 * 2^level nodes, so one integrand may reach level 19 (10.5M); the
# deepest in the tests is level 13 (164k), a narrow bump that coarse nodes miss
_QUAD_MAX_ELEMENTS = 1 << 24
_EXPECT_TOL = 1e-12
_NO_MASS = -1e300  # the exp-shift of an integrand while all its terms so far are zero


def _de_unit_nodes(level: int):
    """Tanh-sinh nodes of one refinement level on the unit interval.

    Level 0 is the full grid with step h = 1/4; level j >= 1 holds only the
    odd multiples of h = 2^-(j+2), the 20 * 2^j nodes that level adds.
    Returns ``(h, log_u, log_1mu, log_jac)``: the logs of u, 1 - u and du/ds
    at each node, as read-only arrays shared by every call.
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


def _de_nodes(level: int, lower, upper):
    """The nodes of one tanh-sinh level mapped onto (lower, upper).

    An infinite upper limit is reached through t = lower + u / (1 - u), a
    finite one through t = lower + (upper - lower) u. Returns ``(h, t,
    log_j)``: the level's step, the abscissae that lie strictly inside the
    interval in floating point (the others carry no weight), and the log
    Jacobian dt/ds at each.
    """
    h, log_u, log_1mu, log_jac = _de_unit_nodes(level)
    lower, upper = float(lower), float(upper)
    if math.isinf(upper):
        t = lower + np.exp(log_u - log_1mu)
        log_j = log_jac - 2.0 * log_1mu
        good = t > lower
    else:
        if not upper > lower:
            raise ValueError("upper must exceed lower")
        width = upper - lower
        t = lower + width * np.exp(log_u)
        log_j = log_jac + math.log(width)
        good = (t > lower) & (t < upper)
    return h, t[good], log_j[good]


def _over_budget(batch: int, level: int) -> bool:
    """Whether refinement level ``level`` of ``batch`` integrands would evaluate
    more than ``_QUAD_MAX_ELEMENTS`` integrand values."""
    return batch * (20 << level) > _QUAD_MAX_ELEMENTS


def _refine(log_f, lower, upper, functions, tol, whole_batch=False):
    """The tanh-sinh refinement loop every quadrature here runs.

    ``log_f(t, live)`` gets the abscissae (m,) of one level and the indices of
    the integrands still refining (``slice(None)`` at level 0, which fixes the
    batch size n); it returns their log values (len(live), m), finite or
    -inf. Each level adds its exp-shifted terms f and g f, for each g in
    ``functions``, to running trapezoid sums. An integrand has converged at
    the first level where ln Z and every E[g] agree with the previous level's
    to ``tol`` relative (absolute below one); it keeps that level's values and
    leaves the live set, so a batch gives the values of separate calls.

    Refinement ends after ``_DE_MAX_LEVELS`` levels, or before a level of more
    than ``_QUAD_MAX_ELEMENTS`` integrand values: the live set's, or all n's
    when ``whole_batch`` says ``log_f`` evaluates every integrand each level.
    With no ``functions``, an integrand that is -inf at every node evaluated
    has ln Z = -inf (mass may sit between coarse nodes); any other integrand
    that has not converged raises NumericError carrying the achieved
    estimates. Returns ln Z, then each E[g], as an array (1 + len(functions), n).
    """
    live = slice(None)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for level in range(_DE_MAX_LEVELS + 1):
            if level and _over_budget(n if whole_batch else live.size, level):
                break
            h, t, log_j = _de_nodes(level, lower, upper)
            rows = np.array([np.ones_like(t), *(fn(t) for fn in functions)])  # Z, each g
            terms = log_f(t, live) + (log_j + math.log(h))
            if not level:
                n = terms.shape[0]
                live = np.arange(n)
                shift = np.full(live.size, _NO_MASS)
                sums = np.zeros((rows.shape[0], live.size))
                out = np.full(sums.shape, np.nan)
            # exp-shifted sums: the shift is the largest term so far; the previous
            # level's sums halve with the step and move to the new shift
            new_shift = np.maximum(shift, terms.max(axis=-1))
            keep = 0.5 * np.exp(shift - new_shift)
            shift = new_shift
            terms -= shift[:, None]
            w = np.exp(terms, out=terms)
            # einsum sums each integrand's row alone, the same way at any batch size
            sums = keep * sums + np.einsum("nm,rm->rn", w, rows)
            cur = np.concatenate(((shift + np.log(sums[0]))[None], sums[1:] / sums[0]))
            if level:
                # a NaN or an infinite ln Z (no mass yet) never agrees
                agree = (np.abs(cur - prev) <= tol * np.maximum(1.0, np.abs(cur))).all(axis=0)
                if agree.any():
                    out[:, live[agree]] = cur[:, agree]
                    live, shift, sums, cur = (live[~agree], shift[~agree], sums[:, ~agree],
                                              cur[:, ~agree])
                if not live.size:
                    return out
            prev = cur
    if not functions:  # ln Z = -inf is a value; E[g] of a zero integrand is not
        out[0, live[cur[0] == -np.inf]] = -np.inf
    if np.isnan(out[0]).any():
        raise NumericError(
            f"tanh-sinh quadrature did not converge within {_DE_MAX_LEVELS} levels of at most "
            f"{_QUAD_MAX_ELEMENTS} integrand values each; achieved ln Z and expectations "
            f"{cur!r}")
    return out


def quadrature_1d(log_f, lower, upper, tol=1e-10):
    """ln of the integral of exp(log_f) over (lower, upper).

    ``log_f`` must accept a vector of m abscissae and return log-integrand
    values (-inf allowed; NaN counts as -inf) of shape ``(..., m)``: a batch
    of integrands over the same interval, evaluated together. The result has
    the leading shape (a float for a single integrand). ``log_f`` only needs
    to be finite on the interior of the domain. An infinite upper limit is
    mapped onto (0, 1) through t = u / (1 - u); the unit-interval integral is
    then evaluated with a double-exponential (tanh-sinh) trapezoid whose step
    is halved per refinement level (:func:`_refine`) until two consecutive
    levels agree to ``tol`` relative. Endpoint singularities integrable in
    the ordinary sense are handled by the node clustering of the transform.

    A batch gives the values of separate calls. ``log_f`` evaluates the whole
    batch at every level, so the element budget counts all of it. An
    integrand that is -inf at every node evaluated returns -inf; any other
    that has not agreed when refinement ends raises NumericError carrying
    the achieved estimate.
    """
    shape = None

    def log_terms(t, live):
        nonlocal shape
        fv = np.asarray(log_f(t), dtype=float)
        shape = fv.shape[:-1]
        fv = fv.reshape(-1, t.size)[live]
        return np.where(np.isnan(fv), -np.inf, fv)

    log_z = _refine(log_terms, lower, upper, (), tol, whole_batch=True)[0].reshape(shape)
    return float(log_z) if log_z.ndim == 0 else log_z


def quadrature_expectations(log_f, params, lower, upper, functions):
    """ln Z = ln of the integral of f = exp(log_f) over (lower, upper), and the
    expectations E[g] = (1/Z) * integral of g f for each g in ``functions``,
    all from one pass on shared nodes, for a batch of integrands.

    The batch is the broadcast shape of the arrays in ``params``.
    ``log_f(t, *columns)`` gets the abscissae (m,) and, per parameter, a
    column (n, 1) of its values for the n integrands still refining; it
    returns their log values (n, m), finite or -inf. Each g maps the
    abscissae to values of the same length and may change sign. The nodes,
    the refinement and the budget are :func:`_refine`'s, with a tolerance of
    1e-12: an integrand has converged once ln Z and every E[g] agree with the
    previous level's, and a batch gives the values of separate calls.
    Returns ``(log_z, expectations)``: arrays of the batch shape and of shape
    ``(len(functions), *batch)``. An integrand that has not converged when
    refinement ends raises NumericError carrying the achieved estimates; so
    does one with no mass at any node, whose E[g] are undefined.
    """
    params = np.broadcast_arrays(*(np.asarray(p, dtype=float) for p in params))
    batch = params[0].shape
    columns = [p.reshape(-1, 1) for p in params]
    out = _refine(lambda t, live: log_f(t, *(c[live] for c in columns)), lower, upper,
                  functions, _EXPECT_TOL)
    return out[0].reshape(batch), out[1:].reshape((len(functions),) + batch)


def ln_parabolic_cylinder_d(order, x, tol=1e-12):
    """ln D_{-order}(x) for order >= 0 through the integral representation.

    D_{-v}(x) = exp(-x^2/4) / Gamma(v) * int_0^inf t^(v-1) exp(-t^2/2 - x t) dt
    for v > 0; v = 0 short-circuits to ln D_0(x) = -x^2/4. ``order`` and
    ``x`` broadcast against each other; every v > 0 element is integrated in
    one batched refinement (:func:`_refine`), which evaluates and budgets only
    the integrals still refining. Scalar arguments give a float.
    """
    v, x = np.broadcast_arrays(np.asarray(order, dtype=float), np.asarray(x, dtype=float))
    if np.any(v < 0):
        raise ValueError("order must be >= 0 (this computes D_{-order})")
    out = np.array(-x * x / 4.0)
    pos = v > 0.0
    if np.any(pos):
        vm1, xp = v[pos][:, None] - 1.0, x[pos][:, None]

        def log_integrand(t, live):
            return vm1[live] * np.log(t) - 0.5 * t * t - xp[live] * t

        log_int = _refine(log_integrand, 0.0, np.inf, (), tol)[0]
        out[pos] = out[pos] - gammaln(v[pos]) + log_int
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# linear algebra helpers
# ---------------------------------------------------------------------------

def safe_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with one jittered retry; stacks factor together.

    Retry adds 1e-10 * trace/n to each diagonal; a second failure raises
    NumericError rather than looping (silent jitter masks model bugs). A
    stack retries matrix by matrix, so each factor is the one its matrix gets
    alone. Positive finite 1 x 1 matrices, one or a stack, are factored as
    their square roots, the bits LAPACK returns, without the call; any other
    1 x 1 value (0, negative, NaN) takes the generic path.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-2:] == (1, 1) and _positive_finite(a):
        return np.sqrt(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        n = a.shape[-1]
        if a.ndim > 2:  # each matrix as if alone: only a failing one takes the jitter
            return np.stack([safe_cholesky(m) for m in a.reshape(-1, n, n)]).reshape(a.shape)
        jitter = 1e-10 * np.trace(a, axis1=-2, axis2=-1) / n
        try:
            return np.linalg.cholesky(a + jitter[..., None, None] * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise NumericError("matrix not positive definite (jittered retry failed)") from exc


def _positive_finite(a: np.ndarray) -> bool:
    """Every entry of a non-empty array lies in (0, inf); NaN does not."""
    if a.size == 1:
        return 0.0 < a.item() < math.inf
    return a.size > 0 and a.min() > 0.0 and a.max() < math.inf


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
    if a.shape[-2:] == (1, 1):  # a single entry is its own transpose, NaN included
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
    mats = chol.reshape((-1,) + eye.shape)
    if len(mats) == 1:
        return solve(mats[0]).reshape(chol.shape)
    return np.array([solve(c) for c in mats]).reshape(chol.shape)


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

def draw_each(rngs, draw) -> np.ndarray:
    """``draw(rng)`` from each chain's generator, stacked along a leading axis:
    chain c takes the variates a one-chain draw from ``rngs[c]`` takes."""
    if len(rngs) == 1:
        return np.asarray(draw(rngs[0]))[None]
    return np.array([draw(rng) for rng in rngs])


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

    @classmethod
    def from_precision(cls, prec: np.ndarray, rhs: np.ndarray) -> "MvNormalParams":
        """The normal with covariance inv(prec) and mean cov @ rhs, for one
        precision or a stack: a Gaussian full conditional in canonical form.
        The covariance is symmetrized, so it skips the symmetry check."""
        cov = np.linalg.inv(prec)
        cov = 0.5 * (cov + cov.swapaxes(-1, -2))
        out = object.__new__(cls)
        out.mean, out.cov, out._chol = np.matvec(cov, rhs), cov, safe_cholesky(cov)
        return out

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    @cached_property
    def precision(self) -> np.ndarray:
        """inv(cov)."""
        return np.linalg.inv(self.cov)

    @cached_property
    def _precision_mean(self) -> np.ndarray:
        return self.precision @ self.mean

    def conjugate(self, prec, rhs) -> "MvNormalParams":
        """The full conditional of a block with this (unstacked) prior N(m0, inv(P0))
        and a likelihood term of precision ``prec`` and precision-times-mean ``rhs``
        (one state or a stack): ``from_precision(P0 + prec, P0 m0 + rhs)``."""
        return MvNormalParams.from_precision(self.precision + prec, self._precision_mean + rhs)

    @cached_property
    def _expanded(self):
        """Centre c (the average mean); the natural-parameter coefficients that
        multiply the sufficient statistics [vech((x - c)(x - c)'), x - c] (the
        lower triangle row by row: -P_ii / 2 on the diagonal, -P_ij below it,
        then P (mean - c)); and the constant term of the log density."""
        d = self.dim
        centre = self.mean.reshape(-1, d).mean(axis=0)
        dev = self.mean - centre
        prec = self.precision
        pm = np.matvec(prec, dev)
        rows, cols = _tril_indices(d)
        quad = (prec + prec.swapaxes(-1, -2))[..., rows, cols] * np.where(rows == cols, -0.25, -0.5)
        const = -0.5 * (d * LOG_2PI + _chol_logdet(self._chol) + np.sum(pm * dev, axis=-1))
        return centre, np.concatenate([quad, pm], axis=-1), np.asarray(const)[..., None]

    def logpdf_batch(self, x: np.ndarray) -> np.ndarray:
        """ln density at the points x (points, n): shaped (points,), or
        (stack, points) for stacked parameters."""
        d = self.dim
        centre, coef, const = self._expanded
        # one BLAS matmul of the coefficients with the points' sufficient
        # statistics covers the whole stack; centring keeps the terms from cancelling
        xt = np.asarray(x, dtype=float).reshape(-1, d).T - centre[:, None]
        stats = np.empty((coef.shape[-1], xt.shape[1]))  # one column per point
        for i in range(d):  # row i of the lower triangle: x_i x_0 .. x_i x_i
            np.multiply(xt[:i + 1], xt[i], out=stats[i * (i + 1) // 2:(i + 1) * (i + 2) // 2])
        stats[-d:] = xt
        out = coef @ stats
        out += const
        return out

    def entropy(self):
        """0.5 d (ln 2 pi + 1) + 0.5 ln|cov|."""
        return 0.5 * self.dim * (LOG_2PI + 1.0) + 0.5 * _chol_logdet(self._chol)

    def expected_logpdf(self, mean, cov) -> float:
        """E_q[ln p(x)] of this (unstacked) density p under any q with the given
        mean and covariance."""
        dev = mean - self.mean
        return (-0.5 * self.dim * LOG_2PI - 0.5 * _chol_logdet(self._chol)
                - 0.5 * (dev @ self.precision @ dev + float(np.sum(self.precision * cov.T))))

    def take(self, indices) -> "MvNormalParams":
        """The stacked distributions at ``indices``, with their Cholesky factors
        gathered from this stack instead of recomputed."""
        out = object.__new__(MvNormalParams)
        out.mean, out.cov, out._chol = self.mean[indices], self.cov[indices], self._chol[indices]
        return out

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draws shaped (size, stack, n), or (stack, n) without ``size``."""
        n = 1 if size is None else size
        z = rng.standard_normal((n,) + self.mean.shape)
        # the draws of each stacked distribution form one matrix product
        draws = self.mean + (z.swapaxes(0, -2) @ self._chol.swapaxes(-1, -2)).swapaxes(0, -2)
        return draws[0] if size is None else draws

    def sample_stack(self, rngs) -> np.ndarray:
        """One draw per stacked distribution, (stack, n): distribution c draws
        from ``rngs[c]`` the bits :meth:`sample` of it alone gives."""
        n = self.dim
        z = draw_each(rngs, lambda rng: rng.standard_normal(n))
        return self.mean + (z[:, None, :] @ self._chol.swapaxes(-1, -2))[:, 0]


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

    @cached_property
    def _log_norm(self):
        n, nu = self.dim, self.dof
        # normalizer of W(Psi, nu) with Psi = inv(scale_inv)
        return (0.5 * nu * n * math.log(2.0)
                - 0.5 * nu * _chol_logdet(self._chol_s)
                + ln_multivariate_gamma(n, 0.5 * nu))

    @cached_property
    def _coef(self):
        """[-vec(scale_inv) / 2, (dof - n - 1) / 2], the coefficients of the
        sufficient statistics [vec(W), ln|W|]."""
        n = self.dim
        vec = self.scale_inv.reshape(self.scale_inv.shape[:-2] + (n * n,))
        half_dof = np.full(vec.shape[:-1] + (1,), 0.5 * (self.dof - n - 1.0))
        return np.concatenate([-0.5 * vec, half_dof], axis=-1)

    @cached_property
    def _bartlett(self):
        """Lower Cholesky factor of inv(scale_inv), the Bartlett draw's scale."""
        return safe_cholesky(_inverse_from_cholesky(self._chol_s))

    def logpdf_batch(self, w: np.ndarray) -> np.ndarray:
        """ln density at the matrices w (points, n, n): shaped (points,), or
        (stack, points) for stacked parameters; -inf off the SPD cone."""
        n = self.dim
        w = np.asarray(w, dtype=float).reshape(-1, n, n)
        stats = np.empty((n * n + 1, len(w)))  # one column per point
        stats[:-1] = w.reshape(-1, n * n).T
        spd, stats[-1] = _spd_slogdet(w)
        # every (stacked distribution, point) pair in one matmul
        with np.errstate(invalid="ignore"):
            out = self._coef @ stats
        out -= np.asarray(self._log_norm)[..., None]
        out[..., ~spd] = -np.inf
        return out

    def mean(self) -> np.ndarray:
        return self.dof * _inverse_from_cholesky(self._chol_s)

    @cached_property
    def mean_logdet(self):
        """E[ln|W|] = psi_n(dof / 2) + n ln 2 - ln|scale_inv|."""
        n = self.dim
        return multivariate_digamma(n, 0.5 * self.dof) + n * math.log(2.0) \
            - _chol_logdet(self._chol_s)

    def expected_logpdf(self, mean, mean_logdet) -> float:
        """E_q[ln p(W)] of this (unstacked) density p under any q with
        E_q[W] = ``mean`` and E_q[ln|W|] = ``mean_logdet``."""
        return self._expected_log(mean_logdet, float(np.sum(self.scale_inv * mean.T)))

    def entropy(self):
        # E[tr(scale_inv W)] = dof * n under the density itself
        return -self._expected_log(self.mean_logdet, self.dof * self.dim)

    def _expected_log(self, mean_logdet, trace):
        """E ln p(W) from E[ln|W|] and E[tr(scale_inv W)]."""
        n, nu = self.dim, self.dof
        return (0.5 * (nu - n - 1.0) * mean_logdet - 0.5 * trace
                - 0.5 * nu * n * math.log(2.0) + 0.5 * nu * _chol_logdet(self._chol_s)
                - ln_multivariate_gamma(n, 0.5 * nu))

    def take(self, indices) -> "WishartParams":
        """The stacked distributions at ``indices``, with their Cholesky and
        Bartlett factors gathered from this stack (each computed once here)."""
        out = object.__new__(WishartParams)
        out.scale_inv, out.dof = self.scale_inv[indices], self.dof
        out._chol_s, out._bartlett = self._chol_s[indices], self._bartlett[indices]
        return out

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Bartlett decomposition draw, bit-reproducible for a given rng; shaped
        (size, stack, n, n), or (stack, n, n) without ``size``."""
        n, nu = self.dim, self.dof
        shape = (1 if size is None else size,) + self.scale_inv.shape[:-2]
        m = self._bartlett
        a = np.zeros(shape + (n, n))
        rows, cols = _tril_indices(n, -1)
        if len(rows):
            a[..., rows, cols] = rng.standard_normal(shape + (len(rows),))
        for j in range(n):
            a[..., j, j] = np.sqrt(rng.gamma(0.5 * (nu - j), 2.0, size=shape))
        la = m @ a
        draws = la @ la.swapaxes(-1, -2)
        return draws[0] if size is None else draws

    def sample_stack(self, rngs) -> np.ndarray:
        """One draw per stacked distribution, (stack, n, n): distribution c
        draws from ``rngs[c]`` the bits :meth:`sample` of it alone gives."""
        n, nu = self.dim, self.dof
        rows, cols = _tril_indices(n, -1)
        a = np.zeros((len(rngs), n, n))
        for c, rng in enumerate(rngs):
            if len(rows):
                a[c, rows, cols] = rng.standard_normal(len(rows))
            for j in range(n):
                a[c, j, j] = math.sqrt(rng.gamma(0.5 * (nu - j), 2.0))
        la = self._bartlett @ a
        return la @ la.swapaxes(-1, -2)


def _all_positive(p) -> bool:
    """Every entry of a number or an array is > 0; NaN is not."""
    if not isinstance(p, np.ndarray):
        return p > 0
    return p.item() > 0 if p.size == 1 else p.size == 0 or bool(p.min() > 0)


@dataclass
class GammaParams:
    """Gamma in shape/rate form: mean = shape / rate.

    ``shape`` and ``rate`` may be vectors that broadcast to a stack of
    distributions; shapes then follow :class:`MvNormalParams`.
    """

    shape: float
    rate: float

    def __post_init__(self):
        if not (_all_positive(self.shape) and _all_positive(self.rate)):
            raise ValueError("gamma shape and rate must be strictly positive")

    @cached_property
    def _natural(self):
        """The coefficients [a - 1, -b] of the sufficient statistics [ln x, x],
        (..., 2), and the log normaliser a ln b - ln Gamma(a) as a column."""
        a, b = np.broadcast_arrays(np.asarray(self.shape, dtype=float),
                                   np.asarray(self.rate, dtype=float))
        return np.stack([a - 1.0, -b], axis=-1), (a * np.log(b) - gammaln(a))[..., None]

    def logpdf_batch(self, x: np.ndarray) -> np.ndarray:
        """ln density at the points x: shaped like x for unstacked parameters,
        (stack, points) for stacked ones and a vector of points."""
        x = np.asarray(x, dtype=float)
        coef, const = self._natural
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.inner(coef, np.stack([np.log(x), x], axis=-1))
        out += const
        np.copyto(out, -np.inf, where=~(x > 0))
        return out

    def take(self, indices) -> "GammaParams":
        """The stacked distributions at ``indices``; an unstacked (scalar)
        shape or rate is shared by all of them."""
        def pick(p):
            return np.asarray(p)[indices] if np.ndim(p) else p
        return GammaParams(pick(self.shape), pick(self.rate))

    def mean(self):
        return self.shape / self.rate

    def mean_log(self) -> float:
        return float(psi(self.shape)) - math.log(self.rate)

    def expected_logpdf(self, mean, mean_log) -> float:
        """E_q[ln p(x)] of this (unstacked) density p under any q with
        E_q[x] = ``mean`` and E_q[ln x] = ``mean_log``."""
        a, b = self.shape, self.rate
        return a * math.log(b) - float(gammaln(a)) + (a - 1.0) * mean_log - b * mean

    def entropy(self) -> float:
        a, b = self.shape, self.rate
        return a - math.log(b) + float(gammaln(a)) + (1.0 - a) * float(psi(a))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draws shaped (size, stack); without ``size`` one per stacked
        distribution, a float for unstacked parameters."""
        if size is not None:
            size = (size,) + np.broadcast_shapes(np.shape(self.shape), np.shape(self.rate))
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    def sample_stack(self, rngs) -> np.ndarray:
        """One draw per stacked distribution, (stack,), for a ``rate`` that
        carries the stack axis: distribution c draws from ``rngs[c]`` the bits
        :meth:`sample` of it alone gives."""
        rates = self.rate.tolist()
        shapes = (self.shape.tolist() if isinstance(self.shape, np.ndarray)
                  else [self.shape] * len(rates))
        if len(rngs) == 1:
            return np.array([rngs[0].gamma(shapes[0], 1.0 / rates[0])])
        return np.array([rng.gamma(a, 1.0 / b) for rng, a, b in zip(rngs, shapes, rates)])


# below this location / scale the truncated-normal mean and variance come from
# the continued fraction (200 terms: within 1e-15 of 50-digit values from -40 to -1.5)
_MILLS_CF_BELOW = -2.5
_MILLS_CF_TERMS = 200


@dataclass
class TruncNormalParams:
    """Normal(location, scale^2) truncated to [0, inf), elementwise.

    ``location`` and ``scale`` broadcast against each other, so one object
    holds a product of independent factors: locations (firms,) under one
    scale, or a stack (chains, firms) with one scale per product as
    (chains, 1). Moments, entropy and log density come back in the broadcast
    shape, floats for scalar parameters.
    """

    location: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        self.location = np.asarray(self.location, dtype=float)
        self.scale = np.asarray(self.scale, dtype=float)
        if not _all_positive(self.scale):
            raise ValueError("scale must be strictly positive")
        self._alpha = self.location / self.scale

    @staticmethod
    def _out(x):
        return float(x) if np.ndim(x) == 0 else x

    @cached_property
    def _mills(self):
        return inverse_mills(self._alpha)

    @cached_property
    def _deep(self):
        """For factors with location / scale = a < -2.5, where a + m(a) and
        1 - m (m + a) cancel: the mask, t = a + m(a) and K from the Mills-ratio
        continued fraction, x = -a, K = 2 / (x + 3 / (x + 4 / (x + ...))),
        t = 1 / (x + K), so that var / scale^2 = t (K - t). None when no
        factor lies that deep."""
        deep = self._alpha < _MILLS_CF_BELOW
        if not deep.any():
            return None
        x = -np.where(deep, self._alpha, _MILLS_CF_BELOW)
        k = np.zeros(x.shape)
        for n in range(_MILLS_CF_TERMS, 1, -1):
            k = n / (x + k)
        return deep, 1.0 / (x + k), k

    def mean(self):
        out = self.location + self.scale * self._mills
        if self._deep is not None:
            deep, t, _ = self._deep
            out = np.where(deep, self.scale * t, out)
        return self._out(out)

    def var(self):
        m = self._mills
        out = self.scale ** 2 * (1.0 - m * (m + self._alpha))
        if self._deep is not None:
            deep, t, k = self._deep
            out = np.where(deep, self.scale ** 2 * (t * (k - t)), out)
        return self._out(out)

    def entropy(self):
        a = self._alpha
        return self._out(0.5 * (LOG_2PI + 1.0) + np.log(self.scale) + log_ndtr(a)
                         - 0.5 * a * self._mills)

    def logpdf_batch(self, x: np.ndarray) -> np.ndarray:
        """ln density at x, broadcast against the parameters (-inf below 0)."""
        x = np.asarray(x, dtype=float)
        # -0.5 (ln 2 pi + z^2) - ln scale - ln Phi(alpha), step by step in place:
        # a wide batch of points makes one temporary
        out = np.asarray((x - self.location) / self.scale)
        out *= out
        out += LOG_2PI
        out *= -0.5
        out -= np.log(self.scale)
        out -= log_ndtr(self._alpha)
        np.copyto(out, -np.inf, where=~(x >= 0))
        return out

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draws shaped (size, *shape), or one per factor without ``size`` (a
        float for scalar parameters).

        Inversion where location / scale >= -5: the uniforms of those factors
        come first, ``size`` per factor, factor by factor in C order. Then the
        exponential rejection of :func:`_tail_normal`, factor by factor.
        """
        n = 1 if size is None else size
        alpha = self._alpha
        easy = alpha >= -5.0
        u = np.full(alpha.shape + (n,), 0.5)
        u[easy] = rng.uniform(size=(np.count_nonzero(easy), n))
        draws = self._invert(np.moveaxis(u, -1, 0))
        if not np.all(easy):
            loc, scale = np.broadcast_arrays(self.location, self.scale)
            for i in map(tuple, np.argwhere(~easy)):
                z = _tail_normal(rng, -float(alpha[i]), n)
                draws[(slice(None),) + i] = loc[i] + scale[i] * z
        return self._out(draws[0]) if size is None else draws

    def sample_stack(self, rngs) -> np.ndarray:
        """One draw of every factor, (stack, ...): stacked product c draws from
        ``rngs[c]`` the bits :meth:`sample` of it alone gives."""
        alpha = self._alpha
        if np.minimum.reduce(alpha, axis=None) >= -5.0:
            return self._invert(draw_each(rngs, lambda rng: rng.uniform(size=alpha.shape[1:])))
        loc, scale = np.broadcast_arrays(self.location, self.scale)
        return np.array([TruncNormalParams(m, s).sample(rng)
                         for m, s, rng in zip(loc, scale, rngs)])

    def _invert(self, u):
        """Inverse-CDF draws at the uniforms ``u``, broadcast against the parameters:
        max(location + scale ndtri(lo + u (1 - lo)), 0), each step in place."""
        lo = np.exp(log_ndtr(-self._alpha))  # P(Z < -alpha), the mass below 0
        v = u * (1.0 - lo)
        v += lo
        z = ndtri(v)
        z *= self.scale
        z += self.location
        return np.maximum(z, 0.0, out=z)


def _tail_normal(rng: np.random.Generator, a: float, n: int) -> np.ndarray:
    """n standard normal draws conditioned on z >= a, for a > 5: Robert (1995)
    translated-exponential rejection, one draw after the other."""
    lam = 0.5 * (a + math.sqrt(a * a + 4.0))
    out = np.empty(n)
    for i in range(n):
        while True:
            z = a + rng.exponential(1.0 / lam)
            if math.log(rng.uniform()) <= -0.5 * (z - lam) ** 2:
                out[i] = z
                break
    return out


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
