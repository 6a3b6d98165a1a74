"""The contract every model family implements.

Estimators never see model internals: they consume flat parameter
matrices (one row per draw), a batched log posterior kernel, and -- for
the conditional-based methods -- named blocks with evaluable/sampleable
full conditionals. Parameter vectors carry SPD blocks in vech form
(lower triangle, row-major); latent variables live in a separate layout
and only enter complete-data variants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, UnsupportedModelError
from .statscore import _tril_indices

__all__ = [
    "Block",
    "ParamLayout",
    "PosteriorDrawSet",
    "SamplerConfig",
    "VBResult",
    "WeightingDensity",
    "product_density",
    "ModelKernel",
    "GibbsKernel",
    "ModelContext",
    "ModelSpec",
    "log_posterior_kernel",
    "elbo_monte_carlo",
    "run_gibbs",
    "stack_state",
    "read_panel_csv",
]


# ---------------------------------------------------------------------------
# parameter layout
# ---------------------------------------------------------------------------

def vech(m: np.ndarray) -> np.ndarray:
    """Lower triangle of a symmetric matrix, row-major."""
    n = m.shape[-1]
    rows, cols = _tril_indices(n)
    return m[..., rows, cols]


def unvech(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`vech`; symmetrizes by mirroring."""
    v = np.asarray(v, dtype=float)
    rows, cols = _tril_indices(n)
    out = np.zeros(v.shape[:-1] + (n, n))
    out[..., rows, cols] = v
    out[..., cols, rows] = v
    return out


@dataclass(frozen=True)
class Block:
    """One named block of the parameter vector."""

    name: str
    shape: tuple
    support: str = "real"  # real | positive | spd

    def __post_init__(self):
        if self.support not in ("real", "positive", "spd"):
            raise ValueError(f"unknown support {self.support!r}")
        if self.support == "spd" and (len(self.shape) != 2 or self.shape[0] != self.shape[1]):
            raise ValueError("spd blocks must have square shape")

    @property
    def size(self) -> int:
        if self.support == "spd":
            n = self.shape[0]
            return n * (n + 1) // 2
        return int(np.prod(self.shape)) if self.shape else 1


class ParamLayout:
    """Maps between flat draw vectors and named block values."""

    def __init__(self, blocks: list[Block]):
        self.blocks = list(blocks)
        self.slices: dict[str, slice] = {}
        offset = 0
        for b in self.blocks:
            self.slices[b.name] = slice(offset, offset + b.size)
            offset += b.size
        self.dim = offset
        self._by_name = {b.name: b for b in self.blocks}

    def block(self, name: str) -> Block:
        return self._by_name[name]

    @property
    def names(self) -> list[str]:
        return [b.name for b in self.blocks]

    def missing(self, names) -> list[str]:
        """The block names not among ``names``, in layout order."""
        return [b.name for b in self.blocks if b.name not in names]

    def pack(self, values: dict) -> np.ndarray:
        return self.pack_into(np.empty(self.dim), values)

    def pack_into(self, out: np.ndarray, values: dict) -> np.ndarray:
        """Write the block values into the flat rows ``out`` (..., dim) through
        the block slices, each value stacked along the same leading axes (a
        view of draw matrix rows works); returns ``out``."""
        for b in self.blocks:
            v = np.asarray(values[b.name], dtype=float)
            out[..., self.slices[b.name]] = (vech(v) if b.support == "spd"
                                             else v.reshape(out.shape[:-1] + (-1,)))
        return out

    def pack_batch(self, values: dict) -> np.ndarray:
        n = len(np.asarray(values[self.blocks[0].name]))
        return self.pack_into(np.empty((n, self.dim)), values)

    def unpack(self, theta: np.ndarray) -> dict:
        return {k: (v[0] if np.ndim(v) and v.shape[0] == 1 else v)
                for k, v in self.unpack_batch(np.atleast_2d(theta)).items()}

    def unpack_batch(self, thetas: np.ndarray) -> dict:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        out = {}
        for b in self.blocks:
            raw = thetas[:, self.slices[b.name]]
            if b.support == "spd":
                out[b.name] = unvech(raw, b.shape[0])
            elif b.shape == ():
                out[b.name] = raw[:, 0]
            else:
                out[b.name] = raw.reshape((thetas.shape[0],) + b.shape)
        return out

    # -- unconstrained transform (used by Geweke / elliptical / box weightings)

    def to_unconstrained_batch(self, thetas: np.ndarray):
        """Map draws to an unconstrained space; returns (phis, log_jac).

        Positive entries map through log; SPD blocks map to the unique
        elements of their Cholesky factor with logged diagonal. ``log_jac``
        is ln|d phi / d theta| per draw, so a density g on phi-space
        corresponds to the theta-space density g(phi(theta)) * exp(log_jac).
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        s = thetas.shape[0]
        phis = np.empty_like(thetas)
        log_jac = np.zeros(s)
        for b in self.blocks:
            sl = self.slices[b.name]
            raw = thetas[:, sl]
            if b.support == "real":
                phis[:, sl] = raw
            elif b.support == "positive":
                phis[:, sl] = np.log(raw)
                log_jac -= np.sum(np.log(raw), axis=1)
            else:
                n = b.shape[0]
                mats = unvech(raw, n)
                chol = np.linalg.cholesky(mats)
                rows, cols = _tril_indices(n)
                elems = chol[:, rows, cols]
                diag_mask = rows == cols
                elems[:, diag_mask] = np.log(elems[:, diag_mask])
                phis[:, sl] = elems
                # |d vech(W)/d vech(L)| = 2^n prod L_ii^(n-i+1), i = 1..n;
                # log-diagonal map contributes prod 1/L_ii
                diag = np.log(np.diagonal(chol, axis1=1, axis2=2))
                powers = n - np.arange(1, n + 1) + 2.0
                log_jac -= n * math.log(2.0) + diag @ powers
        return phis, log_jac

    def from_unconstrained(self, phi: np.ndarray) -> np.ndarray:
        """Inverse of :func:`to_unconstrained_batch` for a batch of rows."""
        phi = np.atleast_2d(np.asarray(phi, dtype=float))
        out = np.empty_like(phi)
        for b in self.blocks:
            sl = self.slices[b.name]
            raw = phi[:, sl]
            if b.support == "real":
                out[:, sl] = raw
            elif b.support == "positive":
                out[:, sl] = np.exp(raw)
            else:
                n = b.shape[0]
                rows, cols = _tril_indices(n)
                diag_mask = rows == cols
                elems = raw.copy()
                elems[:, diag_mask] = np.exp(elems[:, diag_mask])
                chol = np.zeros((phi.shape[0], n, n))
                chol[:, rows, cols] = elems
                mats = chol @ chol.transpose(0, 2, 1)
                out[:, sl] = vech(mats)
        return out


# ---------------------------------------------------------------------------
# draws, VB results, weighting densities
# ---------------------------------------------------------------------------

@dataclass
class SamplerConfig:
    """Chain length configuration; defaults follow the reference setup. A
    chain keeps ``draws`` >= 1 states, one every ``thin`` >= 1 sweeps, after
    ``burn_in`` >= 0 sweeps; other values raise ValueError."""

    draws: int = 10_000
    burn_in: int = 1_000
    thin: int = 1

    def __post_init__(self):
        for name, low in (("draws", 1), ("burn_in", 0), ("thin", 1)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")


@dataclass
class PosteriorDrawSet:
    """Ordered posterior draws with reproducibility metadata."""

    thetas: np.ndarray  # (S, n)
    layout: ParamLayout
    seed: object
    burn_in: int = 0
    thin: int = 1
    latents: np.ndarray | None = None  # (S, m) aligned latent draws
    latent_layout: ParamLayout | None = None

    def __post_init__(self):
        self.thetas = np.atleast_2d(np.asarray(self.thetas, dtype=float))

    @property
    def size(self) -> int:
        return self.thetas.shape[0]

    def unpack(self, indices=None) -> dict:
        """Block values of the chosen draws (parameters plus latents), stacked
        along a leading axis: a stacked ``full_conditional`` state."""
        idx = np.arange(self.size) if indices is None else np.asarray(indices)
        unpacked = self.layout.unpack_batch(self.thetas[idx])
        if self.latents is not None:
            unpacked.update(self.latent_layout.unpack_batch(self.latents[idx]))
        return unpacked

    def complete_data(self, layout: ParamLayout) -> "PosteriorDrawSet":
        """The draws with their latents appended to each row, under ``layout``:
        a complete-data layout, the parameter layout followed by the latent one."""
        if (self.latents is None or layout.names != self.layout.names + self.latent_layout.names
                or layout.dim != self.layout.dim + self.latent_layout.dim):
            raise ValueError(f"layout {layout.names} is not the draws' blocks then latents")
        return PosteriorDrawSet(np.hstack([self.thetas, self.latents]), layout, seed=self.seed,
                                burn_in=self.burn_in, thin=self.thin)


def product_density(layout: ParamLayout, factors: dict):
    """The mean-field density prod_b factors[b] over the blocks b of ``layout``,
    as ``(log_eval, sample)``: ``log_eval`` sums the factors' ``logpdf_batch``
    at the unpacked blocks left to right in layout order, and ``sample`` packs
    each factor's ``sample(rng, size)``, drawn in layout order. A factor with
    one value per element of its block (q(u) over firms) is summed over them
    by ``np.sum``. Factors of blocks outside ``layout`` are not used."""
    names = layout.names

    def log_eval(thetas):
        unpacked = layout.unpack_batch(thetas)
        total = 0.0
        for name in names:
            value = factors[name].logpdf_batch(unpacked[name])
            total = total + (np.sum(value, axis=1) if value.ndim > 1 else value)
        return total

    def sample(rng, size):
        return layout.pack_batch({name: factors[name].sample(rng, size) for name in names})

    return log_eval, sample


@dataclass
class VBResult:
    """Fitted variational approximation.

    ``factors`` maps block names to fitted distributions (``logpdf_batch``
    over a batch of block values, ``sample(rng, size)``); a mean-field fit's
    q is their product over a layout (:meth:`mean_field`), and a factor may
    cover a block outside that layout, such as a latent block the
    complete-data kernel carries. ``hyper`` keeps moments and other fitted
    values.
    """

    hyper: dict
    elbo_trace: np.ndarray
    log_q: Callable[[np.ndarray], np.ndarray]          # batched over theta rows
    sample: Callable[[np.random.Generator, int], np.ndarray]
    converged: bool
    factors: dict = field(default_factory=dict)

    @classmethod
    def mean_field(cls, layout: ParamLayout, factors: dict, elbo_trace, hyper: dict,
                   converged: bool) -> "VBResult":
        """The fit whose q is :func:`product_density` of ``factors`` over ``layout``;
        it warns unless ``converged`` (a closed-form fit passes True)."""
        if not converged:
            warnings.warn(f"VB over {layout.names} hit max_iter before the tolerance", stacklevel=3)
        return cls(hyper, np.asarray(elbo_trace), *product_density(layout, factors),
                   converged=converged, factors=factors)

    @property
    def elbo(self) -> float:
        return float(self.elbo_trace[-1])


@dataclass
class WeightingDensity:
    """A density with batched log-evaluation and optional i.i.d. sampling."""

    tag: str
    log_eval: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None

    def require_sampler(self):
        if self.sampler is None:
            raise UnsupportedModelError(f"weighting {self.tag!r} cannot be sampled from")


# ---------------------------------------------------------------------------
# the model kernel contract
# ---------------------------------------------------------------------------

class ModelKernel:
    """Base class for model families.

    Subclasses must provide ``layout``, ``log_likelihood_batch`` and either
    ``prior_factors`` (block name to prior density, for a prior that is their
    product) or ``log_prior_batch``; conditional-based estimators additionally
    use ``conditional_blocks`` / ``full_conditional`` (plus ``gibbs_sweep``
    for more than one block) and the complete-data variants when latent
    variables exist.
    """

    layout: ParamLayout
    latent_layout: ParamLayout | None = None
    conditional_blocks: list[str] = []
    prior_factors: dict

    # -- evaluation ---------------------------------------------------------

    def log_prior_batch(self, thetas: np.ndarray) -> np.ndarray:
        """The product of ``prior_factors`` over the layout (:func:`product_density`)."""
        return product_density(self.layout, self.prior_factors)[0](thetas)

    def log_likelihood_batch(self, thetas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_kernel_batch(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        prior = self.log_prior_batch(thetas)
        out = np.full(prior.shape, -np.inf)
        ok = prior > -np.inf
        if np.any(ok):
            out[ok] = prior[ok] + self.log_likelihood_batch(thetas[ok])
        return out

    # -- conditionals / sampling --------------------------------------------

    def full_conditional(self, name: str, state: dict):
        """Distribution of one block given the rest; conjugate blocks only.

        ``state`` maps block names to values: one state as the Gibbs sweep
        holds it, or a stack of states along a leading axis, as returned by
        :meth:`PosteriorDrawSet.unpack`. A stack gives one distribution whose
        parameters carry that axis, so ``logpdf_batch`` of a batch of block
        values returns a (stack, points) matrix.
        """
        raise UnsupportedModelError(f"{type(self).__name__} exposes no conditional for {name!r}")

    def posterior_sampler(self, config: SamplerConfig, rng: np.random.Generator,
                          seed=None) -> PosteriorDrawSet:
        raise NotImplementedError

    def posterior_chains(self, config: SamplerConfig, rngs, seeds, **kwargs) -> list:
        """One chain per generator: chain c is ``posterior_sampler(config,
        rngs[c], seeds[c], **kwargs)``, drawn chain by chain here."""
        return [self.posterior_sampler(config, rng, seed, **kwargs)
                for rng, seed in zip(rngs, seeds)]

    def vb_fit(self) -> VBResult:
        raise UnsupportedModelError(f"{type(self).__name__} has no VB fit wired")


class GibbsKernel(ModelKernel):
    """A model family sampled by :func:`run_gibbs`.

    Subclasses provide ``gibbs_start(chains, **kwargs)``, the start of that
    many chains as one stack of states, and ``gibbs_sweep(state, rngs,
    clamped, steps)``, which advances a stack of states, chain c drawing from
    ``rngs[c]``, and returns the accept decisions of its random-walk
    Metropolis blocks; a kernel with such blocks gives their initial steps
    through :meth:`metropolis_steps`, and the sweep reads them from
    ``steps``. The default sweep draws each conditional block not in
    ``clamped`` from its full conditional, in ``conditional_blocks`` order.
    """

    def gibbs_start(self, chains: int, **kwargs) -> dict:
        raise NotImplementedError

    def metropolis_steps(self, chains: int) -> tuple[dict, float]:
        """The initial step of every random-walk Metropolis proposal by block,
        over ``chains`` (and over firms or subjects for a block proposed unit
        by unit), and the cap their adaptation keeps them under; none here."""
        return {}, math.inf

    def gibbs_sweep(self, state, rngs, clamped, steps) -> dict:
        for name in self.conditional_blocks:
            if name not in clamped:
                value = self.full_conditional(name, state).sample_stack(rngs)
                state[name] = value.reshape(np.shape(state[name]))
        return {}

    def posterior_chains(self, config: SamplerConfig, rngs, seeds, **kwargs) -> list:
        """The chains of all generators advanced together by :func:`run_gibbs`."""
        return run_gibbs(self, self.gibbs_start(len(rngs), **kwargs), config, rngs, seeds)

    def posterior_sampler(self, config: SamplerConfig, rng: np.random.Generator,
                          seed=None, **kwargs) -> PosteriorDrawSet:
        """One chain: :meth:`posterior_chains` with a stack of one."""
        return self.posterior_chains(config, [rng], [seed], **kwargs)[0]


def stack_state(state: dict, chains: int) -> dict:
    """``chains`` copies of one state stacked along a leading axis."""
    return {name: np.repeat(np.asarray(value)[None], chains, axis=0)
            for name, value in state.items()}


# kept states the driver holds before packing them into its draw matrices
_PACK_ROWS = 256


def run_gibbs(kernel: GibbsKernel, state: dict, config: SamplerConfig, rngs, seeds=None,
              clamped=frozenset()) -> list:
    """The one Gibbs driver: one chain per generator in ``rngs``, all advanced
    by each sweep. ``config.burn_in`` sweeps from the stack of states
    ``state``, then ``config.draws`` kept states, one every ``config.thin``
    sweeps, packed into each chain's draw matrix (and latent matrix, if any)
    a block of rows at a time; returns one draw set per chain, with its seed
    from ``seeds``.

    ``kernel.gibbs_sweep(state, rngs, clamped, steps)`` draws every block not
    in ``clamped`` and binds it to a new value, never mutating one in place;
    chain c draws its variates from ``rngs[c]`` alone, so it is the chain a
    stack of one gives. It returns the accept decisions of its Metropolis
    blocks, whose steps start at ``kernel.metropolis_steps``. In burn-in each
    step adapts to its own decisions towards the acceptance rate for its
    proposal's dimension, 0.44 for one and 0.234 otherwise (Roberts &
    Rosenthal 2001), unless blocks are clamped. A block whose proposals are
    accepted in under 5% or over 95% of a chain's later sweeps warns, chain
    by chain.
    """
    chains = len(rngs)
    seeds = [None] * chains if seeds is None else seeds
    layout, latent_layout = kernel.layout, kernel.latent_layout
    # each chain owns its matrices, so a chain's draws are freed with its draw set
    thetas = [np.empty((config.draws, layout.dim)) for _ in range(chains)]
    latents = (None if latent_layout is None
               else [np.empty((config.draws, latent_layout.dim)) for _ in range(chains)])
    targets = [(layout, thetas)] + ([] if latents is None else [(latent_layout, latents)])
    blocks = layout.blocks + ([] if latent_layout is None else latent_layout.blocks)
    names = [b.name for b in blocks]
    steps, cap = kernel.metropolis_steps(chains)
    # a block's proposals per chain: its steps' entries per chain
    units = {name: step.size // chains for name, step in steps.items()}
    rate_targets = {b.name: 0.44 if b.size == units[b.name] else 0.234
                    for b in blocks if b.name in steps}
    accepted = {name: np.zeros(chains) for name in steps if name not in clamped}
    burn_in, thin = config.burn_in, config.thin
    # the kept states' block values (sweeps bind new arrays, never write into
    # them), packed into the matrices _PACK_ROWS rows at a time
    kept, packed = [], 0

    def pack():
        nonlocal packed
        values = {name: np.stack([row[i] for row in kept], axis=1)
                  for i, name in enumerate(names)}
        rows = slice(packed, packed + len(kept))
        for target_layout, matrices in targets:
            block = target_layout.pack_into(np.empty((chains, len(kept), target_layout.dim)),
                                            values)
            for matrix, chain_rows in zip(matrices, block):
                matrix[rows] = chain_rows
        packed += len(kept)
        kept.clear()

    for it in range(burn_in + config.draws * thin):
        decisions = kernel.gibbs_sweep(state, rngs, clamped, steps)
        if it < burn_in:
            if not clamped:  # a reduced run keeps the initial steps
                for name, accept in decisions.items():
                    steps[name] = np.clip(
                        steps[name] * np.exp(0.05 * (accept - rate_targets[name])), 1e-3, cap)
            continue
        for name, accept in decisions.items():
            accepted[name] += np.count_nonzero(accept.reshape(chains, -1), axis=1) / units[name]
        if (it - burn_in) % thin == 0:
            kept.append([state[name] for name in names])
            if len(kept) == _PACK_ROWS:
                pack()
    if kept:
        pack()
    for c in range(chains):
        for name, count in accepted.items():
            rate = count[c] / (config.draws * thin)
            if not 0.05 <= rate <= 0.95:
                # stacklevel: the caller of the kernel's posterior_chains
                warnings.warn(f"MH acceptance for {name} is {rate:.2f}", stacklevel=3)
    return [PosteriorDrawSet(thetas[c], layout, seed=seeds[c], burn_in=burn_in, thin=thin,
                             latents=None if latents is None else latents[c],
                             latent_layout=latent_layout)
            for c in range(chains)]


def log_posterior_kernel(model: ModelKernel, theta) -> float:
    """ln p(y|theta) + ln p(theta); -inf outside the prior support."""
    return float(model.log_kernel_batch(np.atleast_2d(theta))[0])


def elbo_monte_carlo(model: ModelKernel, vb: VBResult, rng: np.random.Generator,
                     num_draws: int = 20_000) -> tuple[float, float]:
    """Monte Carlo ELBO oracle: mean and standard error of log k(theta) - log q(theta)
    over i.i.d. draws from q. Used to validate closed-form lower bounds."""
    draws = vb.sample(rng, num_draws)
    vals = model.log_kernel_batch(draws) - vb.log_q(draws)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(num_draws))


# ---------------------------------------------------------------------------
# model registry entries
# ---------------------------------------------------------------------------

@dataclass
class ModelContext:
    """Everything the repetition loop needs for one model."""

    kernel: ModelKernel
    vb: VBResult
    exact: float | None = None
    # the complete-data route: its layout is the kernel's then the latent one
    cdl_kernel: ModelKernel | None = None
    cdl_weighting: WeightingDensity | None = None
    sampler_kwargs: dict = field(default_factory=dict)  # extra posterior_chains arguments


@dataclass(frozen=True)
class ModelSpec:
    """One model name's registry entry, kept in its family's module.

    ``synth`` and ``options`` map every key the entry reads to its default
    (None: derived from the data or another key). ``load(data_csv, synth,
    options)`` reads the CSV, or simulates from ``synth`` without one;
    ``kernel(data, options)`` builds the model kernel and ``context(kernel,
    vb)`` the loop's context from it and its VB fit. ``write_csv(data,
    path)`` writes data that ``load`` reads back unchanged.
    """

    synth: dict
    options: dict
    load: Callable[[str | None, dict, dict], object]
    kernel: Callable[[object, dict], ModelKernel]
    write_csv: Callable[[object, object], None]
    context: Callable[[ModelKernel, VBResult], ModelContext] = ModelContext


def read_panel_csv(path, unit: str, value: str):
    """The header and the cells, shaped (units, periods, columns from
    ``value`` on), of a balanced panel CSV with columns ``{unit}_id, period,
    {value}, ...``; units in label order, periods too (numeric if all are digits)."""
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if header[:3] != [f"{unit}_id", "period", value]:
        raise ConfigError(f"{path}: header must start with {unit}_id,period,{value}")
    records = {}
    for i, row in enumerate(rows):
        try:
            vals = [float(v) for v in row[2:]]
        except ValueError as exc:
            raise ConfigError(f"{path}: bad cell in row {i + 2}: {exc}") from exc
        records.setdefault(row[0], {})[row[1]] = vals
    units = sorted(records)
    periods = sorted({p for r in records.values() for p in r})
    for label in units:
        if sorted(records[label]) != periods:
            raise ConfigError(f"{path}: unbalanced panel ({unit} {label})")
    if all(p.isdecimal() for p in periods):  # 10 after 9; a stable sort keeps 01 before 1
        periods.sort(key=int)
    cells = np.array([[records[label][p] for p in periods] for label in units])
    return header, cells.reshape(len(units), len(periods), len(header) - 2)
