"""Experiment runner: repeated estimation with seed management and reporting.

One experiment fixes a model, fits the variational approximation once
(deterministic given data), then repeats chain sampling and estimation
``repetitions`` times with independent seed streams. Aggregation reports
the mean log-MDD, the NSE across repetitions, batch-means SEs where a
per-draw series exists, and the fraction of repetitions inside
[VB lower bound, user upper bound].
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import estimators as est
from .diagnostics import BoundsSpec, RepetitionSet, nse, percent_in_bounds
from .errors import ConfigError, EstimationError, NumericError, UnsupportedModelError
from .modelapi import GibbsKernel, ModelKernel, SamplerConfig
from .models import MODELS
from .statscore import make_rng

SCHEMA_VERSION = 1

__all__ = [
    "ExperimentConfig",
    "ResultsTable",
    "run_experiment",
    "emit_outputs",
    "output_formats",
    "parse_config_file",
    "build_context",
    "load_data",
    "sample_chain",
    "sample_chains",
    "ESTIMATORS",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorSpec:
    """An estimator: its seed stream (frozen, so removing a method never reseeds
    the others), its engine (ris, bs, is, chm or chib), the tag of its weighting
    and whether it runs on the complete-data route."""

    stream: int
    engine: str
    tag: str | None = None
    complete_data: bool = False


# stream 11 stays free for is-prior, which needs a sampler of the prior
ESTIMATORS = {
    "ris-vb": EstimatorSpec(1, "ris", "vb"),
    "ris-geweke": EstimatorSpec(2, "ris", "geweke"),
    "ris-swz": EstimatorSpec(3, "ris", "swz"),
    "ris-pmd": EstimatorSpec(4, "ris", "pmd"),
    "ris-prior": EstimatorSpec(5, "ris", "prior"),
    "bs-vb": EstimatorSpec(6, "bs", "vb"),
    "bs-pmd": EstimatorSpec(7, "bs", "pmd"),
    "bs-normal": EstimatorSpec(8, "bs", "normal"),
    "is-vb": EstimatorSpec(9, "is", "vb"),
    "is-pmd": EstimatorSpec(10, "is", "pmd"),
    "chm": EstimatorSpec(12, "chm"),
    "chib": EstimatorSpec(13, "chib"),
    "ris-vb-cdl": EstimatorSpec(14, "ris", "vb-cdl", complete_data=True),
    "bs-vb-cdl": EstimatorSpec(15, "bs", "vb-cdl", complete_data=True),
}

_DEFAULT_ESTIMATORS = ["ris-vb", "bs-vb", "is-vb", "ris-pmd", "ris-geweke", "ris-prior"]
# integer fields of ExperimentConfig; the last two may also be unset (None)
_COUNT_KEYS = ("repetitions", "draws", "burn_in", "thin", "pmd_components", "base_seed",
               "is_draws", "weighting_draws")


@dataclass
class ExperimentConfig:
    model: str
    estimators: list = field(default_factory=lambda: list(_DEFAULT_ESTIMATORS))
    data_csv: str | None = None
    synth: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    draws: int = 10_000
    burn_in: int = 1_000
    thin: int = 1
    weighting_draws: int | None = None
    is_draws: int | None = None
    repetitions: int = 100
    base_seed: int = 20_240_101
    upper_bound: float = math.inf
    pmd_components: int = 512

    def __post_init__(self):
        for name in _COUNT_KEYS:
            value = getattr(self, name)
            if value is None and name in ("is_draws", "weighting_draws"):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if (isinstance(self.upper_bound, bool) or not isinstance(self.upper_bound, numbers.Real)
                or math.isnan(self.upper_bound)):
            raise ConfigError(f"upper_bound must be a number, got {self.upper_bound!r}")
        self.upper_bound = float(self.upper_bound)
        if (not isinstance(self.estimators, list)
                or not all(isinstance(e, str) for e in self.estimators)):
            raise ConfigError(f"estimators must be a list of names, got {self.estimators!r}")
        for name in ("synth", "options"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a table of keys, got {getattr(self, name)!r}")
        if not isinstance(self.data_csv, (str, type(None))):
            raise ConfigError(f"data_csv must be a path, got {self.data_csv!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed!r}")
        try:
            SamplerConfig(self.draws, self.burn_in, self.thin)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.pmd_components >= 1:
            raise ConfigError(f"pmd_components must be >= 1, got {self.pmd_components!r}")
        for name in ("is_draws", "weighting_draws"):  # 0 leaves it unset, as None does
            if getattr(self, name) is not None and not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be unset or >= 0, got {getattr(self, name)!r}")
        unknown = [e for e in self.estimators if e not in ESTIMATORS]
        if unknown:
            raise ConfigError(f"unknown estimators: {unknown}; "
                              f"registered: {sorted(ESTIMATORS)}")
        spec = MODELS.get(self.model)
        if spec is None:
            raise ConfigError(f"unknown model {self.model!r}; choose from {sorted(MODELS)}")
        # with data from a CSV, no synth key is read
        reads = {"synth": {} if self.data_csv else spec.synth, "options": spec.options}
        for kind, read in reads.items():
            unread = sorted(set(getattr(self, kind)) - set(read))
            if unread:
                note = " (data_csv is set)" if kind == "synth" and self.data_csv else ""
                raise ConfigError(f"{self.model} reads no {kind} keys {unread}; "
                                  f"it reads {sorted(read)}{note}")


def parse_config_file(path) -> dict:
    """Read the flat ``key = value`` experiment grammar.

    Lines starting with # are comments. Values parse as int, float,
    true/false, a comma list of scalars, or a bare string. Dotted keys
    (synth.n, options.p) nest one level.
    """
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        parsed = _parse_value(value)
        if "." in key:
            head, _, tail = key.partition(".")
            out.setdefault(head, {})
            if not isinstance(out[head], dict):
                raise ConfigError(f"{path}:{lineno}: {head} used both flat and nested")
            out[head][tail] = parsed
        else:
            out[key] = parsed
    return out


def _parse_value(text: str):
    if "," in text:
        return [_parse_value(t.strip()) for t in text.split(",") if t.strip()]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """The config of a parsed mapping; an empty estimator list, ``synth`` or
    ``options`` means the default."""
    unknown = sorted(set(mapping) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    if "model" not in mapping:
        raise ConfigError("model is required")
    mapping = {key: value for key, value in mapping.items()
               if key not in ("estimators", "synth", "options") or value not in ("", [], {})}
    if isinstance(mapping.get("estimators"), str):
        mapping["estimators"] = [mapping["estimators"]]
    return ExperimentConfig(**mapping)


# ---------------------------------------------------------------------------
# model kernels
# ---------------------------------------------------------------------------

def load_data(config: ExperimentConfig):
    """The data of ``config``: its CSV, or the model's synthetic data set."""
    spec = MODELS[config.model]
    return spec.load(config.data_csv, {**spec.synth, **config.synth},
                     {**spec.options, **config.options})


def build_context(config: ExperimentConfig) -> ModelKernel:
    """The model kernel of ``config``, its VB fit made (``kernel.vb``)."""
    spec = MODELS[config.model]
    kernel = spec.kernel(load_data(config), {**spec.options, **config.options})
    kernel.vb  # fitted here, once per experiment
    return kernel


def sample_chains(kernel: ModelKernel, config: ExperimentConfig, reps) -> list:
    """The posterior chains of repetitions ``reps``, each from its own seed
    stream, sampled together (a Gibbs kernel advances them in lockstep); each
    is the chain its repetition gets alone."""
    sampler_cfg = SamplerConfig(draws=config.draws, burn_in=config.burn_in, thin=config.thin)
    return kernel.posterior_chains(sampler_cfg,
                                   [make_rng(config.base_seed, rep, 0) for rep in reps])


def sample_chain(kernel: ModelKernel, config: ExperimentConfig, rep: int):
    """The posterior chain of repetition ``rep``, from its own seed stream."""
    return sample_chains(kernel, config, [rep])[0]


# ---------------------------------------------------------------------------
# repetition loop
# ---------------------------------------------------------------------------

class _Route:
    """Draws on one kernel with their kernel values; the weightings over them,
    and their values at the draws, are built on first use and kept by tag.
    ``builders`` maps each tag the route offers to a builder of the route."""

    def __init__(self, kernel, draws, builders: dict):
        self.kernel, self.draws, self._builders = kernel, draws, builders
        self.log_k = kernel.log_kernel_batch(draws.thetas)
        self._weightings, self._chain_vals = {}, {}

    def weighting(self, tag: str):
        if tag not in self._weightings:
            self._weightings[tag] = self._builders[tag](self)
        return self._weightings[tag]

    def chain_values(self, tag: str):
        if tag not in self._chain_vals:
            self._chain_vals[tag] = self.weighting(tag).log_eval(self.draws.thetas)
        return self._chain_vals[tag]


class _RepBundle:
    """One repetition: its chain on the integrated route and, built for the
    first cell that asks, its draws with their latents on the complete-data one."""

    def __init__(self, kernel: ModelKernel, config: ExperimentConfig, rep: int, draws):
        self.config, self.rep = config, rep
        # builders reach ``est`` at call time, so patches of its functions apply
        self.integrated = _Route(kernel, draws, {
            "vb": lambda r: est.make_vb_weighting(r.kernel.vb),
            "prior": lambda r: est.make_prior_weighting(r.kernel),
            "geweke": lambda r: est.make_geweke_weighting(r.draws),
            "swz": lambda r: est.make_swz_weighting(r.kernel, r.draws, log_kernel_values=r.log_k),
            "normal": lambda r: est.make_normal_weighting(r.draws),
            "pmd": lambda r: est.make_pmd_weighting(r.kernel, r.draws,
                                                    components=config.pmd_components),
        })

    @cached_property
    def complete_data(self) -> _Route:
        kernel = self.integrated.kernel.as_complete_data()
        if kernel is None:
            raise UnsupportedModelError(f"{self.config.model} has no complete-data route")
        return _Route(kernel, self.integrated.draws.complete_data(kernel.layout),
                      {"vb-cdl": lambda r: r.kernel.vb_weighting()})


def _run_method(method: str, bundle: _RepBundle):
    spec, cfg = ESTIMATORS[method], bundle.config
    route = bundle.complete_data if spec.complete_data else bundle.integrated
    rng = make_rng(cfg.base_seed, bundle.rep, 1000 + spec.stream)
    if spec.engine == "ris":
        return est.ris_estimate(route.kernel, route.draws, route.weighting(spec.tag), route.log_k,
                                log_weight_values=route.chain_values(spec.tag))
    if spec.engine == "bs":
        return est.bs_estimate(route.kernel, route.draws, route.weighting(spec.tag),
                               num_weighting_draws=cfg.weighting_draws, rng=rng,
                               log_kernel_values=route.log_k,
                               log_weight_values=route.chain_values(spec.tag))
    if spec.engine == "is":
        return est.is_estimate(route.kernel, route.weighting(spec.tag),
                               cfg.is_draws or cfg.draws, rng)
    if spec.engine == "chm":
        return est.chm_estimate(route.kernel, route.draws, rng, log_kernel_values=route.log_k,
                                num_is_draws=max(cfg.is_draws or cfg.draws, 1000))
    return est.chib_estimate(route.kernel, route.draws, rng)


# what a failed cell raises; anything else is a programming error and propagates
_CELL_ERRORS = (NumericError, EstimationError, UnsupportedModelError, ConfigError,
                np.linalg.LinAlgError, FloatingPointError)

# the draw and latent entries the chains of one group hold together (16 MiB)
_GROUP_ELEMENTS = 2 ** 21


def _group_size(kernel, config: ExperimentConfig) -> int:
    """Repetitions whose chains are sampled together: for a Gibbs kernel, as
    many as ``_GROUP_ELEMENTS`` entries of kept draws and latents hold, at
    least one and at most every repetition; one for a kernel that draws its
    chains one by one anyway."""
    if not isinstance(kernel, GibbsKernel):
        return 1
    latent = 0 if kernel.latent_layout is None else kernel.latent_layout.dim
    per_chain = config.draws * (kernel.layout.dim + latent)
    return max(1, min(config.repetitions, _GROUP_ELEMENTS // max(per_chain, 1)))


def _sample_group(kernel: ModelKernel, config: ExperimentConfig, reps) -> list:
    """The chain of each repetition in ``reps``, or the ``_CELL_ERRORS`` error
    that failed it. A group that fails is sampled again one chain at a time,
    so that only the failing repetition fails."""
    try:
        return sample_chains(kernel, config, reps)
    except _CELL_ERRORS as exc:
        if len(reps) == 1:
            return [exc]
    return [chain for rep in reps for chain in _sample_group(kernel, config, [rep])]


@dataclass
class ResultsTable:
    rows: list
    benchmarks: dict
    scatter: list
    config: ExperimentConfig


def run_experiment(config: ExperimentConfig, progress=None) -> ResultsTable:
    """Run all repetitions and aggregate; estimator failures (``_CELL_ERRORS``),
    a non-finite estimate included, are recorded per cell and never abort the
    run, and a failed chain fails every cell of its repetition. The chains of
    each group of :func:`_group_size` repetitions are sampled together before
    their cells run, and each is freed when its repetition's cells are done.
    An ``upper_bound`` below the VB lower bound raises ConfigError before any
    chain is sampled."""
    kernel = build_context(config)
    vb = kernel.vb
    if not vb.elbo <= config.upper_bound:
        raise ConfigError(f"upper_bound {config.upper_bound!r} is below the VB lower bound "
                          f"{vb.elbo!r}")
    bounds = BoundsSpec(vb.elbo, config.upper_bound)
    values: dict[str, list] = {m: [] for m in config.estimators}
    errors: dict[str, str] = {}
    se_bm: dict[str, list] = {m: [] for m in config.estimators}
    scatter = []
    group, chains = _group_size(kernel, config), []
    for rep in range(config.repetitions):
        if not chains:
            chains = _sample_group(kernel, config,
                                   range(rep, min(rep + group, config.repetitions)))
        chain = chains.pop(0)
        try:
            if isinstance(chain, Exception):  # a failed chain fails its repetition's cells only
                raise chain
            bundle, chain_error = _RepBundle(kernel, config, rep, chain), None
        except _CELL_ERRORS as exc:
            chain_error = exc
        for method in config.estimators:
            try:
                if chain_error is not None:
                    raise chain_error
                result = _run_method(method, bundle)
                if not math.isfinite(result.log_mdd):
                    raise NumericError(f"non-finite log_mdd ({result.log_mdd})")
                values[method].append(result.log_mdd)
                scatter.append((rep, method, result.log_mdd))
                try:
                    se_bm[method].append(result.se_batch_means())
                except UnsupportedModelError:
                    pass
            except _CELL_ERRORS as exc:  # record and continue: table comparability
                errors.setdefault(method, f"{type(exc).__name__}: {exc}")
                scatter.append((rep, method, math.nan))
        if progress is not None:
            progress(rep)

    rows = []
    for method in config.estimators:
        vals = values[method]
        if method in errors and not vals:
            rows.append({"method": method, "status": f"FAILED({errors[method]})"})
            continue
        reps = RepetitionSet(np.asarray(vals))
        row = {
            "method": method,
            "status": f"FAILED({errors[method]})" if method in errors else "ok",
            "mean_log_mdd": float(np.mean(vals)),
            "nse": nse(reps) if len(vals) >= 2 else None,
            "se_bm": float(np.mean(se_bm[method])) if se_bm[method] else None,
            "pct_in_bounds": percent_in_bounds(reps, bounds),
            "repetitions": len(vals),
        }
        rows.append(row)
    benchmarks = {"vblb": vb.elbo, "upper_bound": config.upper_bound}
    if (exact := kernel.exact_log_mdd()) is not None:
        benchmarks["exact"] = exact
    return ResultsTable(rows=rows, benchmarks=benchmarks, scatter=scatter, config=config)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return repr(x)
    return str(x)


# the columns of table.csv, in order; a benchmark row fills method and mean_log_mdd
_TABLE_COLUMNS = ("method", "status", "mean_log_mdd", "nse", "se_bm", "pct_in_bounds",
                  "repetitions")


def output_formats(names) -> tuple:
    """``names`` as a tuple of output formats; a name outside csv, json and svg
    raises :class:`ConfigError` (a ``ValueError``)."""
    names = tuple(names)
    if unknown := sorted(set(names) - {"csv", "json", "svg"}):
        raise ConfigError(f"unknown output format(s) {', '.join(map(repr, unknown))}; "
                          "choose from csv, json and svg")
    return names


def emit_outputs(table: ResultsTable, out_dir, formats=("csv", "json")) -> list:
    """Write the results table, the per-repetition scatter, and optionally a
    self-contained SVG, in the :func:`output_formats` ``formats``; returns the
    written paths."""
    formats = output_formats(formats)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def write(name, text):
        path = out / name
        path.write_text(text)
        written.append(path)

    if "csv" in formats:
        rows = table.rows + [{"method": f"benchmark:{name}", "mean_log_mdd": val}
                             for name, val in sorted(table.benchmarks.items())]
        write("table.csv", "\n".join([",".join(_TABLE_COLUMNS)] + [
            ",".join(_fmt(row.get(k)) for k in _TABLE_COLUMNS) for row in rows]) + "\n")
        write("scatter.csv", "\n".join(["repetition,method,log_mdd"] + [
            f"{rep},{method},{_fmt(float(val))}"
            for rep, method, val in sorted(table.scatter, key=lambda r: (r[1], r[0]))]) + "\n")
    if "json" in formats:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "model": table.config.model,
            "draws": table.config.draws,
            "repetitions": table.config.repetitions,
            "base_seed": table.config.base_seed,
            "benchmarks": {k: _json_num(v) for k, v in table.benchmarks.items()},
            "rows": [{k: _json_num(v) for k, v in row.items()} for row in table.rows],
        }
        write("table.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if "svg" in formats:
        write("scatter.svg", _render_scatter_svg(table))
    return written


def _json_num(v):
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        return repr(v)
    return v


_SVG_COLORS = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#f39c12",
               "#16a085", "#7f8c8d", "#d35400", "#2c3e50", "#e84393"]
_SVG_WIDTH, _SVG_HEIGHT = 720, 420


def _render_scatter_svg(table: ResultsTable) -> str:
    methods = [r["method"] for r in table.rows if r.get("mean_log_mdd") is not None]
    pts = [(rep, m, v) for rep, m, v in table.scatter
           if m in methods and not math.isnan(v)]
    if not pts:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    vals = [v for _, _, v in pts]
    lo, hi = min(vals), max(vals)
    if "exact" in table.benchmarks:
        lo, hi = min(lo, table.benchmarks["exact"]), max(hi, table.benchmarks["exact"])
    pad = 0.05 * (hi - lo) or 1.0
    lo, hi = lo - pad, hi + pad
    reps = max(r for r, _, _ in pts) + 1
    mleft, mright, mtop, mbot = 70, 160, 20, 40

    def sx(rep):
        return mleft + (_SVG_WIDTH - mleft - mright) * (rep + 0.5) / reps

    def sy(v):
        return mtop + (_SVG_HEIGHT - mtop - mbot) * (hi - v) / (hi - lo)

    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{_SVG_WIDTH}' height='{_SVG_HEIGHT}' "
             f"font-family='sans-serif' font-size='11'>",
             f"<rect width='{_SVG_WIDTH}' height='{_SVG_HEIGHT}' fill='white'/>"]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        y = sy(v)
        parts.append(f"<line x1='{mleft}' y1='{y:.1f}' x2='{_SVG_WIDTH - mright}' y2='{y:.1f}' "
                     "stroke='#eee'/>")
        parts.append(f"<text x='{mleft - 6}' y='{y + 4:.1f}' text-anchor='end'>{v:.2f}</text>")
    if "exact" in table.benchmarks:
        y = sy(table.benchmarks["exact"])
        parts.append(f"<line x1='{mleft}' y1='{y:.1f}' x2='{_SVG_WIDTH - mright}' y2='{y:.1f}' "
                     "stroke='black' stroke-dasharray='4 3'/>")
    for i, method in enumerate(methods):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        for rep, m, v in pts:
            if m == method:
                parts.append(f"<circle cx='{sx(rep):.1f}' cy='{sy(v):.1f}' r='2.4' "
                             f"fill='{color}' fill-opacity='0.75'/>")
        ly = mtop + 16 * i + 8
        parts.append(f"<circle cx='{_SVG_WIDTH - mright + 14}' cy='{ly}' r='4' fill='{color}'/>")
        parts.append(f"<text x='{_SVG_WIDTH - mright + 24}' y='{ly + 4}'>{method}</text>")
    parts.append(f"<text x='{mleft}' y='{_SVG_HEIGHT - 10}'>repetition</text>")
    parts.append("</svg>")
    return "\n".join(parts)
