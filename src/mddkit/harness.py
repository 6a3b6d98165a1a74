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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import estimators as est
from . import lpm as lpm_mod
from . import sfm as sfm_mod
from . import var as var_mod
from .diagnostics import BoundsSpec, RepetitionSet, nse, percent_in_bounds
from .errors import ConfigError, NumericError, UnsupportedModelError
from .modelapi import SamplerConfig
from .statscore import make_rng

SCHEMA_VERSION = 1

__all__ = [
    "ExperimentConfig",
    "ResultsTable",
    "run_experiment",
    "emit_outputs",
    "parse_config_file",
    "build_context",
    "ESTIMATOR_IDS",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_DEFAULT_ESTIMATORS = ["ris-vb", "bs-vb", "is-vb", "ris-pmd", "ris-geweke", "ris-prior"]

# stable stream ids so removing a method never reseeds the others
ESTIMATOR_IDS = {
    "ris-vb": 1, "ris-geweke": 2, "ris-swz": 3, "ris-pmd": 4, "ris-prior": 5,
    "bs-vb": 6, "bs-pmd": 7, "bs-normal": 8,
    "is-vb": 9, "is-pmd": 10, "is-prior": 11,
    "chm": 12, "chib": 13,
    "ris-vb-cdl": 14, "bs-vb-cdl": 15,
}


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
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        unknown = [e for e in self.estimators if e not in ESTIMATOR_IDS]
        if unknown:
            raise ConfigError(f"unknown estimators: {unknown}; "
                              f"registered: {sorted(ESTIMATOR_IDS)}")


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
    mapping = dict(mapping)
    est_list = mapping.pop("estimators", None)
    if isinstance(est_list, str):
        est_list = [est_list]
    cfg = ExperimentConfig(
        model=mapping.pop("model"),
        estimators=est_list or list(_DEFAULT_ESTIMATORS),
        data_csv=mapping.pop("data_csv", None),
        synth=mapping.pop("synth", {}) or {},
        options=mapping.pop("options", {}) or {},
        draws=mapping.pop("draws", 10_000),
        burn_in=mapping.pop("burn_in", 1_000),
        thin=mapping.pop("thin", 1),
        weighting_draws=mapping.pop("weighting_draws", None),
        is_draws=mapping.pop("is_draws", None),
        repetitions=mapping.pop("repetitions", 100),
        base_seed=mapping.pop("base_seed", 20_240_101),
        upper_bound=mapping.pop("upper_bound", math.inf),
        pmd_components=mapping.pop("pmd_components", 512),
    )
    if mapping:
        raise ConfigError(f"unknown config keys: {sorted(mapping)}")
    return cfg


# ---------------------------------------------------------------------------
# model contexts
# ---------------------------------------------------------------------------

@dataclass
class ModelContext:
    """Everything the repetition loop needs for one model family."""

    kernel: object
    vb: object
    vblb: float
    exact: float | None = None
    cdl_kernel: object | None = None
    cdl_weighting: object | None = None
    extend_draws: object | None = None


def build_context(config: ExperimentConfig) -> ModelContext:
    builder = _BUILDERS.get(config.model)
    if builder is None:
        raise ConfigError(f"unknown model {config.model!r}; "
                          f"choose from {sorted(_BUILDERS)}")
    return builder(config)


def _build_var_conjugate(config: ExperimentConfig) -> ModelContext:
    opts = dict(config.options)
    p = int(opts.pop("p", 1))
    if config.data_csv:
        data, _ = var_mod.var_read_csv(config.data_csv, p)
    else:
        sy = dict(config.synth)
        n = int(sy.pop("n", 2))
        t = int(sy.pop("t", 80))
        seed = int(sy.pop("seed", 1))
        coeffs, sigma = _default_var_dynamics(n, p, sy)
        data = var_mod.var_synthetic(seed, n, t, p, coeffs, sigma)
    prior = _var_conjugate_prior(data, opts)
    kernel = var_mod.VarConjugateKernel(prior, data)
    vb = kernel.vb_fit()
    return ModelContext(kernel=kernel, vb=vb, vblb=vb.elbo, exact=kernel.exact_log_mdd())


def _build_var_independent(config: ExperimentConfig) -> ModelContext:
    opts = dict(config.options)
    p = int(opts.pop("p", 1))
    if config.data_csv:
        data, _ = var_mod.var_read_csv(config.data_csv, p)
    else:
        sy = dict(config.synth)
        n = int(sy.pop("n", 2))
        t = int(sy.pop("t", 80))
        seed = int(sy.pop("seed", 1))
        coeffs, sigma = _default_var_dynamics(n, p, sy)
        data = var_mod.var_synthetic(seed, n, t, p, coeffs, sigma)
    nk = data.N * data.K
    scale = float(opts.pop("prior_scale", 10.0))
    dof = float(opts.pop("prior_dof", data.N + 2.0))
    prior = var_mod.VarIndependentPrior(np.zeros(nk), scale * np.eye(nk),
                                        np.eye(data.N), dof)
    kernel = var_mod.VarIndependentKernel(prior, data)
    vb = kernel.vb_fit()
    return ModelContext(kernel=kernel, vb=vb, vblb=vb.elbo)


def _default_var_dynamics(n, p, synth_opts):
    diag = float(synth_opts.pop("ar_diag", 0.5))
    coeffs = np.zeros((1 + p * n, n))
    if p >= 1:
        coeffs[1:1 + n, :] = diag * np.eye(n)
    sigma = np.eye(n)
    return coeffs, sigma


def _var_conjugate_prior(data, opts):
    scale = float(opts.pop("prior_scale", 10.0))
    dof = float(opts.pop("prior_dof", data.N + 2.0))
    return var_mod.VarConjugatePrior(np.zeros((data.K, data.N)),
                                     scale * np.eye(data.K), np.eye(data.N), dof)


def _build_sfm_exponential(config: ExperimentConfig) -> ModelContext:
    opts = dict(config.options)
    sign = opts.pop("sign", "production")
    if config.data_csv:
        data = sfm_mod.sfm_read_csv(config.data_csv, sign=sign)
    else:
        sy = dict(config.synth)
        data = sfm_mod.sfm_synthetic(
            int(sy.pop("seed", 1)), int(sy.pop("n", 20)), int(sy.pop("t", 5)),
            int(sy.pop("k", 2)), "exponential",
            sy.pop("beta", [1.0, 0.5]), float(sy.pop("sigma_sq", 0.04)),
            float(sy.pop("lam", 2.0)), sign=sign)
    prior = sfm_mod.SfmExpPrior(np.zeros(data.k), 4.0 * np.eye(data.k),
                                float(opts.pop("a_sigma", 2.0)), float(opts.pop("b_sigma", 0.1)),
                                float(opts.pop("a_lam", 2.0)), float(opts.pop("b_lam", 1.0)))
    kernel = sfm_mod.SfmExpKernel(prior, data)
    vb = kernel.vb_fit()
    cdl = kernel.as_complete_data()
    return ModelContext(kernel=kernel, vb=vb, vblb=vb.elbo,
                        cdl_kernel=cdl,
                        cdl_weighting=sfm_mod.make_sfm_exp_cdl_weighting(vb, cdl),
                        extend_draws=lambda ds: sfm_mod.SfmExpCdlKernel.extend_draws(ds, cdl))


def _build_sfm_gamma(config: ExperimentConfig) -> ModelContext:
    opts = dict(config.options)
    sign = opts.pop("sign", "production")
    if config.data_csv:
        data = sfm_mod.sfm_read_csv(config.data_csv, sign=sign)
    else:
        sy = dict(config.synth)
        data = sfm_mod.sfm_synthetic(
            int(sy.pop("seed", 1)), int(sy.pop("n", 12)), int(sy.pop("t", 5)),
            int(sy.pop("k", 2)), "gamma",
            sy.pop("beta", [1.0, 0.5]), float(sy.pop("sigma_sq", 0.04)),
            float(sy.pop("lam", 2.0)), theta=float(sy.pop("theta", 1.5)), sign=sign)
    prior = sfm_mod.SfmGammaPrior(np.zeros(data.k), 4.0 * np.eye(data.k),
                                  float(opts.pop("a_sigma", 2.0)), float(opts.pop("b_sigma", 0.1)),
                                  float(opts.pop("b_lam", 1.0)),
                                  float(opts.pop("a_theta", 2.0)), float(opts.pop("b_theta", 2.0)))
    kernel = sfm_mod.SfmGammaKernel(prior, data)
    vb = kernel.vb_fit()
    # estimators run on the complete-data kernel; the VB weighting covers it
    return ModelContext(kernel=kernel, vb=vb, vblb=vb.elbo,
                        cdl_weighting=sfm_mod.make_sfm_gamma_cdl_weighting(vb, kernel))


def _build_lpm(config: ExperimentConfig) -> ModelContext:
    opts = dict(config.options)
    if config.data_csv:
        data = lpm_mod.lpm_read_csv(config.data_csv)
    else:
        sy = dict(config.synth)
        m = int(sy.pop("m", 1))
        data = lpm_mod.lpm_synthetic(
            int(sy.pop("seed", 1)), int(sy.pop("n", 20)), int(sy.pop("t", 5)),
            int(sy.pop("k", 2)), m, sy.pop("beta", [0.3, -0.2]),
            sy.pop("mu", [0.1] * m), np.eye(m) * float(sy.pop("sigma_diag", 0.3)))
    prior = lpm_mod.LpmPrior(np.zeros(data.k), 4.0 * np.eye(data.k),
                             np.zeros(data.m), 4.0 * np.eye(data.m),
                             np.eye(data.m) * float(opts.pop("prior_scale_sigma", 0.5)),
                             float(opts.pop("prior_dof", data.m + 2.0)))
    kernel = lpm_mod.LpmKernel(prior, data)
    vb = kernel.vb_fit()
    return ModelContext(kernel=kernel, vb=vb, vblb=vb.elbo)


_BUILDERS = {
    "var-conjugate": _build_var_conjugate,
    "var-independent": _build_var_independent,
    "sfm-exponential": _build_sfm_exponential,
    "sfm-gamma": _build_sfm_gamma,
    "lpm": _build_lpm,
}


# ---------------------------------------------------------------------------
# repetition loop
# ---------------------------------------------------------------------------

class _RepBundle:
    """Per-repetition chain with cached kernel values and lazy weightings."""

    def __init__(self, ctx: ModelContext, config: ExperimentConfig, rep: int):
        self.ctx = ctx
        self.config = config
        self.rep = rep
        sampler_cfg = SamplerConfig(draws=config.draws, burn_in=config.burn_in,
                                    thin=config.thin)
        kw = {}
        if isinstance(ctx.kernel, lpm_mod.LpmKernel):
            kw["vb"] = ctx.vb
        self.draws = ctx.kernel.posterior_sampler(
            sampler_cfg, make_rng(config.base_seed, rep, 0),
            seed=(config.base_seed, rep), **kw)
        self.log_k = ctx.kernel.log_kernel_batch(self.draws.thetas)
        self._weightings: dict = {}
        self._chain_vals: dict = {}
        if ctx.extend_draws is not None:
            self.cdl_draws = ctx.extend_draws(self.draws)
            self.cdl_log_k = ctx.cdl_kernel.log_kernel_batch(self.cdl_draws.thetas)

    def weighting(self, tag: str):
        if tag not in self._weightings:
            ctx, cfg = self.ctx, self.config
            if tag == "vb":
                if ctx.cdl_weighting is not None and ctx.extend_draws is None:
                    # gamma frontier: the estimator kernel is the complete-data one
                    w = ctx.cdl_weighting
                else:
                    w = est.make_vb_weighting(ctx.vb)
            elif tag == "prior":
                w = est.make_prior_weighting(ctx.kernel)
            elif tag == "geweke":
                w = est.make_geweke_weighting(self.draws)
            elif tag == "swz":
                w = est.make_swz_weighting(ctx.kernel, self.draws,
                                           log_kernel_values=self.log_k)
            elif tag == "normal":
                w = est.make_normal_weighting(self.draws)
            elif tag == "pmd":
                w = est.make_pmd_weighting(ctx.kernel, self.draws,
                                           components=cfg.pmd_components)
            else:
                raise KeyError(tag)
            self._weightings[tag] = w
        return self._weightings[tag]

    def chain_values(self, tag: str):
        if tag not in self._chain_vals:
            self._chain_vals[tag] = self.weighting(tag).log_eval(self.draws.thetas)
        return self._chain_vals[tag]

    def rng(self, method: str):
        return make_rng(self.config.base_seed, self.rep, 1000 + ESTIMATOR_IDS[method])


def _run_method(method: str, bundle: _RepBundle):
    ctx, cfg = bundle.ctx, bundle.config
    kernel, draws, log_k = ctx.kernel, bundle.draws, bundle.log_k
    if method.startswith("ris-") and not method.endswith("-cdl"):
        tag = method[4:]
        return est.ris_estimate(kernel, draws, bundle.weighting(tag), log_k,
                                log_weight_values=bundle.chain_values(tag))
    if method.startswith("bs-") and not method.endswith("-cdl"):
        tag = method[3:]
        return est.bs_estimate(kernel, draws, bundle.weighting(tag),
                               num_weighting_draws=cfg.weighting_draws,
                               rng=bundle.rng(method), log_kernel_values=log_k,
                               log_weight_values=bundle.chain_values(tag))
    if method.startswith("is-"):
        tag = method[3:]
        return est.is_estimate(kernel, bundle.weighting(tag),
                               cfg.is_draws or cfg.draws, bundle.rng(method))
    if method == "chm":
        return est.chm_estimate(kernel, draws, bundle.rng(method),
                                num_is_draws=max(cfg.is_draws or cfg.draws, 1000),
                                log_kernel_values=log_k)
    if method == "chib":
        return est.chib_estimate(kernel, draws, bundle.rng(method),
                                 reduced_run_length=cfg.draws)
    if method == "ris-vb-cdl":
        if ctx.cdl_kernel is None:
            raise UnsupportedModelError(f"{cfg.model} has no complete-data route")
        return est.ris_estimate(ctx.cdl_kernel, bundle.cdl_draws, ctx.cdl_weighting,
                                bundle.cdl_log_k)
    if method == "bs-vb-cdl":
        if ctx.cdl_kernel is None:
            raise UnsupportedModelError(f"{cfg.model} has no complete-data route")
        return est.bs_estimate(ctx.cdl_kernel, bundle.cdl_draws, ctx.cdl_weighting,
                               num_weighting_draws=cfg.weighting_draws,
                               rng=bundle.rng(method),
                               log_kernel_values=bundle.cdl_log_k)
    raise ConfigError(f"unknown estimator {method}")


@dataclass
class ResultsTable:
    rows: list
    benchmarks: dict
    scatter: list
    config: ExperimentConfig


def run_experiment(config: ExperimentConfig, progress=None) -> ResultsTable:
    """Run all repetitions and aggregate; estimator failures, a non-finite
    estimate included, are recorded per cell and never abort the run."""
    ctx = build_context(config)
    values: dict[str, list] = {m: [] for m in config.estimators}
    errors: dict[str, str] = {}
    se_bm: dict[str, list] = {m: [] for m in config.estimators}
    scatter = []
    for rep in range(config.repetitions):
        bundle = _RepBundle(ctx, config, rep)
        for method in config.estimators:
            try:
                result = _run_method(method, bundle)
                if not math.isfinite(result.log_mdd):
                    raise NumericError(f"non-finite log_mdd ({result.log_mdd})")
                values[method].append(result.log_mdd)
                scatter.append((rep, method, result.log_mdd))
                try:
                    se_bm[method].append(result.se_batch_means(30))
                except UnsupportedModelError:
                    pass
            except Exception as exc:  # record and continue: table comparability
                errors.setdefault(method, f"{type(exc).__name__}: {exc}")
                scatter.append((rep, method, math.nan))
        if progress is not None:
            progress(rep)

    bounds = BoundsSpec(ctx.vblb, config.upper_bound)
    rows = []
    for method in config.estimators:
        vals = values[method]
        if method in errors and not vals:
            rows.append({"method": method, "status": f"FAILED({errors[method]})"})
            continue
        reps = RepetitionSet(np.asarray(vals), method=method)
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
    benchmarks = {"vblb": ctx.vblb, "upper_bound": config.upper_bound}
    if ctx.exact is not None:
        benchmarks["exact"] = ctx.exact
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


def emit_outputs(table: ResultsTable, out_dir, formats=("csv", "json")) -> list:
    """Write the results table, the per-repetition scatter, and optionally a
    self-contained SVG; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        path = out / "table.csv"
        lines = ["method,status,mean_log_mdd,nse,se_bm,pct_in_bounds,repetitions"]
        for row in table.rows:
            lines.append(",".join(_fmt(row.get(k)) for k in
                                  ("method", "status", "mean_log_mdd", "nse",
                                   "se_bm", "pct_in_bounds", "repetitions")))
        for name, val in sorted(table.benchmarks.items()):
            lines.append(f"benchmark:{name},,{_fmt(val)},,,,")
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

        scat = out / "scatter.csv"
        lines = ["repetition,method,log_mdd"]
        for rep, method, val in sorted(table.scatter, key=lambda r: (r[1], r[0])):
            lines.append(f"{rep},{method},{_fmt(float(val))}")
        scat.write_text("\n".join(lines) + "\n")
        written.append(scat)
    if "json" in formats:
        path = out / "table.json"
        payload = {
            "schema_version": SCHEMA_VERSION,
            "model": table.config.model,
            "draws": table.config.draws,
            "repetitions": table.config.repetitions,
            "base_seed": table.config.base_seed,
            "benchmarks": {k: _json_num(v) for k, v in table.benchmarks.items()},
            "rows": [{k: _json_num(v) for k, v in row.items()} for row in table.rows],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(path)
    if "svg" in formats:
        path = out / "scatter.svg"
        path.write_text(_render_scatter_svg(table))
        written.append(path)
    return written


def _json_num(v):
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        return repr(v)
    return v


_SVG_COLORS = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#f39c12",
               "#16a085", "#7f8c8d", "#d35400", "#2c3e50", "#e84393"]


def _render_scatter_svg(table: ResultsTable, width=720, height=420) -> str:
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
        return mleft + (width - mleft - mright) * (rep + 0.5) / reps

    def sy(v):
        return mtop + (height - mtop - mbot) * (hi - v) / (hi - lo)

    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}' "
             f"font-family='sans-serif' font-size='11'>",
             f"<rect width='{width}' height='{height}' fill='white'/>"]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        y = sy(v)
        parts.append(f"<line x1='{mleft}' y1='{y:.1f}' x2='{width - mright}' y2='{y:.1f}' "
                     "stroke='#eee'/>")
        parts.append(f"<text x='{mleft - 6}' y='{y + 4:.1f}' text-anchor='end'>{v:.2f}</text>")
    if "exact" in table.benchmarks:
        y = sy(table.benchmarks["exact"])
        parts.append(f"<line x1='{mleft}' y1='{y:.1f}' x2='{width - mright}' y2='{y:.1f}' "
                     "stroke='black' stroke-dasharray='4 3'/>")
    for i, method in enumerate(methods):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        for rep, m, v in pts:
            if m == method:
                parts.append(f"<circle cx='{sx(rep):.1f}' cy='{sy(v):.1f}' r='2.4' "
                             f"fill='{color}' fill-opacity='0.75'/>")
        ly = mtop + 16 * i + 8
        parts.append(f"<circle cx='{width - mright + 14}' cy='{ly}' r='4' fill='{color}'/>")
        parts.append(f"<text x='{width - mright + 24}' y='{ly + 4}'>{method}</text>")
    parts.append(f"<text x='{mleft}' y='{height - 10}'>repetition</text>")
    parts.append("</svg>")
    return "\n".join(parts)
