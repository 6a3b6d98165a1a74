"""Command-line interface: synth, fit-vb, sample, estimate, experiment."""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

from . import harness
from .errors import ConfigError
from .models import MODELS


def _add_common(parser):
    parser.add_argument("--config", type=Path, help="key = value experiment file")
    parser.add_argument("--model", help=" | ".join(MODELS))
    parser.add_argument("--data", dest="data_csv", help="input CSV path")
    parser.add_argument("--seed", type=int, dest="base_seed",
                        help="base seed of the chain and estimator streams (not synth.seed)")
    parser.add_argument("--reps", type=int, dest="repetitions", help="number of repetitions")
    parser.add_argument("--draws", type=int, help="posterior draws per chain")
    parser.add_argument("--burn-in", type=int, dest="burn_in")
    parser.add_argument("--estimators", help="comma list of estimator names")
    parser.add_argument("--upper-bound", type=float, dest="upper_bound")
    parser.add_argument("--out", type=Path, default=Path("mddkit-out"))
    parser.add_argument("--format", dest="formats", default="csv,json",
                        help="comma list from csv,json,svg")


def _load_config(args) -> harness.ExperimentConfig:
    mapping = harness.parse_config_file(args.config) if args.config else {}
    for key in ("model", "data_csv", "base_seed", "repetitions", "draws", "burn_in",
                "upper_bound"):
        if getattr(args, key) is not None:
            mapping[key] = getattr(args, key)
    if args.estimators:
        mapping["estimators"] = [e.strip() for e in args.estimators.split(",") if e.strip()]
    if "model" not in mapping:
        raise ConfigError("--model or a config file with model= is required")
    return harness.config_from_mapping(mapping)


def cmd_synth(args) -> int:
    config = _load_config(args)
    data = harness.load_data(config)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "synthetic.csv"
    MODELS[config.model].write_csv(data, path)
    print(f"wrote {path}")
    return 0


def cmd_fit_vb(args) -> int:
    config = _load_config(args)
    ctx = harness.build_context(config)
    vb = ctx.vb
    report = {
        "model": config.model,
        "vblb": vb.elbo,
        "iterations": int(len(vb.elbo_trace)),
        "converged": bool(vb.converged),
    }
    if ctx.exact is not None:
        report["exact_log_mdd"] = ctx.exact
    print(json.dumps(report, indent=2, sort_keys=True))
    args.out.mkdir(parents=True, exist_ok=True)
    trace_path = args.out / "elbo_trace.csv"
    trace_path.write_text("iteration,elbo\n" + "\n".join(
        f"{i},{repr(float(v))}" for i, v in enumerate(vb.elbo_trace)) + "\n")
    print(f"wrote {trace_path}")
    return 0


def cmd_sample(args) -> int:
    config = _load_config(args)
    ctx = harness.build_context(config)
    draws = harness.sample_chain(ctx, config, rep=0)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "draws.csv"
    names = []
    for block in ctx.kernel.layout.blocks:
        size = block.size
        names.extend(f"{block.name}_{j}" for j in range(size))
    body = "\n".join(",".join(repr(float(v)) for v in row) for row in draws.thetas)
    path.write_text(",".join(names) + "\n" + body + "\n")
    print(f"wrote {path} ({draws.size} draws)")
    return 0


def cmd_experiment(args, repetitions=None) -> int:
    """Run the experiment (``estimate``: one repetition of it) and write its tables."""
    formats = harness.output_formats(args.formats.split(","))
    config = _load_config(args)
    if repetitions is not None:
        config.repetitions = repetitions
    table = harness.run_experiment(config)
    _print_table(table)
    written = harness.emit_outputs(table, args.out, formats=formats)
    if repetitions is None:
        for path in written:
            print(f"wrote {path}")
    return 0 if all(r.get("status") == "ok" for r in table.rows) else 1


def _print_table(table):
    for name, val in sorted(table.benchmarks.items()):
        if val is not None and not math.isinf(val):
            print(f"{name:>12s}: {val:.4f}")
    header = f"{'method':>12s} {'mean ln p(y)':>14s} {'NSE':>10s} {'%in':>6s}  status"
    print(header)
    for row in table.rows:
        if row.get("mean_log_mdd") is None:
            print(f"{row['method']:>12s} {'-':>14s} {'-':>10s} {'-':>6s}  {row['status']}")
            continue
        nse = f"{row['nse']:.4f}" if row.get("nse") is not None else "n/a"
        print(f"{row['method']:>12s} {row['mean_log_mdd']:>14.4f} {nse:>10s} "
              f"{row['pct_in_bounds']:>6.1f}  {row['status']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mddkit",
        description="Marginal data density estimation with VB weighting densities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("synth", cmd_synth), ("fit-vb", cmd_fit_vb), ("sample", cmd_sample),
                     ("estimate", partial(cmd_experiment, repetitions=1)),
                     ("experiment", cmd_experiment)]:
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
