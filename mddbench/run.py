#!/usr/bin/env python3
"""mddkit benchmark: run one workload's experiments and print its metrics.

    python3 mddbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 mddbench/run.py --workload all ...   # every workload, one process each

Run from the repository root; the library is imported from ``src/``.

``--trace 0`` repeats the workload's experiment, each with its own seeds
derived from ``--seed``, for ``--seconds`` on average: the next experiment
starts while it is expected to end no later than half an experiment after
``--seconds``. Each experiment is the two calls ``mddkit experiment`` makes:
``harness.run_experiment`` and ``harness.emit_outputs`` with csv, json and
svg. It prints the end-to-end metrics (medians over the run's experiments or
repetitions).

``--trace 1`` runs experiment 0 of the run three times: traced, untraced,
traced. It prints the per-layer metrics from the two traced runs, errors out
if any count differs between them, and reports the tracing overhead.

Both modes check the outputs (checks.py). The last line of standard output
is one JSON object: correct, attempted and failed (estimator cells) and the
metrics. The exit code is 1 when the check fails and 2 or 3 when the
benchmark cannot run or its counts do not repeat. Run records and spans are
written under ``.bench_out/`` in the repository root.
"""

import os

# Fixed before numpy loads OpenBLAS; one thread is within nproc on any machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
END_TO_END_UNITS = {"experiment_s": "s", "setup_s": "s", "rep_s_p50": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def import_mddkit():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mddkit
        import mddkit.harness  # noqa: F401  (loads every module the harness uses)
    except ImportError as exc:
        raise BenchError(f"cannot import mddkit from {src}: {exc}") from exc
    if Path(mddkit.__file__).resolve().parent.parent != src:
        raise BenchError(f"imported mddkit from {mddkit.__file__}, not from {src}")
    return mddkit


def environment() -> dict:
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "blas_threads_requested": BLAS_THREADS, "openblas": []}
    # the OpenBLAS builds numpy and scipy loaded, with their thread counts
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype, get_threads.restype = ctypes.c_char_p, ctypes.c_int
                entry.update(config=get_config().decode(), threads=get_threads())
                break
        env["openblas"].append(entry)
    return env


@dataclass
class Experiment:
    index: int
    traced: bool
    experiment_s: float
    setup_s: float
    rep_s: list
    table: object
    warnings: int
    emitted_bytes: int
    problems: list = field(default_factory=list)


class Runner:
    """Runs experiments of one workload in this process."""

    def __init__(self, mddkit, workload, seed):
        self.mk, self.workload, self.seed = mddkit, workload, seed
        self._setup = None
        harness = mddkit.harness
        build_context = harness.build_context

        def timed_build_context(config):
            start = perf_counter()
            try:
                return build_context(config)
            finally:
                self._setup = (start, perf_counter())

        harness.build_context = timed_build_context

    def experiment(self, index, tracer=None) -> Experiment:
        harness = self.mk.harness
        config = harness.config_from_mapping(make_config(self.workload, self.seed, index))
        out_dir = OUT / "tmp" / f"{self.workload.name}-{os.getpid()}-{index}"
        marks = []
        if tracer is not None:
            tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = perf_counter()
                table = harness.run_experiment(config, progress=lambda rep: marks.append(perf_counter()))
                paths = harness.emit_outputs(table, out_dir, ("csv", "json", "svg"))
                end = perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_start, setup_end = self._setup
        bounds = [setup_end] + marks
        exp = Experiment(index=index, traced=tracer is not None, experiment_s=end - start,
                         setup_s=setup_end - setup_start,
                         rep_s=[b - a for a, b in zip(bounds, bounds[1:])],
                         table=table, warnings=len(caught),
                         emitted_bytes=sum(p.stat().st_size for p in paths))
        if tracer is not None:
            tracer.counts["harness.warnings"] += exp.warnings
        exp.problems = checks.check_files(table, paths)
        shutil.rmtree(out_dir)
        return exp


def check_run(workload, seed, experiments):
    """(attempted cells, failed cells, problems, summary lines)."""
    problems = [f"experiment {e.index}: {p}" for e in experiments for p in e.problems]
    c1_problems, c1_failed, c1_line = checks.criterion_1(experiments)
    problems += c1_problems
    worst, compared, ref_problems, ref_failed = checks.compare_reference(
        checks.load_reference(), workload.name, seed, experiments)
    problems += ref_problems
    attempted = failed = 0
    for exp in experiments:
        bad = checks.failed_cells(exp.table)
        for rep, method, _ in exp.table.scatter:
            attempted += 1
            failed += ((rep, method) in bad or method in c1_failed
                       or (exp.index, method) in ref_failed)
        if bad:
            problems.append(f"experiment {exp.index}: {len(bad)} cells raised or were not finite")
        problems += [f"experiment {exp.index}: {r['method']} {r['status']}"
                     for r in exp.table.rows if r.get("status") != "ok"]
    if compared:
        ref_line = (f"reference: largest |mean log-MDD - reference| = {worst!r} "
                    f"over {compared} cells (seed {seed})")
    else:
        ref_line = f"reference: no stored values for {workload.name} seed {seed}"
    return attempted, failed, problems, [c1_line, ref_line]


def percentile_line(values, unit):
    """Median with its sample count, plus the highest percentile with at least
    ten samples above it when there are enough samples for one."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} {unit} (n={n})"
    if n >= 20:
        pct = int(100 * (n - 10) / n)
        cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        text += f", p{pct} {cut:.6g} {unit}"
    return text


def describe(exp):
    reps = " ".join(f"{r:.3f}" for r in exp.rep_s)
    cells = len(exp.table.scatter)
    bad = len(checks.failed_cells(exp.table))
    return (f"experiment {exp.index}{' (traced)' if exp.traced else ''}: "
            f"{exp.experiment_s:.3f} s, setup {exp.setup_s:.4f} s, reps [{reps}] s, "
            f"cells {cells - bad}/{cells} ok, warnings {exp.warnings}")


def run_timed(runner, seconds):
    """Experiments while the next one is expected to end no later than half an
    experiment after ``seconds``, so that a run measures ``seconds`` on average."""
    experiments = []
    start = perf_counter()
    while not experiments or (perf_counter() - start + 0.5 * statistics.mean(
            e.experiment_s for e in experiments) <= seconds):
        experiments.append(runner.experiment(len(experiments)))
        print(describe(experiments[-1]), flush=True)
    exp_s = [e.experiment_s for e in experiments]
    setup_s = [e.setup_s for e in experiments]
    rep_s = [r for e in experiments for r in e.rep_s]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"experiment_s": statistics.median(exp_s), "setup_s": statistics.median(setup_s),
               "rep_s_p50": statistics.median(rep_s), "peak_rss_mb": peak_rss_mb}
    print(f"experiment_s: {percentile_line(exp_s, 's')}")
    print(f"setup_s: {percentile_line(setup_s, 's')}")
    print(f"rep_s_p50: {percentile_line(rep_s, 's')}")
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MB")
    print(f"warnings: {sum(e.warnings for e in experiments)}")
    return experiments, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def run_traced(runner, spans_path):
    spec = tracing.per_layer_spec()
    tracers = [tracing.Tracer(runner.mk), tracing.Tracer(runner.mk)]
    first = runner.experiment(0, tracers[0])
    print(describe(first), flush=True)
    plain = runner.experiment(0)
    print(describe(plain), flush=True)
    second = runner.experiment(0, tracers[1])
    print(describe(second), flush=True)
    experiments = [first, plain, second]

    measured = [t.metrics() for t in tracers]
    counts = [name for name, (unit, _) in spec.items() if unit != "s"]
    differ = [f"{n}: {measured[0][n]!r} != {measured[1][n]!r}"
              for n in counts if measured[0][n] != measured[1][n]]
    if differ:
        raise BenchError("counts differ between two traced runs of one seed: "
                         + "; ".join(differ), code=3)
    values = [checks.cell_values(e.table) for e in experiments]
    if not (values[0] == values[1] == values[2]):
        first.problems.append("log-MDD values differ between traced and untraced runs")

    metrics = {name: {"value": (measured[0][name] + measured[1][name]) / 2 if unit == "s"
                      else measured[0][name], "unit": unit}
               for name, (unit, _) in spec.items()}
    overhead = (first.experiment_s + second.experiment_s) / 2 - plain.experiment_s
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    wall = first.experiment_s
    print(f"self time by span, traced experiment 0 ({wall:.3f} s wall, "
          f"tracing overhead {overhead:.3f} s):")
    ranked = sorted(tracers[0].by_name().items(), key=lambda kv: -kv[1]["self"])
    for name, agg in ranked[:15]:
        print(f"  {name:<44} {agg['self']:9.4f} s {100 * agg['self'] / wall:5.1f}%  "
              f"{agg['calls']:>8} calls")
    tracers[0].dump(spans_path)
    return experiments, metrics


def run_one(args):
    workload = WORKLOADS[args.workload]
    mk = import_mddkit()
    env = environment()
    print(f"mddbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    runner = Runner(mk, workload, args.seed)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        experiments, metrics = run_traced(runner, OUT / f"{stem}-spans.csv")
    else:
        experiments, metrics = run_timed(runner, args.seconds)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if names != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(names ^ set(metrics))}")

    attempted, failed, problems, summary = check_run(workload, args.seed, experiments)
    print("\n".join(summary))
    print(f"cells_failed_frac: {failed / attempted:.6g} ({failed}/{attempted})")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(f"check: {'ok' if correct else 'FAILED'}")
    if args.write_reference and correct and not args.trace:
        checks.write_reference(workload.name, args.seed, experiments)

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "correct": correct, "problems": problems,
              "metrics": metrics, "checks": summary,
              "experiments": [{"index": e.index, "traced": e.traced,
                               "config": make_config(workload, args.seed, e.index),
                               "experiment_s": e.experiment_s, "setup_s": e.setup_s,
                               "rep_s": e.rep_s, "warnings": e.warnings,
                               "emitted_bytes": e.emitted_bytes,
                               "cells": checks.cell_summary(e.table)} for e in experiments]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh process, one at a time, then a summary."""
    status, rows = 0, []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            rows.append((name, json.loads(lines[-1])))
    if not args.trace:
        print(f"\n{'workload':<18} {'experiment_s':>12} {'setup_s':>9} {'rep_s_p50':>9} "
              f"{'cells_failed_frac':>17} {'peak_rss_mb':>11}")
        for name, res in rows:
            m = {k: v["value"] for k, v in res["metrics"].items()}
            print(f"{name:<18} {m['experiment_s']:>10.3f} s {m['setup_s']:>7.4f} s "
                  f"{m['rep_s_p50']:>7.3f} s {res['failed'] / res['attempted']:>17.4g} "
                  f"{m['peak_rss_mb']:>8.1f} MB")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's per-cell means in reference.json")
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"mddbench: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
