"""Output checks for the experiments of one benchmark run.

Per experiment:
- every (repetition, estimator) cell returned a finite log-MDD and every row
  of the table is ``ok``;
- the files ``emit_outputs`` wrote read back to the in-memory table.

Per run:
- where the model has an exact log-MDD (``benchmarks["exact"]``), the
  criterion-1 rule: for each listed estimator the mean deviation from the
  exact value lies within 3 NSE, NSE being the standard deviation across
  repetitions as ``mddkit.diagnostics.nse`` defines it. Repetitions are
  pooled over the run's experiments (each against its own data set's exact
  value), because one experiment has too few repetitions for the rule.
  The rule is applied from 8 distinct repetitions on: with n repetitions an
  unbiased estimator fails it with probability P(|t_(n-1)| > 3 sqrt(n)),
  which is 15% at n = 2 and below 1e-4 from n = 8;
- the per-cell mean log-MDD of each experiment against the values stored
  in reference.json for this workload and seed. The largest deviation is
  reported; it is 0 while the arithmetic is unchanged. A cell fails only
  when it deviates by more than 10 times its across-repetition spread.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

CRITERION_1_METHODS = ("ris-vb", "bs-vb", "is-vb", "ris-pmd", "bs-pmd")
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def cell_values(table) -> dict:
    """method -> per-repetition log-MDD values, in repetition order (nan if failed)."""
    out = {}
    for rep, method, value in sorted(table.scatter, key=lambda r: (r[1], r[0])):
        out.setdefault(method, []).append(float(value))
    return out


def failed_cells(table) -> set:
    """(repetition, method) cells that raised or returned a non-finite value."""
    bad = {(rep, m) for rep, m, v in table.scatter if not math.isfinite(v)}
    for row in table.rows:
        if row.get("status") != "ok":
            bad.update((rep, row["method"]) for rep in range(table.config.repetitions))
    return bad


def check_files(table, paths) -> list:
    """Problems found reading back the files ``emit_outputs`` wrote."""
    by_name = {Path(p).name: Path(p) for p in paths}
    missing = {"table.csv", "scatter.csv", "table.json", "scatter.svg"} - set(by_name)
    if missing:
        return [f"missing output files {sorted(missing)}"]
    problems = []
    payload = json.loads(by_name["table.json"].read_text())
    rows = {r["method"]: r for r in table.rows}
    if [r["method"] for r in payload["rows"]] != list(rows):
        problems.append("table.json rows differ from the table")
    for row in payload["rows"]:
        if row.get("mean_log_mdd") != rows[row["method"]].get("mean_log_mdd"):
            problems.append(f"table.json mean_log_mdd of {row['method']} differs")
    with by_name["table.csv"].open() as fh:
        csv_rows = list(csv.DictReader(fh))
    methods = [r["method"] for r in csv_rows if not r["method"].startswith("benchmark:")]
    if methods != list(rows):
        problems.append("table.csv rows differ from the table")
    with by_name["scatter.csv"].open() as fh:
        scat = {(int(r["repetition"]), r["method"]): float(r["log_mdd"])
                for r in csv.DictReader(fh)}
    expected = {(rep, m): float(v) for rep, m, v in table.scatter}
    if scat.keys() != expected.keys() or any(
            scat[k] != expected[k] and not (math.isnan(scat[k]) and math.isnan(expected[k]))
            for k in expected):
        problems.append("scatter.csv differs from the table's scatter")
    try:
        svg = ET.fromstring(by_name["scatter.svg"].read_text())
    except ET.ParseError as exc:
        problems.append(f"scatter.svg is not well-formed: {exc}")
    else:
        points = sum(1 for el in svg.iter() if el.tag.endswith("circle"))
        finite = sum(1 for _, _, v in table.scatter if math.isfinite(v))
        legend = sum(1 for r in table.rows if r.get("mean_log_mdd") is not None)
        if points != finite + legend:
            problems.append(f"scatter.svg has {points} circles, expected {finite + legend}")
    return problems


CRITERION_1_MIN_REPS = 8


def criterion_1(experiments) -> tuple[list, set, str]:
    """Pooled criterion-1 rule over experiments whose model has an exact value.

    Experiments that repeat an earlier one's seeds count once. Returns
    (problems, methods that failed, a line saying what was checked)."""
    deviations = {m: [] for m in CRITERION_1_METHODS}
    distinct = {exp.index: exp for exp in experiments}.values()
    for exp in distinct:
        exact = exp.table.benchmarks.get("exact")
        if exact is None:
            continue
        for method, vals in cell_values(exp.table).items():
            if method in deviations:
                deviations[method].extend(v - exact for v in vals)
    problems, failed = [], set()
    reps = max(len(dev) for dev in deviations.values())
    if reps == 0:
        return problems, failed, "criterion 1: not applicable (no exact log-MDD)"
    if reps < CRITERION_1_MIN_REPS:
        return problems, failed, (f"criterion 1: not applied, {reps} distinct repetitions "
                                  f"(needs {CRITERION_1_MIN_REPS})")
    for method, dev in deviations.items():
        dev = np.asarray(dev)
        mean, nse = float(np.mean(dev)), float(np.std(dev, ddof=1))
        if not (math.isfinite(mean) and abs(mean) <= 3.0 * nse):
            problems.append(f"criterion 1: {method} mean deviation {mean:.3g} from exact "
                            f"exceeds 3 NSE = {3 * nse:.3g} over {dev.size} repetitions")
            failed.add(method)
    return problems, failed, (f"criterion 1: {', '.join(CRITERION_1_METHODS)} checked "
                              f"against the exact log-MDD over {reps} repetitions")


def cell_summary(table) -> dict:
    """method -> [mean log-MDD, across-repetition sd] for the reference file."""
    out = {}
    for method, vals in cell_values(table).items():
        vals = np.asarray(vals)
        sd = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
        out[method] = [float(np.mean(vals)), sd]
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}


def compare_reference(reference, workload, seed, experiments):
    """(largest |mean - reference|, cells compared, problems, failing (index, method))."""
    stored = reference.get(workload, {}).get(str(seed), [])
    worst, compared, problems, failing = 0.0, 0, [], set()
    for exp in experiments:
        if exp.index >= len(stored):
            continue
        for method, (mean, sd) in cell_summary(exp.table).items():
            if method not in stored[exp.index]:
                continue
            ref_mean, ref_sd = stored[exp.index][method]
            dev = abs(mean - ref_mean)
            compared += 1
            worst = max(worst, dev) if math.isfinite(dev) else math.inf
            if not dev <= 10.0 * max(sd, ref_sd) + 1e-9 * (1.0 + abs(ref_mean)):
                problems.append(f"experiment {exp.index} {method}: mean {mean!r} is "
                                f"{dev:.3g} from the reference {ref_mean!r}")
                failing.add((exp.index, method))
    return worst, compared, problems, failing


def write_reference(workload, seed, experiments):
    """Store this run's per-cell means as the reference for (workload, seed)."""
    reference = load_reference()
    reference.setdefault(workload, {})[str(seed)] = [
        cell_summary(exp.table) for exp in sorted(experiments, key=lambda e: e.index)]
    ordered = {w: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
               for w, seeds in sorted(reference.items())}
    REFERENCE_PATH.write_text(json.dumps(ordered, indent=1) + "\n")
