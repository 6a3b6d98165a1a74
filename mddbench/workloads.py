"""Workload definitions: one mddkit experiment config per workload, made from a seed.

Each workload is a fixed model, estimator list and chain length. The seed
argument of the benchmark picks the experiment's ``base_seed`` (chain and
estimator streams) and ``synth.seed`` (the synthetic data set); the library
only ever sees the finished config. Experiment ``i`` of a run uses its own
pair of seeds, so repeated experiments in one process never reuse a data set.

Why each workload is here is its ``why``; what each leaves out, and why, is
in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                # mddkit config mapping, without seeds or repetitions
    repetitions: int            # repetitions per experiment
    why: str
    # keep the synthetic data set fixed and let --seed pick only the chain and
    # estimator streams (see README.md, "Known exclusions")
    fixed_data_seed: int | None = None


WORKLOADS = {w.name: w for w in [
    Workload(
        name="var-conjugate-c1",
        config=dict(model="var-conjugate",
                    estimators=["ris-vb", "bs-vb", "is-vb", "ris-pmd", "bs-pmd",
                                "ris-geweke", "ris-prior", "ris-swz"],
                    synth={"n": 2, "t": 80}, options={"p": 1},
                    draws=10_000, burn_in=0),
        repetitions=2,
        why="criterion-1 setup: exact draws, so a repetition is estimator work "
            "(SWZ mode search in narrow kernel calls, bridge sampling, PMD builds)",
    ),
    Workload(
        name="sfm-exp-gibbs",
        config=dict(model="sfm-exponential",
                    estimators=["ris-vb", "bs-vb", "is-vb", "ris-pmd", "chm", "chib",
                                "ris-vb-cdl", "bs-vb-cdl"],
                    draws=5_000, burn_in=500),
        repetitions=2,
        why="Gibbs work one state at a time (full_conditional, gibbs_sweep, chib "
            "reduced runs) plus the complete-data route and chm",
    ),
    Workload(
        name="sfm-gamma-vbfit",
        config=dict(model="sfm-gamma",
                    estimators=["ris-vb", "ris-pmd", "ris-geweke", "ris-prior"],
                    draws=2_000, burn_in=500),
        repetitions=4,          # repetitions are short (~0.6 s): more per run
        why="the only workload where setup (the gamma-frontier VB fit: parabolic "
            "cylinder functions and 1-d quadrature) dominates the experiment",
        fixed_data_seed=1,
    ),
    Workload(
        name="lpm-mh",
        config=dict(model="lpm", draws=5_000, burn_in=500),
        repetitions=2,
        why="a few wide log-kernel calls (adaptive Gauss-Hermite per row) beside the "
            "Metropolis-within-Gibbs sampler; largest peak memory",
    ),
]}


def experiment_seeds(seed: int, index: int) -> tuple[int, int]:
    """(base_seed, synth_seed) of experiment ``index`` in a run with ``seed``."""
    base, synth = np.random.SeedSequence([seed, index]).generate_state(2)
    return int(base), int(synth)


def make_config(workload: Workload, seed: int, index: int) -> dict:
    """The mddkit config mapping of experiment ``index`` of a run."""
    base_seed, synth_seed = experiment_seeds(seed, index)
    if workload.fixed_data_seed is not None:
        synth_seed = workload.fixed_data_seed
    cfg = dict(workload.config)
    cfg["synth"] = dict(cfg.get("synth", {}), seed=synth_seed)
    cfg["base_seed"] = base_seed
    cfg["repetitions"] = workload.repetitions
    return cfg
