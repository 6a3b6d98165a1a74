"""mddkit: marginal data density estimation with variational-Bayes weighting.

The package pairs posterior simulators for three Bayesian model families
(vector autoregressions, stochastic frontier panels, longitudinal Poisson
counts) with a suite of log-evidence estimators -- reciprocal importance
sampling, bridge sampling, importance sampling, a corrected harmonic mean
and the Gibbs-output conditional decomposition -- all of which can use the
fitted variational posterior as their weighting density.
"""

from . import diagnostics, estimators, harness, lpm, modelapi, sfm, statscore, var
from .diagnostics import BoundsSpec, RepetitionSet, batch_means_se, nse, percent_in_bounds, spectral_density_zero
from .estimators import (
    MddEstimate,
    bs_estimate,
    chib_estimate,
    chm_estimate,
    is_estimate,
    make_geweke_weighting,
    make_normal_weighting,
    make_pmd_weighting,
    make_prior_weighting,
    make_swz_weighting,
    make_vb_weighting,
    ris_estimate,
)
from .harness import ExperimentConfig, emit_outputs, run_experiment
from .modelapi import (
    Block,
    ModelKernel,
    ParamLayout,
    PosteriorDrawSet,
    SamplerConfig,
    VBResult,
    WeightingDensity,
)
from .statscore import make_rng

__version__ = "0.1.0"

__all__ = [
    "statscore", "diagnostics", "modelapi", "var", "sfm", "lpm",
    "estimators", "harness",
    "ris_estimate", "bs_estimate", "is_estimate", "chm_estimate", "chib_estimate",
    "make_vb_weighting", "make_prior_weighting", "make_normal_weighting",
    "make_geweke_weighting", "make_swz_weighting", "make_pmd_weighting",
    "MddEstimate", "ExperimentConfig", "run_experiment", "emit_outputs",
    "RepetitionSet", "BoundsSpec", "nse", "batch_means_se",
    "spectral_density_zero", "percent_in_bounds",
    "ModelKernel", "ParamLayout", "Block", "PosteriorDrawSet", "SamplerConfig",
    "VBResult", "WeightingDensity",
    "make_rng",
]
