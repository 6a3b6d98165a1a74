"""Accuracy statistics over repeated estimations and within-chain draws.

NSE here is the sample standard deviation of the log-MDD estimate across
independent repetitions; SE_BM is a batch-means standard error of a chain
mean; the normalized spectral density at frequency zero governs the
asymptotic variance of reciprocal importance sampling estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = [
    "RepetitionSet",
    "BoundsSpec",
    "nse",
    "batch_means_se",
    "spectral_density_zero",
    "percent_in_bounds",
]


@dataclass
class RepetitionSet:
    """Log-MDD values from independent repetitions of one estimator."""

    values: np.ndarray
    method: str = ""

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("repetition values must all be finite")


@dataclass
class BoundsSpec:
    """Interval used for %-in-bounds reporting; lower is typically the VBLB."""

    lower: float
    upper: float = math.inf

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError("lower bound exceeds upper bound")


def nse(reps: RepetitionSet) -> float:
    """Unbiased sample standard deviation across repetitions (needs >= 2)."""
    v = reps.values
    if v.size < 2:
        raise ValueError("nse requires at least two repetitions")
    return float(np.std(v, ddof=1))


def batch_means_se(draws, num_batches: int) -> float:
    """Standard error of the chain mean from non-overlapping batch means."""
    draws = np.asarray(draws, dtype=float)
    if num_batches < 2:
        raise ValueError("need at least two batches")
    if draws.size % num_batches != 0:
        raise ValueError(f"chain length {draws.size} not divisible by {num_batches} batches")
    means = draws.reshape(num_batches, -1).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(num_batches))


def spectral_density_zero(draws) -> float:
    """Normalized spectral density at frequency zero, rho_d(0).

    Bartlett-windowed autocovariance sum with lag truncation floor(S^(1/3)),
    normalized by the sample variance; equals 1 in expectation for white
    noise and is nonnegative by construction of the window.
    """
    x = np.asarray(draws, dtype=float)
    s = x.size
    if s < 100:
        raise ValueError("spectral_density_zero requires at least 100 draws")
    x = x - x.mean()
    gamma0 = float(x @ x) / s
    if gamma0 <= 0.0:
        raise NumericError("zero-variance input: spectral density undefined")
    lags = int(math.floor(s ** (1.0 / 3.0)))
    acc = gamma0
    for lag in range(1, lags + 1):
        gamma = float(x[lag:] @ x[:-lag]) / s
        acc += 2.0 * (1.0 - lag / (lags + 1.0)) * gamma
    return max(acc / gamma0, 0.0)


def percent_in_bounds(reps: RepetitionSet, bounds: BoundsSpec) -> float:
    """Percentage of repetition values inside [lower, upper]."""
    v = reps.values
    inside = (v >= bounds.lower) & (v <= bounds.upper)
    return 100.0 * float(np.count_nonzero(inside)) / v.size
