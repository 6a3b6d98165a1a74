"""Tests for repetition and chain accuracy statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mddkit.diagnostics import (
    BoundsSpec,
    RepetitionSet,
    batch_means_se,
    nse,
    percent_in_bounds,
    spectral_density_zero,
)
from mddkit.errors import NumericError
from mddkit.statscore import make_rng


class TestNse:
    def test_constant_is_zero(self):
        assert nse(RepetitionSet([1.0, 1.0, 1.0])) == 0.0

    def test_two_point_sample(self):
        assert nse(RepetitionSet([0.0, 2.0])) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_standard_normal_sample(self):
        draws = make_rng(101).standard_normal(100)
        assert 0.8 <= nse(RepetitionSet(draws)) <= 1.2

    def test_single_value_raises(self):
        with pytest.raises(ValueError):
            nse(RepetitionSet([0.5]))

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=40),
           st.floats(-50, 50), st.floats(0.1, 10))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariant_scale_equivariant(self, vals, shift, scale):
        base = nse(RepetitionSet(vals))
        moved = nse(RepetitionSet(np.asarray(vals) * scale + shift))
        assert moved == pytest.approx(base * scale, rel=1e-9, abs=1e-9)


class TestBatchMeans:
    def test_constant_sequence(self):
        assert batch_means_se(np.ones(300), 30) == 0.0

    def test_iid_matches_theory(self):
        draws = make_rng(7).standard_normal(30_000)
        se = batch_means_se(draws, 30)
        assert se == pytest.approx(1.0 / math.sqrt(30_000), rel=0.30)

    def test_ar1_inflates_se(self):
        # AR(1) with phi = 0.9: long-run variance factor (1+phi)/(1-phi) = 19
        rng = make_rng(8)
        phi, n = 0.9, 30_000
        eps = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = eps[0] / math.sqrt(1 - phi * phi)
        for t in range(1, n):
            x[t] = phi * x[t - 1] + eps[t]
        ratio = batch_means_se(x, 30) / (x.std(ddof=1) / math.sqrt(n))
        assert ratio == pytest.approx(math.sqrt(19.0), rel=0.40)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            batch_means_se(np.ones(100), 30)

    def test_equals_nse_scaling_when_batches_are_singletons(self):
        draws = make_rng(9).standard_normal(128)
        lhs = batch_means_se(draws, 128)
        rhs = nse(RepetitionSet(draws)) / math.sqrt(128)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSpectralDensityZero:
    def test_white_noise_near_one(self):
        draws = make_rng(21).standard_normal(20_000)
        assert spectral_density_zero(draws) == pytest.approx(1.0, abs=0.15)

    def test_ar1_spectrum(self):
        rng = make_rng(22)
        phi, n = 0.5, 100_000
        eps = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = eps[0]
        for t in range(1, n):
            x[t] = phi * x[t - 1] + eps[t]
        assert spectral_density_zero(x) == pytest.approx(3.0, rel=0.25)

    def test_alternating_sequence_near_zero(self):
        x = np.tile([1.0, -1.0], 5_000)
        assert spectral_density_zero(x) == pytest.approx(0.0, abs=0.1)

    def test_nonnegative_always(self):
        rng = make_rng(23)
        for _ in range(20):
            x = rng.standard_normal(500).cumsum() * rng.uniform(0.1, 3.0)
            assert spectral_density_zero(x) >= 0.0

    def test_zero_variance_raises(self):
        with pytest.raises(NumericError):
            spectral_density_zero(np.ones(500))

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            spectral_density_zero(np.arange(50))


class TestPercentInBounds:
    def test_all_above_lower_unbounded(self):
        reps = RepetitionSet([1.0, 2.0, 3.0])
        assert percent_in_bounds(reps, BoundsSpec(0.0)) == 100.0

    def test_direct_count(self):
        reps = RepetitionSet([1.0, 2.0, 3.0])
        assert percent_in_bounds(reps, BoundsSpec(2.0)) == pytest.approx(200.0 / 3.0)

    def test_interval_excludes_below_lower(self):
        # interval bracketing as reported for VB lower/upper bound pairs
        vals = [2908.2 - 1e-6, 2908.3, 2910.0, 2912.3, 2912.4]
        reps = RepetitionSet(vals)
        assert percent_in_bounds(reps, BoundsSpec(2908.2, 2912.3)) == pytest.approx(60.0)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30),
           st.floats(-5, 5), st.floats(0, 5), st.floats(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_bounds(self, vals, lower, widen_up, widen_down):
        reps = RepetitionSet(vals)
        base = percent_in_bounds(reps, BoundsSpec(lower, lower + 5.0))
        wider = percent_in_bounds(reps, BoundsSpec(lower - widen_down, lower + 5.0 + widen_up))
        assert wider >= base

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoundsSpec(2.0, 1.0)
