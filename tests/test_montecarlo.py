"""Tests for the Monte-Carlo estimation primitives."""

import random

import pytest

from repro.approx.montecarlo import (
    additive_estimate,
    bernoulli_stream,
    chernoff_sample_size,
    empirical_mean,
    fixed_sample_estimate,
    hoeffding_sample_size,
    stopping_rule_estimate,
    zero_detection_sample_size,
)


def bernoulli(p, rng):
    return lambda: 1.0 if rng.random() < p else 0.0


class TestSampleSizes:
    def test_chernoff_monotone_in_epsilon(self):
        assert chernoff_sample_size(0.1, 0.05, 0.5) > chernoff_sample_size(
            0.2, 0.05, 0.5
        )

    def test_chernoff_monotone_in_bound(self):
        assert chernoff_sample_size(0.2, 0.05, 0.01) > chernoff_sample_size(
            0.2, 0.05, 0.5
        )

    def test_chernoff_monotone_in_delta(self):
        assert chernoff_sample_size(0.2, 0.01, 0.5) > chernoff_sample_size(
            0.2, 0.2, 0.5
        )

    def test_zero_detection_size(self):
        assert zero_detection_sample_size(0.05, 0.1) == 30

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            chernoff_sample_size(0.0, 0.05, 0.5)
        with pytest.raises(ValueError):
            chernoff_sample_size(0.2, 1.5, 0.5)
        with pytest.raises(ValueError):
            chernoff_sample_size(0.2, 0.05, 0.0)
        with pytest.raises(ValueError):
            zero_detection_sample_size(0.0, 0.5)

    def test_hoeffding_size(self):
        assert hoeffding_sample_size(0.1, 0.05) >= 180


class TestFixedEstimator:
    def test_estimates_bernoulli_mean(self, rng):
        result = fixed_sample_estimate(bernoulli(0.4, rng), 0.1, 0.05, p_lower=0.2)
        assert abs(result.estimate - 0.4) <= 0.1 * 0.4 + 0.02
        assert result.method == "fixed-chernoff"
        assert result.samples_used == chernoff_sample_size(0.1, 0.05, 0.2)

    def test_zero_mean_certified(self, rng):
        result = fixed_sample_estimate(lambda: 0.0, 0.2, 0.05, p_lower=0.1)
        assert result.estimate == 0.0
        assert result.certified_zero


class TestStoppingRule:
    def test_estimates_bernoulli_mean(self, rng):
        result = stopping_rule_estimate(bernoulli(0.3, rng), 0.1, 0.05)
        assert abs(result.estimate - 0.3) <= 0.1 * 0.3 + 0.02
        assert result.method == "dklr"

    def test_adaptive_cost_scales_inversely_with_mean(self, rng):
        high = stopping_rule_estimate(bernoulli(0.5, rng), 0.2, 0.1)
        low = stopping_rule_estimate(bernoulli(0.05, rng), 0.2, 0.1)
        assert low.samples_used > high.samples_used

    def test_truncation_on_zero_stream(self):
        result = stopping_rule_estimate(lambda: 0.0, 0.2, 0.1, max_samples=500)
        assert result.estimate == 0.0
        # Truncation is the caller's choice, not a zero certificate.
        assert not result.certified_zero
        assert result.method == "dklr-truncated"
        assert result.samples_used == 500

    def test_epsilon_must_be_below_one(self, rng):
        with pytest.raises(ValueError):
            stopping_rule_estimate(bernoulli(0.5, rng), 1.5, 0.1)


class TestHelpers:
    def test_bernoulli_stream(self):
        draws = bernoulli_stream(lambda: True)
        assert draws() == 1.0
        draws = bernoulli_stream(lambda: False)
        assert draws() == 0.0

    def test_empirical_mean(self):
        assert empirical_mean([0.0, 1.0, 1.0, 0.0]) == 0.5
        with pytest.raises(ValueError):
            empirical_mean([])

    def test_additive_estimate(self, rng):
        result = additive_estimate(bernoulli(0.5, rng), 0.05, 0.05)
        assert abs(result.estimate - 0.5) <= 0.07
        assert result.method == "additive-hoeffding"
