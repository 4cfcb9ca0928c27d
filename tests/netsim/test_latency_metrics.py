"""Tests for the RTT model and summary statistics."""

import math

import numpy as np
import pytest

from repro.netsim.metrics import percentile, summarize
from repro.webmodel import cohortrng


def _rtts(median_s, sigma, count=4000, seed=1):
    """``count`` log-normal RTTs from one pair of cohort RTT streams."""
    counters = np.arange(count, dtype=np.uint64)
    return cohortrng.lognormal_rtt(
        cohortrng.uniforms(cohortrng.stream_key(cohortrng.RTT_A_STREAM, seed), counters),
        cohortrng.uniforms(cohortrng.stream_key(cohortrng.RTT_B_STREAM, seed), counters),
        median_s,
        sigma,
    )


class TestSamplers:
    """The RTT model: the cohort's counter-based log-normal draw."""

    def test_lognormal_median(self):
        median = float(np.median(_rtts(0.04, 0.5)))
        assert 0.035 <= median <= 0.046

    def test_lognormal_floor(self):
        assert float(_rtts(0.003, 2.0, count=2000).min()) >= 0.002

    def test_lognormal_heavy_tail(self):
        assert float(_rtts(0.04, 0.5).max()) > 3 * 0.04

    def test_lognormal_deterministic_by_seed(self):
        a = _rtts(0.04, 0.5, count=5, seed=9)
        b = _rtts(0.04, 0.5, count=5, seed=9)
        assert a.tolist() == b.tolist()
        assert a.tolist() != _rtts(0.04, 0.5, count=5, seed=10).tolist()

    def test_lognormal_validation(self):
        with pytest.raises(ValueError, match="median RTT must be positive"):
            _rtts(0.0, 0.5, count=1)
        with pytest.raises(ValueError, match="sigma must be positive"):
            _rtts(0.04, 0.0, count=1)


class TestSummaries:
    def test_percentile_interpolation(self):
        values = [0.0, 1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.25) == 1.0
        assert percentile(values, 0.1) == pytest.approx(0.4)

    def test_percentile_single_value(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_percentile_empty_is_nan(self):
        assert math.isnan(percentile([], 0.5))

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        # Sample stdev: sqrt(sum((v-2.5)^2) / 3) = sqrt(5/3).
        assert s.stdev == pytest.approx(math.sqrt(5.0 / 3.0))

    def test_summarize_empty(self):
        assert summarize([]).count == 0
        assert math.isnan(summarize([]).mean)

    def test_summarize_single_sample_has_zero_stdev(self):
        s = summarize([3.25])
        assert s.count == 1
        assert s.mean == 3.25
        assert s.median == 3.25
        assert s.minimum == 3.25
        assert s.maximum == 3.25
        assert s.stdev == 0.0

    def test_summarize_two_samples_uses_bessel_correction(self):
        s = summarize([1.0, 3.0])
        assert s.count == 2
        assert s.mean == 2.0
        # /(n-1) = /1: variance 2.0, not the population 1.0.
        assert s.stdev == pytest.approx(math.sqrt(2.0))

    def test_percentile_two_samples_interpolates(self):
        assert percentile([1.0, 3.0], 0.5) == pytest.approx(2.0)
        assert percentile([1.0, 3.0], 0.0) == 1.0
        assert percentile([1.0, 3.0], 1.0) == 3.0
