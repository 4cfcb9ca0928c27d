"""Tests for the domain ranking and chain mixes."""

import random

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.webmodel import cohortrng
from repro.webmodel.chains import PAPER_MONTH, TABLE2_MONTHS, ChainMix, table2_mix
from repro.webmodel.tranco import DomainRanking


def _zipf_draws(exponent, size, count, seed=7):
    """``count`` bounded Zipf ranks from one cohort rank stream."""
    key = cohortrng.stream_key(cohortrng.RANK_STREAM, seed)
    counters = np.arange(count, dtype=np.uint64)
    return cohortrng.zipf_ranks(cohortrng.uniforms(key, counters), exponent, size)


class TestDomainRanking:
    def test_names_deterministic_and_invertible(self):
        ranking = DomainRanking(size=1000, seed=1)
        for rank in (1, 37, 999):
            assert ranking.rank_of(ranking.domain(rank)) == rank

    def test_rank_bounds_enforced(self):
        ranking = DomainRanking(size=100)
        with pytest.raises(ConfigurationError):
            ranking.domain(0)
        with pytest.raises(ConfigurationError):
            ranking.domain(101)

    def test_rank_of_rejects_foreign_names(self):
        with pytest.raises(ConfigurationError):
            DomainRanking().rank_of("www.google.com")

    # Destination draws over the ranking are the cohort's counter-based
    # Zipf stream (the only rank sampler).

    def test_zipf_sampling_is_head_heavy(self):
        samples = _zipf_draws(1.9, 1_000_000, 3000)
        top10_share = float(np.mean(samples <= 10))
        assert top10_share > 0.5
        assert samples.max() <= 1_000_000

    def test_zipf_no_atom_at_bottom(self):
        """A truncated inverse CDF, not clamping: the bottom rank must not
        accumulate the entire tail mass."""
        samples = _zipf_draws(1.08, 1000, 4000)
        bottom = int(np.sum(samples == 1000))
        assert bottom < 40

    def test_zipf_validates_exponent(self):
        with pytest.raises(ValueError, match="exponent must exceed 1"):
            _zipf_draws(1.0, 1000, 10)

    def test_monthly_rank_stays_in_bounds_and_is_stable(self):
        ranking = DomainRanking(size=10_000, seed=3)
        for rank in (1, 50, 9000):
            a = ranking.monthly_rank(rank, 3)
            b = ranking.monthly_rank(rank, 3)
            assert a == b
            assert 1 <= a <= 10_000
        assert ranking.monthly_rank(500, 0) == 500

    def test_top_listing(self):
        ranking = DomainRanking(size=50)
        assert len(ranking.top(10)) == 10
        assert len(ranking.top(100)) == 50

    def test_size_validation(self):
        with pytest.raises(ConfigurationError):
            DomainRanking(size=0)


class TestChainMix:
    def test_table2_rows_sum_to_one(self):
        for month, mix in TABLE2_MONTHS.items():
            assert abs(sum(mix.probabilities()) - 1.0) < 1e-9, month

    def test_paper_month_has_245_icas(self):
        assert table2_mix(PAPER_MONTH).unique_icas == 245

    def test_unknown_month(self):
        with pytest.raises(ConfigurationError):
            table2_mix("Dec. '21")

    def test_invalid_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            ChainMix(0.5, 0.5, 0.5, 0.0, 0.0, 100)

    def test_sampling_matches_mix(self):
        mix = table2_mix("Jun. '22")
        rng = random.Random(11)
        n = 20_000
        counts = {}
        for _ in range(n):
            d = mix.sample_depth(rng)
            counts[d] = counts.get(d, 0) + 1
        for depth, expected in enumerate(mix.probabilities()):
            observed = counts.get(depth, 0) / n
            assert observed == pytest.approx(expected, abs=0.02)

    def test_mean_icas_consistent(self):
        mix = table2_mix("Jun. '22")
        rng = random.Random(5)
        empirical = sum(mix.sample_depth(rng) for _ in range(20_000)) / 20_000
        assert empirical == pytest.approx(mix.mean_icas(), abs=0.05)

    def test_over_80_percent_have_icas(self):
        """The paper's motivation: 'over 80% of the examined servers
        include at least one ICA' (true for all months but Jan)."""
        for month in ("Feb. '22", "Mar. '22", "Apr. '22", "May '22"):
            assert table2_mix(month).p0 < 0.2
