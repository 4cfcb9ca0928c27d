"""Tests for the Fig. 5 browsing draw: one cohort user's destination
stream (first-party domains and third-party origins alike)."""

from repro.experiments.fig5 import PAPER_DRAWS_PER_USER
from repro.webmodel import cohortrng
from repro.webmodel.cohort import (
    CohortConfig,
    cohort_stream_keys,
    destination_ranks,
    first_contact_ranks,
)
from repro.webmodel.tranco import DomainRanking


def _session(seed, draws=30):
    """One user's handshake destinations, in first-contact order."""
    return first_contact_ranks(
        CohortConfig(num_users=1, handshakes_per_user=draws, seed=seed)
    ).tolist()


class TestSessionGeneration:
    def test_session_has_visits(self):
        visits = _session(1, draws=20)
        assert visits
        assert all(rank >= 1 for rank in visits)

    def test_deterministic_given_seed(self):
        assert _session(7) == _session(7)

    def test_seeds_differ(self):
        assert _session(7) != _session(8)

    def test_domain_names_match_ranking(self):
        ranking = DomainRanking()
        for rank in _session(3, draws=200):
            assert ranking.rank_of(ranking.domain(rank)) == rank


class TestPaperCalibration:
    """§5.3's observable session shape."""

    def test_unique_destinations_near_1950(self):
        """'the simulator loaded secure content from ~1950 unique
        destinations' per 200-domain session (band: 1500-2600)."""
        counts = [len(_session(seed, PAPER_DRAWS_PER_USER)) for seed in (3, 4, 5)]
        mean = sum(counts) / len(counts)
        assert 1500 <= mean <= 2600

    def test_unique_destination_order_is_first_contact(self):
        config = CohortConfig(num_users=1, handshakes_per_user=40, seed=3)
        draws = destination_ranks(
            config,
            cohort_stream_keys(config.seed),
            cohortrng.user_counters(0, config.handshakes_per_user),
        ).tolist()
        uniq = _session(3, draws=40)
        assert len(uniq) == len(set(uniq))
        assert uniq[0] == draws[0]
        assert uniq == sorted(set(draws), key=draws.index)
