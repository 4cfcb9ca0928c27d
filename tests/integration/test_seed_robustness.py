"""Seed robustness: the calibrated workload is not a single-seed fluke.

The population/browsing calibration targets (Table-2 distinct-ICA band,
§5.3 known-ICA rate and destination count) must hold across independent
seeds, otherwise the headline reproduction would be curve-fitting one
random draw.  A browsing session is one Fig. 5 cohort user.
"""

import pytest

from repro.experiments.fig5 import PAPER_DRAWS_PER_USER
from repro.webmodel.cohort import CohortConfig, first_contact_ranks
from repro.webmodel.population import ICAPopulation, PopulationConfig

SEEDS = (11, 23, 47)


def _session(seed):
    """One paper-scale session's handshake destinations on stream ``seed``."""
    return first_contact_ranks(
        CohortConfig(
            num_users=1, handshakes_per_user=PAPER_DRAWS_PER_USER, seed=seed
        )
    ).tolist()


@pytest.fixture(scope="module", params=SEEDS)
def seeded_population(request):
    return ICAPopulation(PopulationConfig(seed=request.param))


class TestAcrossSeeds:
    def test_hot_set_band(self, seeded_population):
        hot = seeded_population.hot_ica_certificates()
        assert 200 <= len(hot) <= 280

    def test_known_rate_band(self, seeded_population):
        pop = seeded_population
        hot_fps = {c.fingerprint() for c in pop.hot_ica_certificates()}
        uniq = _session(pop.config.seed + 1)
        known = total = 0
        for rank in uniq:
            for cert in pop.path_for_rank(rank).ica_certificates():
                total += 1
                known += cert.fingerprint() in hot_fps
        assert total > 200
        assert 0.6 <= known / total <= 0.85

    def test_destination_count_band(self, seeded_population):
        pop = seeded_population
        uniq = _session(pop.config.seed + 2)
        assert 1300 <= len(uniq) <= 2800

    def test_chain_mix_band(self, seeded_population):
        from repro.webmodel.chains import table2_mix

        pop = seeded_population
        mix = table2_mix(pop.config.month)
        n = 3000
        zero_share = sum(
            1 for rank in range(1, n + 1) if pop.depth_for_rank(rank) == 0
        ) / n
        assert zero_share == pytest.approx(mix.p0, abs=0.04)
