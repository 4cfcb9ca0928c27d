"""Tests for the browsing-session simulator (the Fig. 5 engine)."""

import pytest

from repro.errors import ConfigurationError
from repro.webmodel.flight_probe import flight_sizes
from repro.webmodel.session_sim import BrowsingSessionSimulator, SessionConfig


@pytest.fixture(scope="module")
def result():
    """One medium-sized session shared across assertions (the population
    build dominates, so build it once)."""
    sim = BrowsingSessionSimulator(SessionConfig(seed=2, num_domains=60))
    return sim.run(0)


class TestSessionConfig:
    @pytest.mark.parametrize("num_domains", [0, -1])
    def test_rejects_empty_sessions(self, num_domains):
        with pytest.raises(ConfigurationError, match="num_domains must be >= 1"):
            SessionConfig(num_domains=num_domains)


class TestFlightSizes:
    def test_monotone_in_chain_depth(self):
        sizes = [
            flight_sizes("dilithium3", "ntru-hps-509", n, True)[1] for n in range(4)
        ]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[3]

    def test_ch_independent_of_chain(self):
        ch0 = flight_sizes("dilithium3", "ntru-hps-509", 0, True)[0]
        ch3 = flight_sizes("dilithium3", "ntru-hps-509", 3, True)[0]
        assert ch0 == ch3

    def test_staples_add_bytes(self):
        plain = flight_sizes("dilithium3", "x25519", 1, False)[1]
        stapled = flight_sizes("dilithium3", "x25519", 1, True)[1]
        assert stapled > plain + 3 * 3293  # three extra signatures minimum

    def test_pq_flights_dwarf_conventional(self):
        rsa = flight_sizes("rsa-2048", "x25519", 2, True)[1]
        sphincs = flight_sizes("sphincs-128f", "x25519", 2, True)[1]
        assert sphincs > 10 * rsa


class TestSessionResult:
    def test_all_handshakes_complete(self, result):
        assert result.unique_destinations > 300

    def test_known_rate_in_paper_band(self, result):
        """69-74% in the paper; we allow a modestly wider band for the
        smaller test session."""
        assert 0.6 <= result.known_ica_rate <= 0.85

    def test_reduction_matches_known_rate_without_fps(self, result):
        expected = result.known_ica_rate
        observed = result.ica_reduction_ratio()
        # FPs reduce the reduction; they are rare at 0.1% FPP.
        assert observed <= expected + 1e-9
        assert observed >= expected - 0.05

    def test_suppression_never_invents_icas(self, result):
        for o in result.outcomes:
            assert 0 <= o.icas_sent_first <= o.num_icas
            assert o.suppressed_count == o.num_icas - o.icas_sent_first

    def test_ica_data_extrapolation_scales_with_algorithm(self, result):
        rsa = result.ica_data_bytes("rsa-2048", False)
        dil = result.ica_data_bytes("dilithium3", False)
        sph = result.ica_data_bytes("sphincs-128f", False)
        assert rsa < dil < sph
        # Ratios equal per-cert size ratios exactly.
        assert dil / rsa == pytest.approx(
            result.ica_cert_bytes("dilithium3") / result.ica_cert_bytes("rsa-2048")
        )

    def test_savings_positive(self, result):
        for alg in ("rsa-2048", "dilithium3", "sphincs-128f"):
            assert result.ica_savings_bytes(alg) > 0

    def test_ttfb_suppressed_not_slower_overall(self, result):
        full = result.ttfb_samples("sphincs-128f", False)
        sup = result.ttfb_samples("sphincs-128f", True)
        assert sum(sup) < sum(full)

    def test_ttfb_sample_counts_match_destinations(self, result):
        assert len(result.ttfb_samples("rsa-2048", True)) == (
            result.unique_destinations
        )

    def test_filter_payload_recorded(self, result):
        assert result.filter_payload_bytes > 100
        assert result.filter_lookup_seconds >= 0


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        a = BrowsingSessionSimulator(SessionConfig(seed=5, num_domains=10)).run(0)
        b = BrowsingSessionSimulator(SessionConfig(seed=5, num_domains=10)).run(0)
        assert [o.rank for o in a.outcomes] == [o.rank for o in b.outcomes]
        assert a.known_ica_rate == b.known_ica_rate

    def test_runs_differ(self):
        sim = BrowsingSessionSimulator(SessionConfig(seed=5, num_domains=10))
        a, b = sim.run(0), sim.run(1)
        assert [o.rank for o in a.outcomes] != [o.rank for o in b.outcomes]
