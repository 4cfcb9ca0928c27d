"""Tests for the Fig. 5 browsing sessions: one cohort user per session."""

import pytest

from repro.core.extension import parse_extension_payload
from repro.errors import ConfigurationError
from repro.experiments import fig5
from repro.pki.algorithms import get_signature_algorithm
from repro.pki.certificate import DEFAULT_ATTRIBUTE_BYTES
from repro.webmodel.cohort import CohortConfig, CohortEngine, first_contact_ranks
from repro.webmodel.flight_probe import flight_sizes


@pytest.fixture(scope="module")
def engine():
    """Two medium-sized sessions over one population (the population
    build dominates, so build it once)."""
    return CohortEngine(fig5.fig5_config(users=2, draws=1_200, seed=2))


@pytest.fixture(scope="module")
def result(engine):
    return engine.run()


class TestSessionSize:
    @pytest.mark.parametrize("draws", [0, -1])
    def test_rejects_empty_sessions(self, draws):
        with pytest.raises(
            ConfigurationError, match="handshakes_per_user must be >= 1"
        ):
            CohortConfig(handshakes_per_user=draws)


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


class TestSessionOutcome:
    def test_all_handshakes_complete(self, result):
        assert result.columns.handshakes.min() > 300
        stats = result.stats
        assert stats.completed + stats.completed_after_retry == stats.handshakes

    def test_known_rate_in_paper_band(self, result):
        """69-74% in the paper; we allow a modestly wider band for the
        smaller test sessions."""
        assert 0.6 <= result.stats.known_ica_rate <= 0.85

    def test_reduction_matches_known_rate_without_fps(self, result):
        volume = fig5.data_volume(result)
        expected = volume.mean_known_rate
        observed = volume.mean_reduction
        # FPs reduce the reduction; they are rare at 0.1% FPP.
        assert observed <= expected + 1e-9
        assert observed >= expected - 0.05

    def test_suppression_never_invents_icas(self, result, engine):
        columns = result.columns
        assert (columns.icas_sent_first >= 0).all()
        assert (columns.icas_sent_first <= columns.icas_encountered).all()
        facts = engine.facts
        assert ((facts.nhits >= 0) & (facts.nhits <= facts.depth)).all()

    def test_ica_data_extrapolation_scales_with_algorithm(self, result):
        rows = {row.algorithm: row for row in fig5.data_volume(result).rows}
        rsa, dil, sph = (
            rows[alg].mb_without for alg in ("rsa-2048", "dilithium3", "sphincs-128f")
        )
        assert rsa < dil < sph
        # Ratios equal per-cert size ratios exactly.
        per_cert = {
            alg: get_signature_algorithm(alg).auth_bytes_per_certificate(
                DEFAULT_ATTRIBUTE_BYTES
            )
            for alg in ("rsa-2048", "dilithium3")
        }
        assert dil / rsa == pytest.approx(
            per_cert["dilithium3"] / per_cert["rsa-2048"]
        )

    def test_savings_positive(self, result):
        for row in fig5.data_volume(result).rows:
            assert row.mb_saved > 0

    def test_ttfb_suppressed_not_slower_overall(self, engine):
        full, sup = fig5.ttfb_scenarios(
            engine, ("sphincs-128f",), lookup_s=1e-7
        )
        assert not full.suppressed and sup.suppressed
        assert sup.summary.mean < full.summary.mean

    def test_ttfb_sample_counts_match_destinations(self, engine, result):
        for scenario in fig5.ttfb_scenarios(engine, ("rsa-2048",), lookup_s=0.0):
            assert scenario.summary.count == result.stats.handshakes

    def test_filter_payload_recorded(self, engine, result):
        assert result.stats.filter_payload_bytes == len(engine.payload) > 100
        assert fig5.lookup_seconds(parse_extension_payload(engine.payload)) >= 0


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        config = fig5.fig5_config(users=2, draws=40, seed=5)
        assert CohortEngine(config).run() == CohortEngine(config).run()

    def test_runs_differ(self):
        config = fig5.fig5_config(users=2, draws=40, seed=5)
        assert (
            first_contact_ranks(config, 0).tolist()
            != first_contact_ranks(config, 1).tolist()
        )
