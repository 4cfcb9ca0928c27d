"""Cross-validation: packet-level simulation vs closed-form flight model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.netsim.flows import simulate_transfer
from repro.netsim.tcp import TCPConfig, flights_needed


class TestAgreementWithClosedForm:
    @pytest.mark.parametrize(
        "payload",
        [1, 1000, 14_600, 14_601, 30_000, 43_800, 43_801, 100_000, 121_906],
    )
    def test_flight_counts_match(self, payload):
        result = simulate_transfer(payload)
        assert result.flights == flights_needed(payload)

    @given(payload=st.integers(min_value=1, max_value=300_000))
    @settings(max_examples=40, deadline=None)
    def test_flight_counts_match_property(self, payload):
        assert simulate_transfer(payload).flights == flights_needed(payload)

    @pytest.mark.parametrize("initcwnd", [4, 10, 32])
    def test_agreement_across_windows(self, initcwnd):
        config = TCPConfig(initcwnd_segments=initcwnd)
        for payload in (5_000, 20_000, 80_000):
            assert simulate_transfer(payload, config=config).flights == (
                flights_needed(payload, config)
            )

    def test_completion_time_tracks_flights(self):
        rtt = 0.08
        result = simulate_transfer(30_000, rtt_s=rtt)
        # Last byte lands after (flights - 1) full RTTs + one half RTT
        # (+ serialization, negligible at 1 Gb/s); the sender's final ACK
        # arrives half an RTT after that.
        expected = (result.flights - 1) * rtt + rtt / 2
        assert result.last_byte_time_s == pytest.approx(expected, rel=0.05)
        assert result.completion_time_s == pytest.approx(
            expected + rtt / 2, rel=0.05
        )


class TestMechanics:
    def test_zero_payload(self):
        result = simulate_transfer(0)
        assert result.flights == 0
        assert result.completion_time_s == 0

    def test_segment_count(self):
        result = simulate_transfer(14_600)
        assert result.segments_sent == 10  # exactly the initial window

    def test_negative_payload_rejected(self):
        with pytest.raises(SimulationError):
            simulate_transfer(-1)


class TestPaperScenario:
    def test_sphincs_flight_timeline(self):
        """The Fig. 1 SPHINCS+-128f server flight (121906 B) needs 4
        flights under the default window; the packet-level sim agrees and
        produces the same timeline the latency model predicts."""
        rtt = 0.05
        result = simulate_transfer(121_906, rtt_s=rtt)
        assert result.flights == 4
        assert result.last_byte_time_s == pytest.approx(3.5 * rtt, rel=0.05)

    def test_suppressed_flight_saves_wall_time(self):
        full = simulate_transfer(121_906, rtt_s=0.05)
        suppressed = simulate_transfer(69_000, rtt_s=0.05)  # leaf+staples only
        assert suppressed.last_byte_time_s < full.last_byte_time_s
