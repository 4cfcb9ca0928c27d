"""Unit-level tests for the extension-study experiment drivers
(warm-up, QUIC comparison, expected-duration table)."""

import pytest

from repro.experiments.estimator_model import (
    expected_duration_table,
    format_expected_durations,
)
from repro.experiments.quic import (
    format_transport_comparison,
    transport_comparison,
)
from repro.experiments.warmup import (
    WarmupCurve,
    format_warmup,
    handshakes_to_reach,
    warmup_curves,
)
from repro.webmodel.population import ICAPopulation, PopulationConfig


@pytest.fixture(scope="module")
def population():
    return ICAPopulation(PopulationConfig(seed=2))


class TestWarmup:
    @pytest.fixture(scope="class")
    def curves(self, population):
        # Two 600-draw sessions reach 360 + 371 unique destinations on
        # the default stream.
        return warmup_curves(
            users=2, draws=600, checkpoint_every=200, population=population
        )

    def test_three_strategies(self, curves):
        assert {c.strategy for c in curves} == {
            "preload-hot", "cold-learning", "preload+learning"
        }

    def test_checkpoints_align(self, curves):
        for curve in curves:
            assert curve.checkpoints == [200, 400, 600]
            assert len(curve.suppression_rates) == 3

    def test_cold_learning_improves(self, curves):
        cold = next(c for c in curves if c.strategy == "cold-learning")
        assert cold.suppression_rates[-1] > cold.suppression_rates[0]

    def test_learning_grows_cache(self, curves):
        by_strategy = {c.strategy: c for c in curves}
        assert (
            by_strategy["preload+learning"].final_cache_size
            >= by_strategy["preload-hot"].final_cache_size
        )
        assert by_strategy["cold-learning"].final_cache_size > 0

    def test_handshakes_to_reach(self):
        curve = WarmupCurve("x", [100, 200, 300], [0.2, 0.5, 0.8], 10)
        assert handshakes_to_reach(curve, 0.5) == 200
        assert handshakes_to_reach(curve, 0.9) is None

    def test_format(self, curves):
        out = format_warmup(curves)
        assert "preload-hot" in out and "@200" in out


class TestQuicDriver:
    def test_rows_cover_algorithms(self):
        rows = transport_comparison(algorithms=("rsa-2048", "dilithium3"))
        assert [r.algorithm for r in rows] == ["rsa-2048", "dilithium3"]

    def test_gains_never_negative(self):
        for row in transport_comparison():
            assert row.tcp_gain >= 0
            assert row.quic_gain >= 0

    def test_quic_at_least_as_many_flights_as_tcp(self):
        """The 3.6 KB amplification budget is always tighter than the
        14.6 KB initcwnd for the first flight."""
        for row in transport_comparison():
            assert row.quic_flights_full >= row.tcp_flights_full

    def test_format(self):
        rows = transport_comparison(algorithms=("rsa-2048",))
        assert "QUIC" in format_transport_comparison(rows)


class TestExpectedDurationDriver:
    def test_grid_dimensions(self):
        rows = expected_duration_table(
            algorithms=("dilithium3",), rtts_s=(0.02, 0.05), epsilons=(1e-3,)
        )
        assert len(rows) == 2

    def test_expected_monotone_in_eps(self):
        rows = expected_duration_table(
            algorithms=("sphincs-128f",), rtts_s=(0.05,),
            epsilons=(1e-4, 1e-3, 1e-2),
        )
        values = [r.expected_ms for r in rows]
        assert values == sorted(values)

    def test_format(self):
        rows = expected_duration_table(algorithms=("dilithium3",))
        assert "expected handshake duration" in format_expected_durations(rows)
