"""Tests for filter geometry and the one size model (it drives Figs. 3
and 4, the §5.2 planner and the wire header check)."""

import pytest

from repro.amq import (
    FILTER_REGISTRY,
    FilterParams,
    VacuumFilter,
    canonical_params,
    fingerprint_bits_for_fpp,
    max_capacity_within,
    size_bytes_for,
)
from repro.amq.serialization import build_filter
from repro.amq.sizing import next_power_of_two, remainder_bits_for_fpp
from repro.errors import ConfigurationError
from tests.conftest import make_items

FAMILIES = [cls.name for cls in FILTER_REGISTRY.values()]


class TestNextPowerOfTwo:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 2), (3, 4), (5, 8), (128, 128), (129, 256)]
    )
    def test_values(self, n, expected):
        assert next_power_of_two(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            next_power_of_two(0)


class TestFingerprintBits:
    def test_paper_config(self):
        assert fingerprint_bits_for_fpp(1e-3, 4) == 13

    def test_monotone_in_fpp(self):
        widths = [fingerprint_bits_for_fpp(10**-e) for e in range(1, 7)]
        assert widths == sorted(widths)

    def test_bounds(self):
        assert fingerprint_bits_for_fpp(0.9) >= 2
        assert fingerprint_bits_for_fpp(1e-12) <= 32

    def test_rejects_bad_fpp(self):
        with pytest.raises(ConfigurationError):
            fingerprint_bits_for_fpp(0.0)


class TestRemainderBits:
    def test_paper_config(self):
        assert remainder_bits_for_fpp(1e-3) == 10

    def test_rejects_bad_fpp(self):
        with pytest.raises(ConfigurationError):
            remainder_bits_for_fpp(1.5)


class TestSizeIsTheBuiltPayload:
    """The planner's size is the payload a build actually serializes,
    header fields inside the payload (counting-bloom's count, xor's
    construction header) included."""

    @pytest.mark.parametrize("capacity", [1, 50, 245, 330, 1000])
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_matches_built_payload(self, kind, capacity, rng):
        params = canonical_params(
            FilterParams(capacity=capacity, fpp=1e-3, load_factor=0.9, seed=3)
        )
        filt = build_filter(kind, params, make_items(rng, capacity))
        predicted = size_bytes_for(kind, capacity, params.fpp, params.load_factor)
        assert predicted == len(filt.to_bytes())


class TestSizeBytesFor:
    def test_dispatch(self):
        for kind in FAMILIES:
            assert size_bytes_for(kind, 245, 1e-3, 0.9) > 0

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            size_bytes_for("ribbon", 100, 0.01)

    def test_size_decreases_with_looser_fpp(self):
        for kind in FAMILIES:
            tight = size_bytes_for(kind, 245, 1e-4, 0.9)
            loose = size_bytes_for(kind, 245, 1e-1, 0.9)
            assert loose < tight, kind

    def test_size_grows_with_capacity(self):
        for kind in FAMILIES:
            small = size_bytes_for(kind, 100, 1e-3, 0.9)
            large = size_bytes_for(kind, 1400, 1e-3, 0.9)
            assert large > small, kind

    def test_lower_load_factor_costs_space(self):
        for kind in ("cuckoo", "vacuum", "quotient"):
            dense = size_bytes_for(kind, 245, 1e-3, 0.9)
            sparse = size_bytes_for(kind, 245, 1e-3, 0.3)
            assert sparse >= dense, kind


class TestMaxCapacityWithin:
    def test_paper_budget_holds_300_ics(self):
        """§5.2: within ~550 bytes the structures hold over 300 ICs at
        FPP 0.1%. Our vacuum filter meets this; the power-of-two cuckoo
        needs the budget's upper range."""
        cap = max_capacity_within("vacuum", 550, 1e-3, 0.95)
        assert cap >= 300

    def test_result_is_tight(self):
        budget = 550
        for kind in FAMILIES:
            cap = max_capacity_within(kind, budget, 1e-3, 0.9)
            assert size_bytes_for(kind, cap, 1e-3, 0.9) <= budget
            assert size_bytes_for(kind, cap + 1, 1e-3, 0.9) > budget or cap >= 1

    def test_zero_budget(self):
        assert max_capacity_within("cuckoo", 0, 1e-3) == 0

    def test_tiny_budget_returns_zero_or_one(self):
        assert max_capacity_within("cuckoo", 1, 1e-6) in (0, 1)

    def test_filter_built_at_max_capacity_fits(self, rng):
        cap = max_capacity_within("vacuum", 550, 1e-3, 0.9)
        params = FilterParams(capacity=cap, fpp=1e-3, load_factor=0.9, seed=2)
        f = VacuumFilter(params)
        f.insert_all(make_items(rng, cap, size=16))
        assert f.size_in_bytes() <= 550
