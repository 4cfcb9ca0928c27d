"""Tests for filter planning against the ClientHello budget (§5.2)."""

import pytest

from repro.amq import FILTER_REGISTRY, max_capacity_within
from repro.core.extension import build_extension_payload
from repro.core.filter_config import (
    DEFAULT_FILTER_BUDGET_BYTES,
    clienthello_base_bytes,
    clienthello_filter_budget,
    plan_filter,
)
from repro.errors import ConfigurationError
from repro.tls.client import ClientConfig, TLSClient


class TestClientHelloBaseSizes:
    def test_base_constant_matches_real_encoder(self):
        """The planner's base-size constant must track the actual TLS
        encoder (same assert the module docstring promises)."""
        from repro.pki import build_hierarchy

        store = build_hierarchy("ecdsa-p256", total_icas=1, seed=0).trust_store()
        for kem in ("x25519", "ntru-hps-509", "lightsaber"):
            client = TLSClient(
                ClientConfig(store, kem_name=kem, hostname="example.com")
            )
            measured = len(client.create_client_hello())
            assert measured == clienthello_base_bytes(kem)

    def test_paper_pq_clienthello_range(self):
        """§5.2: PQ ClientHello ~ 890-917 bytes (NTRU / LightSaber)."""
        assert 820 <= clienthello_base_bytes("ntru-hps-509") <= 920
        assert 790 <= clienthello_base_bytes("lightsaber") <= 900


class TestBudget:
    def test_pq_budget_is_papers_550(self):
        assert clienthello_filter_budget("ntru-hps-509") == 550
        assert clienthello_filter_budget("kyber512") == 550

    def test_conventional_budget_is_roughly_12kb(self):
        budget = clienthello_filter_budget("x25519")
        assert 11_000 <= budget <= 13_000

    def test_budget_scales_with_window(self):
        small = clienthello_filter_budget("kyber512", initcwnd_bytes=7300)
        large = clienthello_filter_budget("kyber512", initcwnd_bytes=29200)
        assert small < 550 < large


class TestPlanFilter:
    def test_paper_headline_plan_fits_for_vacuum(self):
        """245 ICAs, FPP 0.1%, LF 0.9 under 550 bytes — feasible with the
        vacuum filter (semi-sorted buckets)."""
        plan = plan_filter(245, filter_kind="vacuum", fpp=1e-3, load_factor=0.9)
        assert plan.predicted_payload_bytes <= DEFAULT_FILTER_BUDGET_BYTES

    def test_oversized_plan_rejected_with_guidance(self):
        with pytest.raises(ConfigurationError, match="max capacity within budget"):
            plan_filter(1400, filter_kind="cuckoo", fpp=1e-4, load_factor=0.9)

    def test_budget_none_always_allowed(self):
        plan = plan_filter(1400, filter_kind="cuckoo", fpp=1e-4, budget_bytes=None)
        assert plan.predicted_payload_bytes > DEFAULT_FILTER_BUDGET_BYTES

    def test_built_filter_matches_prediction(self, rng):
        from tests.conftest import make_items

        plan = plan_filter(245, filter_kind="vacuum", fpp=1e-3, load_factor=0.9)
        filt = plan.build(make_items(rng, 245))
        assert filt.size_in_bytes() == plan.predicted_payload_bytes
        assert len(filt) == 245

    def test_headroom_provisions_extra_capacity(self):
        tight = plan_filter(200, budget_bytes=None, headroom=1.0)
        loose = plan_filter(200, budget_bytes=None, headroom=1.5)
        assert loose.params.capacity == 300
        assert tight.params.capacity == 200

    def test_canonical_params_survive_wire(self):
        from repro.amq import canonical_params

        plan = plan_filter(245, budget_bytes=None)
        assert canonical_params(plan.params) == plan.params

    @pytest.mark.parametrize(
        "kind", [cls.name for cls in FILTER_REGISTRY.values()]
    )
    def test_plan_at_budget_capacity_builds_within_budget(self, kind, rng):
        """§5.2 for every family: the largest plan the planner accepts
        under 550 bytes builds a payload of at most 550 bytes, and its
        predicted extension size is what the real ClientHello carries."""
        from repro.pki import build_hierarchy
        from tests.conftest import make_items

        capacity = max_capacity_within(kind, 550, 1e-3, 0.9)
        plan = plan_filter(
            capacity, filter_kind=kind, fpp=1e-3, load_factor=0.9,
            budget_bytes=550,
        )
        filt = plan.build(make_items(rng, capacity))
        assert len(filt.to_bytes()) <= 550
        assert len(filt.to_bytes()) == plan.predicted_payload_bytes

        store = build_hierarchy("ecdsa-p256", total_icas=1, seed=0).trust_store()
        payload = build_extension_payload(filt)
        with_filter = TLSClient(
            ClientConfig(store, kem_name="kyber512", ica_filter_payload=payload)
        ).create_client_hello()
        without = TLSClient(
            ClientConfig(store, kem_name="kyber512")
        ).create_client_hello()
        assert plan.predicted_extension_bytes == len(with_filter) - len(without)

    def test_extension_bytes_include_framing(self):
        plan = plan_filter(100, filter_kind="vacuum")
        assert plan.predicted_extension_bytes > plan.predicted_payload_bytes

    @pytest.mark.parametrize("bad_icas", [0, -5])
    def test_invalid_ica_count(self, bad_icas):
        with pytest.raises(ConfigurationError):
            plan_filter(bad_icas)

    def test_invalid_headroom(self):
        with pytest.raises(ConfigurationError):
            plan_filter(10, headroom=0.5)


class TestMemoizedBuilds:
    """``FilterPlan.build`` memoizes serialized images in a per-process
    cache; regression coverage for the two ways that used to leak."""

    WIDE_SEED = 2343948629979923722

    def test_wide_seed_is_canonicalized_at_plan_time(self):
        plan = plan_filter(10, budget_bytes=None, seed=self.WIDE_SEED)
        assert plan.params.seed == self.WIDE_SEED & 0xFFFFFFFF

    def test_cold_and_warm_builds_identical(self):
        """The first build of a key must equal every later one — including
        hash behaviour, table bytes and eviction-rng state."""
        from repro.runtime import artifacts

        items = [bytes([i]) * 32 for i in range(10)]
        plan = plan_filter(10, budget_bytes=None, seed=self.WIDE_SEED,
                           headroom=2.0)
        artifacts.FILTER_BUILDS.clear()
        cold = plan.build(items)
        warm = plan.build(items)
        assert cold.params == warm.params
        assert cold.to_bytes() == warm.to_bytes()
        assert all(cold.contains(i) for i in items)
        assert all(warm.contains(i) for i in items)
        assert cold.delete(items[0]) and warm.delete(items[0])

    def test_builds_are_independent_copies(self):
        items = [bytes([i]) * 32 for i in range(6)]
        plan = plan_filter(6, budget_bytes=None, seed=3, headroom=2.0)
        a = plan.build(items)
        b = plan.build(items)
        assert a is not b
        a.delete(items[0])
        assert b.contains(items[0])

    def test_cache_hits_replay_build_metrics(self):
        """amq.* counters must be a pure function of build() calls, not of
        which process warmed the cache first (the serial-vs-parallel
        metrics contract)."""
        from repro import obs
        from repro.runtime import artifacts

        items = [bytes([200 + i]) * 32 for i in range(8)]
        plan = plan_filter(8, budget_bytes=None, seed=41, headroom=2.0)
        artifacts.FILTER_BUILDS.clear()
        obs.disable()
        try:
            with obs.scoped() as cold_scope:
                plan.build(items)
            with obs.scoped() as warm_scope:
                plan.build(items)
            cold = {
                k: v
                for k, v in cold_scope.snapshot()["counters"].items()
                if not k[0].startswith("runtime.artifacts.")
            }
            warm = {
                k: v
                for k, v in warm_scope.snapshot()["counters"].items()
                if not k[0].startswith("runtime.artifacts.")
            }
            assert cold == warm
            assert any(k[0] == "amq.ops" for k in cold)
        finally:
            obs.disable()
