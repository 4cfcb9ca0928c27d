"""Tests for the content-keyed artifact caches."""

import pytest

from repro.runtime import artifacts
from repro.runtime.artifacts import ContentCache, EventCounter


class TestContentCache:
    def test_hit_miss_counters(self):
        cache = ContentCache("t", max_entries=8)
        assert cache.get("k") is None
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.snapshot() == {"hits": 1, "misses": 1, "size": 1}

    def test_lru_bound(self):
        cache = ContentCache("t", max_entries=3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert cache.get(0) is None
        assert cache.get(9) == 9

    def test_lru_recency(self):
        cache = ContentCache("t", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes the eviction victim
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_export_import_roundtrip(self):
        src = ContentCache("src", max_entries=8)
        src.put("x", 1)
        src.put("y", 2)
        dst = ContentCache("dst", max_entries=8)
        assert dst.import_entries(src.export()) == 2
        assert dst.get("x") == 1 and dst.get("y") == 2

    def test_reset_stats_keeps_entries(self):
        cache = ContentCache("t", max_entries=8)
        cache.put("k", 1)
        cache.get("k")
        cache.reset_stats()
        assert cache.snapshot() == {"hits": 0, "misses": 0, "size": 1}
        assert cache.get("k") == 1


class TestEventCounter:
    def test_counts_and_reset(self):
        c = EventCounter("e")
        c.record_hit()
        c.record_miss()
        c.record_miss()
        assert c.snapshot() == {"hits": 1, "misses": 2}
        c.reset()
        assert c.snapshot() == {"hits": 0, "misses": 0}


class TestDisableSwitch:
    def test_disabled_cache_is_pass_through(self):
        cache = ContentCache("t", max_entries=8)
        cache.put("k", 1)
        with artifacts.disabled():
            assert not artifacts.enabled()
            assert cache.get("k") is None  # bypassed, not dropped
            cache.put("k2", 2)
            assert len(cache) == 1  # put ignored
        assert artifacts.enabled()
        assert cache.get("k") == 1

    def test_non_disableable_cache_stays_active(self):
        cache = ContentCache("t", max_entries=8, disableable=False)
        with artifacts.disabled():
            cache.put("k", 1)
            assert cache.get("k") == 1

    def test_disabled_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with artifacts.disabled():
                raise RuntimeError("x")
        assert artifacts.enabled()


class TestRegistry:
    def test_stats_covers_every_named_cache(self):
        snap = artifacts.stats()
        for name in (
            "cert_decode",
            "signature_bytes",
            "verified_chains",
            "filter_builds",
            "credentials",
            "flight_sizes",
            "der_encode",
        ):
            assert name in snap
            assert {"hits", "misses"} <= set(snap[name])

    def test_export_shippable_only_ships_shippable(self):
        key = ("__test_export__", "kem", 1, False)
        artifacts.FLIGHT_SIZES.put(key, (1, 2))
        artifacts.CERT_DECODE.put(b"__test_export__", object())
        try:
            shipped = artifacts.export_shippable()
            assert "flight_sizes" in shipped
            assert "cert_decode" not in shipped
            assert (key, (1, 2)) in shipped["flight_sizes"]
        finally:
            artifacts.FLIGHT_SIZES._entries.pop(key, None)
            artifacts.CERT_DECODE._entries.pop(b"__test_export__", None)

    def test_import_entries_ignores_unknown_names(self):
        assert artifacts.import_entries({"no_such_cache": [("k", 1)]}) == 0
