"""Tests for the content-keyed artifact caches."""

import hashlib

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


def _incremental_items_digest(items):
    """The two-updates-per-item form ``items_digest`` must agree with."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(len(item).to_bytes(4, "big"))
        digest.update(item)
    return digest.digest()


class TestItemsDigest:
    @pytest.mark.parametrize(
        "items, hexdigest",
        [
            ([], "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (
                [b"\x01" * 32],
                "97f2f967abeb270f422bff7b98fb7d8c4a4ef81dc077af8a47abc2e1d0a96f28",
            ),
            (
                [b"", b"a", b"\xff" * 300, b"xyz"],
                "d2c17970af9c54ea0e8e2db0b87348a9578c99e932faae575e8c748371d26322",
            ),
        ],
    )
    def test_pinned_to_the_incremental_form(self, items, hexdigest):
        assert artifacts.items_digest(items) == _incremental_items_digest(items)
        assert artifacts.items_digest(iter(items)).hex() == hexdigest

    def test_length_prefix_separates_item_boundaries(self):
        assert artifacts.items_digest([b"ab", b"c"]) != artifacts.items_digest(
            [b"a", b"bc"]
        )


class TestRegistry:
    def test_stats_covers_every_named_cache(self):
        snap = artifacts.stats()
        for name in (
            "cert_decode",
            "signature_bytes",
            "verified_chains",
            "filter_builds",
            "flight_sizes",
            "der_encode",
        ):
            assert name in snap
            assert {"hits", "misses"} <= set(snap[name])

