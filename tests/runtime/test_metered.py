"""Metered fan-out: per-item metric capture and deterministic merging."""

import pytest

from repro import obs
from repro.obs.export import deterministic_counters
from repro.runtime import artifacts
from repro.runtime.parallel import parallel_map, run_metered


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    artifacts.clear()
    yield
    obs.disable()
    artifacts.clear()


def record_item(item: int) -> int:
    obs.inc("work.items")
    obs.inc("work.value", item)
    obs.observe("work.size", float(item))
    return item * 2


def touch_cache(item: int) -> int:
    key = ("metered-test", item % 2)
    cached = artifacts.FLIGHT_SIZES.get(key)
    if cached is None:
        artifacts.FLIGHT_SIZES.put(key, item)
    return item


class TestRunMetered:
    def test_returns_result_and_delta_snapshot(self):
        result, snap = run_metered(record_item, 3)
        assert result == 6
        assert snap["counters"][("work.items", ())] == 1
        assert snap["counters"][("work.value", ())] == 3

    def test_captures_even_when_disabled(self):
        assert not obs.enabled()
        _, snap = run_metered(record_item, 5)
        assert snap["counters"][("work.value", ())] == 5
        assert obs.registry() is None

    def test_does_not_leak_into_parent_registry(self):
        reg = obs.enable()
        run_metered(record_item, 4)
        assert reg.counter("work.items") == 0

    def test_records_artifact_cache_deltas(self):
        _, miss_snap = run_metered(touch_cache, 1)
        _, hit_snap = run_metered(touch_cache, 3)  # same key: 3 % 2 == 1
        labels = (("cache", "flight_sizes"),)
        assert miss_snap["counters"][("runtime.artifacts.misses", labels)] == 1
        assert ("runtime.artifacts.hits", labels) not in miss_snap["counters"]
        assert hit_snap["counters"][("runtime.artifacts.hits", labels)] == 1


class TestMeteredParallelMap:
    def _merged_counters(self, jobs):
        obs.disable()
        reg = obs.enable()
        results = parallel_map(record_item, range(8), jobs=jobs, metered=True)
        assert results == [i * 2 for i in range(8)]
        return deterministic_counters(reg.snapshot())

    def test_serial_and_parallel_merge_identically(self):
        serial = self._merged_counters(jobs=1)
        parallel = self._merged_counters(jobs=2)
        assert serial == parallel
        assert serial["work.items{}"] == 8
        assert serial["work.value{}"] == sum(range(8))

    def test_histograms_merge_in_item_order(self):
        reg = obs.enable()
        parallel_map(record_item, range(6), jobs=2, metered=True)
        count, total, minimum, maximum, samples = reg.histogram(
            "work.size"
        ).state()
        assert count == 6
        assert samples == [float(i) for i in range(6)]
        assert (minimum, maximum) == (0.0, 5.0)

    def test_unmetered_map_records_nothing(self):
        reg = obs.enable()
        parallel_map(record_item, range(4), jobs=1)
        # Items recorded into the parent registry directly (no scoping),
        # so the counters exist — but no snapshots were shipped/merged
        # twice. This guards against double-counting.
        assert reg.counter("work.items") == 4
