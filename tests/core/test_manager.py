"""Tests for dynamic filter maintenance (the §4.2 requirement)."""

import pytest

from repro.core.cache import ICACache
from repro.core.filter_config import plan_filter
from repro.core.manager import FilterManager
from repro.pki import build_hierarchy


@pytest.fixture(scope="module")
def icas():
    h = build_hierarchy("ecdsa-p256", total_icas=60, num_roots=3, seed=12)
    return h.ica_certificates()


def make_manager(icas, kind="cuckoo", capacity=80, preloaded=40):
    cache = ICACache()
    for cert in icas[:preloaded]:
        cache.add(cert)
    plan = plan_filter(capacity, filter_kind=kind, budget_bytes=None, seed=3)
    return cache, FilterManager(cache, plan)


class TestMirroring:
    def test_initial_filter_holds_cache(self, icas):
        cache, mgr = make_manager(icas)
        assert len(mgr.filter) == len(cache) == 40
        assert mgr.consistent_with_cache()

    def test_add_mirrors_into_filter(self, icas):
        cache, mgr = make_manager(icas)
        cache.add(icas[50])
        assert mgr.filter.contains(icas[50].fingerprint())
        assert mgr.inserts == 1

    def test_remove_mirrors_into_filter(self, icas):
        cache, mgr = make_manager(icas)
        target = icas[5]
        cache.remove(target)
        assert mgr.deletes == 1
        assert len(mgr.filter) == 39
        assert mgr.consistent_with_cache()

    def test_churn_stays_consistent(self, icas):
        cache, mgr = make_manager(icas, preloaded=30)
        for cert in icas[30:60]:
            cache.add(cert)
        for cert in icas[:30]:
            cache.remove(cert)
        assert len(mgr.filter) == 30
        assert mgr.consistent_with_cache()
        assert mgr.rebuilds == 0


class TestBatchCounters:
    """Regression: batch mutations must advance ``inserts``/``version``
    item-by-item, never per call, so Table 2 / Fig. 5 tallies do not
    depend on whether the cache was fed one cert at a time or in bulk."""

    def test_bulk_load_counts_per_item(self, icas):
        cache, mgr = make_manager(icas, preloaded=0)
        assert mgr.version == 0
        assert cache.add_many(icas[:30]) == 30
        assert mgr.inserts == 30
        assert mgr.version == 30
        assert len(mgr.filter) == 30
        assert mgr.consistent_with_cache()

    def test_batch_and_scalar_adds_count_identically(self, icas):
        _, mgr_batch = make_manager(icas, preloaded=0)
        cache_scalar, mgr_scalar = make_manager(icas, preloaded=0)
        mgr_batch._cache.add_many(icas[:25])
        for cert in icas[:25]:
            cache_scalar.add(cert)
        assert mgr_batch.inserts == mgr_scalar.inserts == 25
        assert mgr_batch.version == mgr_scalar.version
        # Same filter on the wire, whichever path performed the update.
        assert mgr_batch.filter.to_bytes() == mgr_scalar.filter.to_bytes()

    def test_duplicate_bulk_adds_do_not_count(self, icas):
        cache, mgr = make_manager(icas, preloaded=0)
        cache.add_many(icas[:20])
        assert cache.add_many(icas[:20]) == 0
        assert mgr.inserts == 20
        assert mgr.version == 20

    def test_bulk_overflow_rebuilds_consistently(self, icas):
        cache, mgr = make_manager(icas, capacity=10, preloaded=0)
        cache.add_many(icas)  # 60 certs into a 10-capacity plan
        assert mgr.rebuilds >= 1
        assert mgr.inserts == len(icas)
        assert len(mgr.filter) == len(icas)
        assert mgr.consistent_with_cache()


class TestRebuilds:
    def test_overflow_triggers_rebuild(self, icas):
        cache, mgr = make_manager(icas, capacity=10, preloaded=0)
        for cert in icas:
            cache.add(cert)
        assert mgr.rebuilds >= 1
        assert mgr.consistent_with_cache()
        assert len(mgr.filter) == len(icas)

    def test_bloom_delete_forces_rebuild(self, icas):
        cache, mgr = make_manager(icas, kind="bloom", preloaded=20)
        cache.remove(icas[0])
        assert mgr.rebuilds == 1
        assert mgr.consistent_with_cache()
        assert not any(
            mgr.filter.contains(icas[0].fingerprint())
            for _ in range(1)
        ) or True  # fp possible; consistency is the contract

    def test_rebuild_records_span_histogram(self, icas):
        # The rebuild duration must land in the metrics export (the
        # fig5 metered arm's --metrics-out) as a labeled histogram.
        from repro import obs

        cache, mgr = make_manager(icas, capacity=10, preloaded=0)
        with obs.scoped() as reg:
            cache.add_many(icas)  # one overflowing batch: one rebuild
        assert mgr.rebuilds == 1
        hist = reg.histogram(
            "core.filter_manager.rebuild.seconds", (("backend", "cuckoo"),)
        )
        assert hist is not None and hist.count == 1
        # The nested bulk-build span records under the same registry.
        build = reg.histogram("amq.build.seconds", (("backend", "cuckoo"),))
        assert build is not None and build.count == 1


class TestXorBufferedMutations:
    """Regression: the static xor backend buffers mirrored inserts and
    reconstructs once, on the next probe — an add->probe->add->probe
    sequence must cost exactly one internal construction per dirty
    transition, never one per insert (rebuild thrash). The internal
    construction count is observable as the ``amq.xor.attempts_per_rebuild``
    histogram's sample count; ``mgr.rebuilds`` stays 0 throughout because
    these are in-place reconstructions, not manager-level replans."""

    def test_add_probe_cycles_rebuild_once_per_dirty_transition(self, icas):
        from repro import obs

        cache, mgr = make_manager(icas, kind="xor", preloaded=20)
        probe = icas[0].fingerprint()
        with obs.scoped() as reg:
            hist = lambda: reg.histogram("amq.xor.attempts_per_rebuild")

            cache.add(icas[21])  # buffered: no construction yet
            assert hist() is None

            assert mgr.filter.contains(icas[21].fingerprint())
            assert hist().count == 1  # first probe pays the build

            for _ in range(5):
                mgr.filter.contains(probe)
            assert hist().count == 1  # clean filter: probes are free

            cache.add(icas[22])
            cache.add(icas[23])  # both buffer into the same dirty window
            assert hist().count == 1

            assert mgr.filter.contains(icas[23].fingerprint())
            for _ in range(5):
                mgr.filter.contains(probe)
            assert hist().count == 2  # one more build, not one per add

        assert mgr.rebuilds == 0
        assert mgr.consistent_with_cache()
