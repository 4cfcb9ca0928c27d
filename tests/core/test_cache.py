"""Tests for the ICA cache."""

import pytest

from repro.core.cache import ICACache
from repro.errors import CertificateError
from repro.pki import IntermediatePreload, RevocationList, build_hierarchy
from repro.pki.authority import CertificateAuthority


@pytest.fixture(scope="module")
def world():
    h = build_hierarchy("ecdsa-p256", total_icas=20, num_roots=2, seed=4)
    return h, h.ica_certificates()


@pytest.fixture(scope="module")
def cross_signed():
    """One subordinate CA under root A, cross-signed by root B: two
    distinct certificates sharing a subject and key pair."""
    root_a = CertificateAuthority.create_root("XS Root A", "ecdsa-p256", seed=31)
    root_b = CertificateAuthority.create_root("XS Root B", "ecdsa-p256", seed=32)
    sub = root_a.create_subordinate("XS Intermediate", seed=33)
    original = sub.certificate
    cross = root_b.cross_sign(sub)
    assert original.subject == cross.subject
    assert original.fingerprint() != cross.fingerprint()
    return original, cross


class TestMutation:
    def test_add_and_contains(self, world):
        _, icas = world
        cache = ICACache()
        assert cache.add(icas[0])
        assert icas[0] in cache
        assert len(cache) == 1

    def test_duplicate_add_returns_false(self, world):
        _, icas = world
        cache = ICACache()
        cache.add(icas[0])
        assert not cache.add(icas[0])
        assert len(cache) == 1

    def test_remove(self, world):
        _, icas = world
        cache = ICACache()
        cache.add(icas[0])
        assert cache.remove(icas[0])
        assert icas[0] not in cache
        assert not cache.remove(icas[0])

    def test_rejects_leaves_and_roots(self, world):
        h, _ = world
        cache = ICACache()
        with pytest.raises(CertificateError):
            cache.add(h.roots[0].certificate)
        leaf = h.issue_chain("x.example").leaf
        with pytest.raises(CertificateError):
            cache.add(leaf)

    def test_load_preload(self, world):
        _, icas = world
        cache = ICACache()
        added = cache.load_preload(IntermediatePreload(icas))
        assert added == len(icas)
        assert cache.load_preload(IntermediatePreload(icas)) == 0

    def test_observe_chain(self, world):
        h, _ = world
        chain = h.issue_chain("y.example", h.paths_by_depth(2)[0])
        cache = ICACache()
        assert cache.observe_chain(chain) == 2
        assert cache.observe_chain(chain) == 0


class TestMaintenance:
    def test_sweep_expired(self):
        h = build_hierarchy("ecdsa-p256", total_icas=4, num_roots=1, seed=9)
        root = h.roots[0]
        fresh = root.create_subordinate("fresh-ica", seed=100)
        stale = root.create_subordinate("stale-ica", seed=101, not_before=0, not_after=10)
        cache = ICACache()
        cache.add(fresh.certificate)
        cache.add(stale.certificate)
        assert cache.sweep_expired(at_time=100) == 1
        assert fresh.certificate in cache
        assert stale.certificate not in cache

    def test_apply_revocations(self, world):
        _, icas = world
        cache = ICACache()
        cache.add(icas[0])
        cache.add(icas[1])
        rl = RevocationList()
        rl.revoke(icas[0])
        assert cache.apply_revocations(rl) == 1
        assert icas[0] not in cache


class TestQueriesAndListeners:
    def test_lookup_issuer(self, world):
        _, icas = world
        cache = ICACache()
        cache.add(icas[3])
        assert cache.lookup_issuer(icas[3].subject) is icas[3]
        assert cache.lookup_issuer("unknown") is None

    def test_fingerprints_match_certificates(self, world):
        _, icas = world
        cache = ICACache()
        for cert in icas[:5]:
            cache.add(cert)
        assert sorted(cache.fingerprints()) == sorted(
            c.fingerprint() for c in cache.certificates()
        )

    def test_listeners_fire(self, world):
        _, icas = world
        cache = ICACache()
        added, removed = [], []
        cache.subscribe(on_add_batch=added.append, on_remove_batch=removed.append)
        cache.add(icas[0])
        cache.add(icas[1])
        cache.remove(icas[0])
        assert [[c.fingerprint() for c in batch] for batch in added] == [
            [icas[0].fingerprint()],
            [icas[1].fingerprint()],
        ]
        assert removed == [[icas[0]]]

    def test_listener_not_fired_on_duplicate(self, world):
        _, icas = world
        cache = ICACache()
        added = []
        cache.subscribe(on_add_batch=added.append)
        cache.add(icas[0])
        cache.add(icas[0])
        cache.add_many([icas[0]])
        assert added == [[icas[0]]]


class TestCrossSignedVariants:
    """Regression: the subject index used to hold one cert per subject, so
    a cross-signed variant silently clobbered its sibling and removing the
    surviving entry orphaned the other (unreachable via lookup, yet still
    counted and filtered)."""

    def test_both_variants_stored(self, cross_signed):
        original, cross = cross_signed
        cache = ICACache()
        assert cache.add(original)
        assert cache.add(cross)
        assert len(cache) == 2
        assert original in cache and cross in cache
        assert sorted(cache.fingerprints()) == sorted(
            [original.fingerprint(), cross.fingerprint()]
        )

    def test_lookup_issuer_prefers_newest_variant(self, cross_signed):
        original, cross = cross_signed
        cache = ICACache()
        cache.add(original)
        cache.add(cross)
        assert cache.lookup_issuer(original.subject) is cross
        assert cache.lookup_issuers(original.subject) == [original, cross]

    def test_removing_newer_variant_keeps_older_reachable(self, cross_signed):
        original, cross = cross_signed
        cache = ICACache()
        cache.add(original)
        cache.add(cross)
        assert cache.remove(cross)
        assert cache.lookup_issuer(original.subject) is original
        assert original in cache

    def test_removing_older_variant_keeps_newer_reachable(self, cross_signed):
        original, cross = cross_signed
        cache = ICACache()
        cache.add(original)
        cache.add(cross)
        assert cache.remove(original)
        assert cache.lookup_issuer(original.subject) is cross

    def test_removing_last_variant_clears_subject(self, cross_signed):
        original, cross = cross_signed
        cache = ICACache()
        cache.add(original)
        cache.add(cross)
        cache.remove(original)
        cache.remove(cross)
        assert cache.lookup_issuer(original.subject) is None
        assert cache.lookup_issuers(original.subject) == []


class TestAtomicAddMany:
    """Regression: ``add_many`` used to index eagerly, so a mid-batch
    validation error left a half-applied batch in the cache (and, once
    listeners fired, a filter diverging from it)."""

    def test_invalid_item_leaves_cache_untouched(self, world):
        h, icas = world
        cache = ICACache()
        batches = []
        cache.subscribe(on_add_batch=batches.append)
        with pytest.raises(CertificateError):
            cache.add_many([icas[0], h.roots[0].certificate, icas[1]])
        assert len(cache) == 0
        assert icas[0] not in cache
        assert batches == []

    def test_valid_batch_still_lands_as_one_batch(self, world):
        _, icas = world
        cache = ICACache()
        batches = []
        cache.subscribe(on_add_batch=batches.append)
        assert cache.add_many(icas[:4]) == 4
        assert [len(b) for b in batches] == [4]


class TestBatchRemoval:
    def test_remove_many_counts_present_only(self, world):
        _, icas = world
        cache = ICACache()
        cache.add_many(icas[:3])
        assert cache.remove_many([icas[0], icas[5], icas[2]]) == 2
        assert len(cache) == 1

    def test_remove_batch_listener_sees_one_batch(self, world):
        _, icas = world
        cache = ICACache()
        cache.add_many(icas[:4])
        batches = []
        cache.subscribe(on_remove_batch=batches.append)
        cache.remove_many(icas[:3])
        assert batches == [list(icas[:3])]

    def test_single_remove_delivers_one_element_batch(self, world):
        _, icas = world
        cache = ICACache()
        cache.add(icas[0])
        batches = []
        cache.subscribe(on_remove_batch=batches.append)
        cache.remove(icas[0])
        assert batches == [[icas[0]]]

    def test_sweep_and_revocation_batch_once(self, world):
        h = build_hierarchy("ecdsa-p256", total_icas=6, num_roots=1, seed=19)
        icas = h.ica_certificates()
        root = h.roots[0]
        stale = root.create_subordinate(
            "stale-a", seed=301, not_before=0, not_after=10
        )
        stale2 = root.create_subordinate(
            "stale-b", seed=302, not_before=0, not_after=10
        )
        cache = ICACache()
        cache.add_many([stale.certificate, stale2.certificate, icas[0], icas[1]])
        batches = []
        cache.subscribe(on_remove_batch=batches.append)
        assert cache.sweep_expired(at_time=100) == 2
        rl = RevocationList()
        rl.revoke(icas[0])
        rl.revoke(icas[1])
        assert cache.apply_revocations(rl) == 2
        assert [len(b) for b in batches] == [2, 2]
        assert len(cache) == 0
