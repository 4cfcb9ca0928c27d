"""Stateful (rule-based) testing of the cache→filter mirror.

Hypothesis drives arbitrary interleavings of the ICA cache's mutation
surface — scalar adds/removes, bulk ``add_many``/``remove_many``, expiry
sweeps and CRL revocations — over a certificate pool that includes
cross-signed variants (distinct certificates sharing one subject), and
checks after every step that the :class:`FilterManager`'s live filter is
exactly the multiset of the cache's fingerprints. This is the net that
catches subject-index clobbering, non-atomic bulk adds, and lost or
double-counted removal notifications.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.cache import ICACache
from repro.core.filter_config import plan_filter
from repro.core.manager import FilterManager
from repro.pki.authority import CertificateAuthority
from repro.pki.revocation import RevocationList

#: Certificates valid on [0, 1000]; sweeps at 2000 expire everything.
_VALID_UNTIL = 1000


def _build_pool():
    """A fixed pool: 8 plain ICAs plus cross-signed variants for the first
    3 subjects (so subject collisions are guaranteed, not incidental)."""
    root_a = CertificateAuthority.create_root(
        "Stateful Root A", "ecdsa-p256", seed=91
    )
    root_b = CertificateAuthority.create_root(
        "Stateful Root B", "ecdsa-p256", seed=92
    )
    pool = []
    subs = []
    for i in range(8):
        sub = root_a.create_subordinate(
            f"Stateful ICA {i}", seed=100 + i,
            not_before=0, not_after=_VALID_UNTIL,
        )
        subs.append(sub)
        pool.append(sub.certificate)
    for sub in subs[:3]:
        pool.append(
            root_b.cross_sign(sub, not_before=0, not_after=_VALID_UNTIL)
        )
    return pool


_POOL = _build_pool()


class CacheFilterMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def setup(self, seed):
        self.cache = ICACache()
        self.manager = FilterManager(
            self.cache,
            plan_filter(
                num_icas=len(_POOL),
                filter_kind="cuckoo",
                fpp=1e-3,
                budget_bytes=None,
                seed=seed,
                headroom=2.0,
            ),
        )

    @rule(index=st.integers(min_value=0, max_value=len(_POOL) - 1))
    def add_one(self, index):
        self.cache.add(_POOL[index])

    @rule(indices=st.lists(
        st.integers(min_value=0, max_value=len(_POOL) - 1), max_size=6
    ))
    def add_many(self, indices):
        self.cache.add_many([_POOL[i] for i in indices])

    @rule(index=st.integers(min_value=0, max_value=len(_POOL) - 1))
    def remove_one(self, index):
        cert = _POOL[index]
        present = cert in self.cache
        assert self.cache.remove(cert) == present

    @rule(indices=st.lists(
        st.integers(min_value=0, max_value=len(_POOL) - 1), max_size=6
    ))
    def remove_many(self, indices):
        certs = [_POOL[i] for i in indices]
        expected = len({c.fingerprint() for c in certs if c in self.cache})
        assert self.cache.remove_many(certs) == expected

    @rule(indices=st.lists(
        st.integers(min_value=0, max_value=len(_POOL) - 1),
        min_size=1, max_size=3,
    ))
    def revoke(self, indices):
        rl = RevocationList()
        for i in indices:
            rl.revoke(_POOL[i])
        expected = sum(
            1 for c in self.cache.certificates() if rl.is_revoked(c)
        )
        assert self.cache.apply_revocations(rl) == expected

    @rule()
    def sweep_everything(self):
        expected = len(self.cache)
        assert self.cache.sweep_expired(at_time=_VALID_UNTIL + 1000) == expected
        assert len(self.cache) == 0

    @rule()
    def sweep_nothing(self):
        assert self.cache.sweep_expired(at_time=10) == 0

    @invariant()
    def filter_mirrors_cache(self):
        if not hasattr(self, "manager"):
            return
        assert len(self.manager.filter) == len(self.cache)
        assert self.manager.consistent_with_cache()

    @invariant()
    def subject_index_complete(self):
        if not hasattr(self, "cache"):
            return
        # Every stored cert must be reachable through its subject, and the
        # preferred variant must be the most recently added survivor.
        by_subject = {}
        for cert in self.cache.certificates():
            by_subject.setdefault(cert.subject, []).append(cert)
        for subject, variants in by_subject.items():
            found = self.cache.lookup_issuers(subject)
            assert {c.fingerprint() for c in found} == {
                c.fingerprint() for c in variants
            }
            assert self.cache.lookup_issuer(subject) is found[-1]

    @invariant()
    def counters_advance_per_item(self):
        if not hasattr(self, "manager"):
            return
        assert self.manager.version == (
            self.manager.inserts + self.manager.deletes + self.manager.rebuilds
        )


TestCacheFilterStateful = CacheFilterMachine.TestCase
TestCacheFilterStateful.settings = settings(
    max_examples=20,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
