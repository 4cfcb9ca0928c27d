"""Tests for the related-work baseline designs."""

import pytest

from repro.core.baselines import (
    DICTIONARY_ID_BYTES,
    CTLSClient,
    CTLSDictionary,
    PeerCacheFlags,
)
from repro.pki import build_hierarchy


@pytest.fixture(scope="module")
def world():
    h = build_hierarchy("ecdsa-p256", total_icas=20, num_roots=2, seed=51)
    return h, h.ica_certificates()


class TestCTLSDictionary:
    def test_publish_assigns_ids(self, world):
        _, icas = world
        d = CTLSDictionary()
        assert d.publish(icas[:5]) == 5
        assert len(d) == 5
        assert d.epoch == 1

    def test_republish_is_idempotent(self, world):
        _, icas = world
        d = CTLSDictionary()
        d.publish(icas[:5])
        assert d.publish(icas[:5]) == 0
        assert d.epoch == 1

    def test_revocation_bumps_epoch(self, world):
        _, icas = world
        d = CTLSDictionary()
        d.publish(icas[:5])
        assert d.revoke(icas[0])
        assert d.epoch == 2
        assert len(d) == 4
        assert not d.revoke(icas[0])

    def test_sync_costs_metered(self, world):
        _, icas = world
        d = CTLSDictionary()
        d.publish(icas[:10])
        client = CTLSClient(d)
        full = client.sync()
        assert full == d.full_sync_bytes()
        assert d.ledger.full_transfers == 1
        # No change -> no cost.
        assert client.sync() == 0
        # A delta costs proportionally to the change.
        d.publish(icas[10:12])
        delta = client.sync()
        assert 0 < delta < full
        assert d.ledger.delta_transfers == 1

    def test_stale_client_cannot_suppress(self, world):
        h, icas = world
        d = CTLSDictionary()
        d.publish(icas)
        client = CTLSClient(d)
        client.sync()
        chain = h.issue_chain("a.example", h.paths_by_depth(2)[0])
        assert client.suppressed("a.example", chain) == set(chain.ica_fingerprints())
        d.revoke(icas[0])  # epoch bump
        assert client.suppressed("a.example", chain) == set()
        assert client.stale_handshakes == 1
        client.sync()
        assert client.suppressed("a.example", chain)

    def test_wire_cost_constant(self, world):
        _, icas = world
        d = CTLSDictionary()
        d.publish(icas)
        assert CTLSClient(d).advertisement_bytes("x") == DICTIONARY_ID_BYTES


class TestPeerCacheFlags:
    def test_first_contact_never_suppresses(self, world):
        h, _ = world
        flags = PeerCacheFlags()
        chain = h.issue_chain("b.example", h.paths_by_depth(2)[0])
        assert flags.suppressed("b.example", chain) == set()
        assert flags.cold_contacts == 1

    def test_revisit_suppresses(self, world):
        h, _ = world
        flags = PeerCacheFlags()
        chain = h.issue_chain("c.example", h.paths_by_depth(2)[0])
        flags.observe("c.example", chain)
        assert flags.suppressed("c.example", chain) == set(chain.ica_fingerprints())
        assert flags.flag_hits == 1

    def test_rotated_chain_not_suppressed(self, world):
        h, _ = world
        flags = PeerCacheFlags()
        old = h.issue_chain("d.example", h.paths_by_depth(1)[0])
        new = h.issue_chain("d.example", h.paths_by_depth(2)[0])
        flags.observe("d.example", old)
        assert flags.suppressed("d.example", new) == set()

    def test_state_grows_per_peer(self, world):
        h, _ = world
        flags = PeerCacheFlags()
        assert flags.state_bytes() == 0
        for i, path in enumerate(h.paths_by_depth(1)[:4]):
            flags.observe(f"peer{i}.example", h.issue_chain(f"peer{i}.example", path))
        assert flags.peers_tracked() == 4
        assert flags.state_bytes() >= 4 * (len("peer0.example") + 32)

    def test_wire_cost_is_one_byte(self):
        assert PeerCacheFlags().advertisement_bytes("x") == 1


class TestComparisonDriver:
    def test_compare_designs_shapes(self):
        from repro.experiments.baselines import compare_designs, format_baselines

        rows = compare_designs(draws=300, repeat_visits=2)
        by_design = {r.design.split(" ")[0]: r for r in rows}
        amq = by_design["amq-filter"]
        ctls = by_design["ctls-dictionary"]
        flags = by_design["peer-cache-flags"]
        # Wire: flag < dictionary id < filter.
        assert flags.wire_bytes_per_handshake < ctls.wire_bytes_per_handshake
        assert ctls.wire_bytes_per_handshake < amq.wire_bytes_per_handshake
        # Only cTLS pays out-of-band sync.
        assert ctls.oob_sync_bytes > 0 == amq.oob_sync_bytes
        # The filter suppresses at the hot-set rate on first contact;
        # flags only on revisits (here: half the contacts).
        assert amq.ica_suppression_rate > flags.ica_suppression_rate
        assert amq.first_contact_suppression and not flags.first_contact_suppression
        assert "amq-filter" in format_baselines(rows)
