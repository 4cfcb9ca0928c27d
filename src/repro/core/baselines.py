"""Competing ICA-omission designs from the paper's related work (§2).

Implemented so the ablation benchmarks can compare the AMQ approach
against the alternatives the paper argues around:

``CTLSDictionary`` — the Compact-TLS proposal (draft-rescorla-tls-ctls
§5.1.3): client and server share a *pre-established certificate
dictionary* and exchange short identifiers. Perfectly compact on the
wire, but the dictionary must be distributed and kept in sync out of
band; the class meters exactly that synchronization traffic, the cost the
paper says "would require a separate dedicated synchronization mechanism".

``PeerCacheFlags`` — Kampanakis & Kallitsis's caching design: the client
remembers, per server, whether it already holds that server's ICAs and
sets a suppression flag on reconnect. One bit on the wire, but the client
must "retain a specific mapping between ICA certs and the respective
server/peer", and a first contact never suppresses; the class meters the
per-peer state and the cold-contact misses.

Both implement the same duck-typed surface the ablation uses: an
``advertisement_bytes(peer)`` cost, a ``suppressed(peer, chain)``
decision, and bookkeeping counters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.errors import ConfigurationError
from repro.pki.certificate import Certificate
from repro.pki.chain import CertificateChain

#: Dictionary identifiers are short hashes (cTLS uses compact ids).
DICTIONARY_ID_BYTES = 4


@dataclass
class SyncLedger:
    """Counts out-of-band synchronization traffic for dictionary-style
    designs (the hidden cost the paper's filter approach avoids)."""

    full_transfers: int = 0
    delta_transfers: int = 0
    bytes_sent: int = 0

    def record_full(self, nbytes: int) -> None:
        self.full_transfers += 1
        self.bytes_sent += nbytes

    def record_delta(self, nbytes: int) -> None:
        self.delta_transfers += 1
        self.bytes_sent += nbytes


class CTLSDictionary:
    """A shared certificate dictionary with explicit synchronization.

    The *server-side* holds the authoritative dictionary (certificate
    fingerprint -> short id). Clients must download it (full on first
    sync, deltas thereafter); a client whose dictionary epoch is stale
    cannot suppress until it re-syncs.
    """

    def __init__(self, sync_overhead_bytes: int = 64) -> None:
        self._ids: Dict[bytes, int] = {}
        self._members: List[bytes] = []
        self._current_epoch = 0
        self._sync_overhead = sync_overhead_bytes
        self.ledger = SyncLedger()

    # -- authority side -------------------------------------------------------

    def publish(self, certificates: Iterable[Certificate]) -> int:
        """Add certificates to the dictionary; bumps the epoch when
        anything changed. Returns the number of new entries."""
        added = 0
        for cert in certificates:
            fp = cert.fingerprint()
            if fp not in self._ids:
                self._ids[fp] = len(self._members)
                self._members.append(fp)
                added += 1
        if added:
            self._current_epoch += 1
        return added

    def revoke(self, certificate: Certificate) -> bool:
        """Remove an entry; every client must re-sync before suppressing
        against the new epoch (the update problem the paper notes)."""
        fp = certificate.fingerprint()
        if fp not in self._ids:
            return False
        del self._ids[fp]
        self._members.remove(fp)
        self._ids = {f: i for i, f in enumerate(self._members)}
        self._current_epoch += 1
        return True

    @property
    def epoch(self) -> int:
        return self._current_epoch

    def __len__(self) -> int:
        return len(self._members)

    # -- client side ------------------------------------------------------------

    def full_sync_bytes(self) -> int:
        """Cost of a from-scratch dictionary download: every member's
        fingerprint plus framing."""
        return self._sync_overhead + 32 * len(self._members)

    def delta_sync_bytes(self, changed_entries: int) -> int:
        return self._sync_overhead + 32 * max(0, changed_entries)


class CTLSClient:
    """A client participating in a cTLS-dictionary deployment."""

    def __init__(self, dictionary: CTLSDictionary) -> None:
        self._dictionary = dictionary
        self._known: Set[bytes] = set()
        self._synced_epoch = -1
        self.stale_handshakes = 0

    @property
    def synced(self) -> bool:
        return self._synced_epoch == self._dictionary.epoch

    def sync(self) -> int:
        """Bring the local dictionary up to date; returns bytes
        transferred out of band (and meters them on the ledger)."""
        if self.synced:
            return 0
        current = set(self._dictionary._ids)
        if self._synced_epoch < 0:
            nbytes = self._dictionary.full_sync_bytes()
            self._dictionary.ledger.record_full(nbytes)
        else:
            changed = len(current ^ self._known)
            nbytes = self._dictionary.delta_sync_bytes(changed)
            self._dictionary.ledger.record_delta(nbytes)
        self._known = current
        self._synced_epoch = self._dictionary.epoch
        return nbytes

    def advertisement_bytes(self, peer: str) -> int:
        """On-the-wire cost per handshake: the dictionary epoch tag."""
        return DICTIONARY_ID_BYTES

    def suppressed(self, peer: str, chain: CertificateChain) -> Set[bytes]:
        """ICAs the server may omit: only when the client is in sync and
        every ICA is a dictionary member (cTLS substitutes ids, which we
        model as full omission of the cert body)."""
        if not self.synced:
            self.stale_handshakes += 1
            return set()
        fps = set(chain.ica_fingerprints())
        return fps if fps <= self._known else fps & self._known


class PeerCacheFlags:
    """Kampanakis-Kallitsis per-peer ICA caching with a suppression flag."""

    def __init__(self) -> None:
        # peer -> fingerprints of that peer's ICAs, as last observed.
        self._peer_icas: Dict[str, Set[bytes]] = {}
        self.cold_contacts = 0
        self.flag_hits = 0

    def observe(self, peer: str, chain: CertificateChain) -> None:
        self._peer_icas[peer] = set(chain.ica_fingerprints())

    def advertisement_bytes(self, peer: str) -> int:
        """One flag bit, byte-aligned on the wire."""
        return 1

    def suppressed(self, peer: str, chain: CertificateChain) -> Set[bytes]:
        known = self._peer_icas.get(peer)
        if known is None:
            self.cold_contacts += 1
            return set()
        fps = set(chain.ica_fingerprints())
        if fps <= known:
            self.flag_hits += 1
            return fps
        # Chain rotated under the peer: the stale flag would have caused a
        # failed handshake; model the conservative non-suppression.
        return set()

    def state_bytes(self) -> int:
        """Client memory: the per-peer mapping the paper criticizes the
        design for needing (peer name + 32 B per ICA fingerprint)."""
        return sum(
            len(peer.encode()) + 32 * len(fps)
            for peer, fps in self._peer_icas.items()
        )

    def peers_tracked(self) -> int:
        return len(self._peer_icas)
