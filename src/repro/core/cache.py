"""Client-side ICA certificate cache.

The set *S* of Fig. 2: "the client maintains a list of known intermediate
certificates (e.g., in a separate cache)". Entries arrive from a preload
list (Mozilla-style) and from ICAs observed in completed handshakes, and
leave on expiry or revocation. The cache exposes the two views the rest
of the pipeline needs: fingerprints (filter items) and subject-name lookup
(path completion).

Cross-signed intermediates are first-class: the Web PKI routinely holds
several distinct certificates for one subject/key (a CA re-anchored under
a second root), so the subject index maps each subject to *every* cached
certificate carrying it, keyed by fingerprint in insertion order.
:meth:`lookup_issuer` prefers the most recently added variant — under
churn the newest cross-sign is the one most likely to still be valid —
and removing one variant never makes its siblings unreachable.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import CertificateError
from repro.pki.certificate import Certificate
from repro.pki.chain import CertificateChain
from repro.pki.store import IntermediatePreload


class ICACache:
    """Known-intermediate store with change notification.

    ``on_add_batch``/``on_remove_batch`` callbacks let the
    :class:`~repro.core.manager.FilterManager` mirror every mutation into
    the live AMQ filter, which is what makes the paper's "dynamic updates"
    requirement (§4.2) concrete.
    """

    def __init__(self) -> None:
        self._by_fingerprint: Dict[bytes, Certificate] = {}
        #: subject -> {fingerprint -> cert} in insertion order; one subject
        #: can hold several cross-signed variants.
        self._by_subject: Dict[str, Dict[bytes, Certificate]] = {}
        self._add_listeners: List[Callable[[List[Certificate]], None]] = []
        self._remove_listeners: List[Callable[[List[Certificate]], None]] = []

    # -- listeners -----------------------------------------------------------

    def subscribe(
        self,
        on_add_batch: Optional[Callable[[List[Certificate]], None]] = None,
        on_remove_batch: Optional[Callable[[List[Certificate]], None]] = None,
    ) -> None:
        """Register change listeners.

        ``on_add_batch`` receives the *whole list* of newly-added
        certificates when a bulk mutation (:meth:`add_many`,
        :meth:`load_preload`, :meth:`observe_chain`) lands, letting
        subscribers use the filters' vectorized ``insert_batch`` path; a
        single :meth:`add` delivers a one-element list. ``on_remove_batch``
        mirrors that contract for removals: :meth:`remove_many` (and the
        expiry/revocation sweeps built on it) deliver one list per sweep,
        a single :meth:`remove` a one-element list.
        """
        if on_add_batch is not None:
            self._add_listeners.append(on_add_batch)
        if on_remove_batch is not None:
            self._remove_listeners.append(on_remove_batch)

    def _notify_added(self, certs: List[Certificate]) -> None:
        for listener in self._add_listeners:
            listener(certs)

    def _notify_removed(self, certs: List[Certificate]) -> None:
        for listener in self._remove_listeners:
            listener(certs)

    # -- mutation ------------------------------------------------------------

    def _validate(self, cert: Certificate) -> None:
        if not cert.is_ca or cert.is_self_signed:
            raise CertificateError(
                f"ICA cache accepts intermediate CA certificates only, "
                f"got {cert.subject!r}"
            )

    def _index(self, cert: Certificate) -> bool:
        """Index one already-validated ICA; False when already present."""
        fp = cert.fingerprint()
        if fp in self._by_fingerprint:
            return False
        self._by_fingerprint[fp] = cert
        self._by_subject.setdefault(cert.subject, {})[fp] = cert
        return True

    def _store(self, cert: Certificate) -> bool:
        """Validate + index one ICA; returns False when already present."""
        self._validate(cert)
        return self._index(cert)

    def add(self, cert: Certificate) -> bool:
        """Add an ICA; returns False when already present."""
        if not self._store(cert):
            return False
        self._notify_added([cert])
        return True

    def add_many(self, certs: Iterable[Certificate]) -> int:
        """Bulk add; returns how many were new. Listeners see the new
        certificates as one batch (one filter ``insert_batch``).

        All-or-nothing: the whole batch is validated before anything is
        indexed, so a :class:`~repro.errors.CertificateError` on any item
        leaves the cache untouched and listeners silent — the cache and
        the mirrored filter can never diverge on a failed bulk add.
        """
        batch = list(certs)
        for cert in batch:
            self._validate(cert)
        added = [cert for cert in batch if self._index(cert)]
        if added:
            self._notify_added(added)
        return len(added)

    def _unindex(self, cert: Certificate) -> Optional[Certificate]:
        fp = cert.fingerprint()
        stored = self._by_fingerprint.pop(fp, None)
        if stored is None:
            return None
        variants = self._by_subject.get(stored.subject)
        if variants is not None:
            variants.pop(fp, None)
            if not variants:
                del self._by_subject[stored.subject]
        return stored

    def remove(self, cert: Certificate) -> bool:
        stored = self._unindex(cert)
        if stored is None:
            return False
        self._notify_removed([stored])
        return True

    def remove_many(self, certs: Iterable[Certificate]) -> int:
        """Bulk remove; returns how many were present. Listeners see the
        removed certificates as one batch (one filter ``delete_batch``,
        or a single rebuild for structures without deletion)."""
        removed = []
        for cert in certs:
            stored = self._unindex(cert)
            if stored is not None:
                removed.append(stored)
        if removed:
            self._notify_removed(removed)
        return len(removed)

    def load_preload(self, preload: IntermediatePreload) -> int:
        """Seed from a preload list; returns how many were new."""
        return self.add_many(preload.certificates())

    def observe_chain(self, chain: CertificateChain) -> int:
        """Learn the ICAs seen in a completed handshake; returns how many
        were new (the organic growth path of the cache)."""
        return self.add_many(chain.intermediates)

    def sweep_expired(self, at_time: int) -> int:
        """Remove expired entries (one batched mutation); returns how
        many were dropped."""
        stale = [
            cert
            for cert in self._by_fingerprint.values()
            if not cert.valid_at(at_time)
        ]
        return self.remove_many(stale)

    def apply_revocations(self, revocation) -> int:
        """Remove revoked entries (one batched mutation); returns how
        many were dropped."""
        revoked = [
            cert
            for cert in self._by_fingerprint.values()
            if revocation.is_revoked(cert)
        ]
        return self.remove_many(revoked)

    # -- queries ------------------------------------------------------------

    def lookup_issuer(self, subject_name: str) -> Optional[Certificate]:
        """Issuer lookup for path completion (Fig. 2 client pipeline).

        When several cross-signed variants share the subject, the most
        recently added one wins (deterministic; under churn the newest
        cross-sign is the likeliest to still be valid). Use
        :meth:`lookup_issuers` for every variant.
        """
        variants = self._by_subject.get(subject_name)
        if not variants:
            return None
        return next(reversed(variants.values()))

    def lookup_issuers(self, subject_name: str) -> List[Certificate]:
        """Every cached certificate for ``subject_name`` (cross-signed
        variants included), oldest first."""
        variants = self._by_subject.get(subject_name)
        return list(variants.values()) if variants else []

    def fingerprints(self) -> List[bytes]:
        return list(self._by_fingerprint.keys())

    def certificates(self) -> List[Certificate]:
        return list(self._by_fingerprint.values())

    def __contains__(self, cert: Certificate) -> bool:
        return cert.fingerprint() in self._by_fingerprint

    def __len__(self) -> int:
        return len(self._by_fingerprint)
