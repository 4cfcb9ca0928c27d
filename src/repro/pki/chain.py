"""Certificate chains: building, measuring and validating.

A chain is leaf → intermediates → root. The root is anchored client-side
and never transmitted; the ICAs are exactly what the paper's mechanism
suppresses. ``validate`` implements full path validation against a trust
store (signatures, validity window, CA bits, optional revocation), and
``complete_path`` implements the client-side behaviour of Fig. 2: rebuild
a full verification path from a *suppressed* server response plus the
local ICA cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.errors import ChainValidationError, RevocationError
from repro.pki.certificate import Certificate
from repro.runtime import artifacts

IssuerLookup = Callable[[str], Optional[Certificate]]


@dataclass(frozen=True)
class CertificateChain:
    """An ordered certificate path.

    Attributes:
        leaf: the end-entity certificate;
        intermediates: ICAs ordered leaf-side first (index 0 signed the
            leaf, the last one is signed by the root);
        root: the trust anchor (not transmitted in TLS).
    """

    leaf: Certificate
    intermediates: Tuple[Certificate, ...]
    root: Certificate

    def __post_init__(self) -> None:
        object.__setattr__(self, "intermediates", tuple(self.intermediates))

    # -- accounting -----------------------------------------------------------

    @property
    def num_icas(self) -> int:
        return len(self.intermediates)

    def transmitted_certificates(
        self, suppressed: Optional[Set[bytes]] = None
    ) -> List[Certificate]:
        """Certificates the server sends: the leaf plus every ICA whose
        fingerprint is not in ``suppressed``."""
        suppressed = suppressed or set()
        sent = [self.leaf]
        sent.extend(
            ica for ica in self.intermediates if ica.fingerprint() not in suppressed
        )
        return sent

    def transmitted_bytes(self, suppressed: Optional[Set[bytes]] = None) -> int:
        return sum(c.size_bytes() for c in self.transmitted_certificates(suppressed))

    def ica_bytes(self) -> int:
        """DER bytes of the ICA certificates only (Fig. 5-left's metric)."""
        return sum(c.size_bytes() for c in self.intermediates)

    def ica_fingerprints(self) -> List[bytes]:
        return [c.fingerprint() for c in self.intermediates]

    def content_digest(self) -> bytes:
        """SHA-256 over every certificate fingerprint in path order —
        equal digests mean byte-identical chains."""
        digest = hashlib.sha256()
        for cert in (self.leaf, *self.intermediates, self.root):
            digest.update(cert.fingerprint())
        return digest.digest()

    # -- validation -----------------------------------------------------------

    def validate(
        self,
        trust_store,
        at_time: int,
        revocation=None,
    ) -> None:
        """Full path validation; raises ChainValidationError on failure.

        Checks, leaf to root: signature by the next certificate's key,
        validity window, CA bit on every non-leaf, trust anchor membership
        and (optionally) revocation status.

        Successful validations of revocation-free paths are memoized by
        (chain digest, trust-store token) together with the path's shared
        validity window: a later validation of the same bytes against the
        same anchors at any time inside that window is a cache hit and
        skips the signature walk entirely. The ICA→root suffix is memoized
        separately, so a *new* leaf over an already-verified issuing path
        only pays its own signature check. Revocation checks are stateful,
        so any ``revocation`` argument bypasses the caches both ways.
        """
        cache_key = suffix_key = None
        suffix_verified = False
        if revocation is None and hasattr(trust_store, "cache_token"):
            token = trust_store.cache_token()
            cache_key = (b"chain", self.content_digest(), token)
            window = artifacts.VERIFIED_CHAINS.get(cache_key)
            if window is not None and window[0] <= at_time <= window[1]:
                return
            suffix_digest = hashlib.sha256()
            for cert in (*self.intermediates, self.root):
                suffix_digest.update(cert.fingerprint())
            suffix_key = (b"suffix", suffix_digest.digest(), token)
            window = artifacts.VERIFIED_CHAINS.get(suffix_key)
            suffix_verified = (
                window is not None and window[0] <= at_time <= window[1]
            )
        path = [self.leaf, *self.intermediates, self.root]
        if not trust_store.contains(self.root):
            raise ChainValidationError(
                f"root {self.root.subject!r} is not a trust anchor"
            )
        for cert in path:
            if not cert.valid_at(at_time):
                raise ChainValidationError(
                    f"certificate {cert.subject!r} not valid at {at_time} "
                    f"(window {cert.not_before}..{cert.not_after})"
                )
            if revocation is not None and revocation.is_revoked(cert):
                raise RevocationError(f"certificate {cert.subject!r} is revoked")
        for position, (child, parent) in enumerate(zip(path, path[1:])):
            if not parent.is_ca:
                raise ChainValidationError(
                    f"issuer {parent.subject!r} is not a CA certificate"
                )
            if child.issuer != parent.subject:
                raise ChainValidationError(
                    f"name chaining broken: {child.subject!r} names issuer "
                    f"{child.issuer!r}, got {parent.subject!r}"
                )
            if suffix_verified and position >= 1:
                continue  # suffix signatures already verified this window
            if not child.verify_signature(parent.public_key):
                raise ChainValidationError(
                    f"signature of {child.subject!r} does not verify under "
                    f"{parent.subject!r}"
                )
        if not suffix_verified:
            if not self.root.verify_signature(self.root.public_key):
                raise ChainValidationError(
                    f"root {self.root.subject!r} self-signature invalid"
                )
            if suffix_key is not None:
                suffix = path[1:]
                artifacts.VERIFIED_CHAINS.put(
                    suffix_key,
                    (
                        max(cert.not_before for cert in suffix),
                        min(cert.not_after for cert in suffix),
                    ),
                )
        if cache_key is not None:
            artifacts.VERIFIED_CHAINS.put(
                cache_key,
                (
                    max(cert.not_before for cert in path),
                    min(cert.not_after for cert in path),
                ),
            )


def complete_path(
    transmitted: Sequence[Certificate],
    cache_lookup: IssuerLookup,
    trust_store,
) -> CertificateChain:
    """Rebuild a full chain from a (possibly ICA-suppressed) server
    Certificate message — the client-side pipeline of Fig. 2.

    ``transmitted`` is leaf-first. Missing issuers are resolved through
    ``cache_lookup`` (the ICA cache) and finally the trust store's roots.
    Raises ChainValidationError when the path cannot be completed, which is
    exactly the false-positive suppression failure the client recovers from
    by retrying without the extension.
    """
    if not transmitted:
        raise ChainValidationError("empty certificate message")
    leaf = transmitted[0]
    by_subject = {c.subject: c for c in transmitted[1:]}
    intermediates: List[Certificate] = []
    current = leaf
    seen = {leaf.subject}
    for _ in range(16):  # generous path-length bound
        root = trust_store.get_by_subject(current.issuer)
        if root is not None:
            return CertificateChain(
                leaf=leaf, intermediates=tuple(intermediates), root=root
            )
        issuer = by_subject.get(current.issuer)
        if issuer is None:
            issuer = cache_lookup(current.issuer)
        if issuer is None:
            raise ChainValidationError(
                f"cannot complete path: no certificate for issuer "
                f"{current.issuer!r} (suppression false positive?)"
            )
        if issuer.subject in seen:
            raise ChainValidationError(
                f"issuer loop detected at {issuer.subject!r}"
            )
        seen.add(issuer.subject)
        intermediates.append(issuer)
        current = issuer
    raise ChainValidationError("path length exceeds 16 certificates")
