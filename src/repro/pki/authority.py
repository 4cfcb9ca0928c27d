"""Certificate authorities and synthetic CA hierarchies.

``CertificateAuthority`` wraps a key pair plus its own certificate and
issues subordinate CA or leaf certificates. ``build_hierarchy`` produces a
whole synthetic Web PKI — a few roots, a configurable population of ICAs
arranged in chains of depth 1-3 — mirroring the populations the paper
measures in the wild (Table 2: 220-245 distinct ICAs across the Tranco top
10K; 1400 in the Firefox/CCADB preload list).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.pki.certificate import (
    Certificate,
    CertificateBuilder,
    DEFAULT_ATTRIBUTE_BYTES,
)
from repro.pki.chain import CertificateChain
from repro.pki.keys import KeyPair
from repro.pki.store import TrustStore

#: Ten years, in seconds — default validity for CA certificates.
CA_VALIDITY = 10 * 365 * 24 * 3600
#: Ninety days — default leaf validity (Let's Encrypt style).
LEAF_VALIDITY = 90 * 24 * 3600


class CertificateAuthority:
    """A CA: a key pair, its certificate, and a serial-number counter."""

    def __init__(
        self,
        name: str,
        keypair: KeyPair,
        certificate: Certificate,
        builder: CertificateBuilder,
    ) -> None:
        self.name = name
        self.keypair = keypair
        self.certificate = certificate
        self._builder = builder
        self._next_serial = 1

    @classmethod
    def create_root(
        cls,
        name: str,
        algorithm,
        seed: int,
        not_before: int = 0,
        not_after: int = CA_VALIDITY,
        attribute_bytes: int = DEFAULT_ATTRIBUTE_BYTES,
    ) -> "CertificateAuthority":
        builder = CertificateBuilder(algorithm, attribute_bytes)
        keypair = KeyPair(builder.algorithm, seed)
        certificate = builder.build(
            subject=name,
            issuer=name,
            subject_key=keypair,
            signer_key=keypair,
            serial=0,
            is_ca=True,
            not_before=not_before,
            not_after=not_after,
        )
        return cls(name, keypair, certificate, builder)

    def _take_serial(self) -> int:
        serial = self._next_serial
        self._next_serial += 1
        return serial

    def create_subordinate(
        self,
        name: str,
        seed: int,
        not_before: Optional[int] = None,
        not_after: Optional[int] = None,
        algorithm=None,
    ) -> "CertificateAuthority":
        """Issue an intermediate CA signed by this CA.

        ``algorithm`` switches the subordinate's *own* key algorithm (the
        mixed-chain strategy of Paul et al. / Sikeridis et al. the paper
        cites): the new CA's certificate is still signed with this CA's
        scheme, but everything the subordinate issues uses its own.
        """
        if algorithm is not None:
            from repro.pki.algorithms import get_signature_algorithm

            if isinstance(algorithm, str):
                algorithm = get_signature_algorithm(algorithm)
            sub_builder = CertificateBuilder(
                algorithm, self._builder.attribute_bytes
            )
        else:
            sub_builder = self._builder
        keypair = KeyPair(sub_builder.algorithm, seed)
        certificate = self._builder.build(
            subject=name,
            issuer=self.name,
            subject_key=keypair,
            signer_key=self.keypair,
            serial=self._take_serial(),
            is_ca=True,
            not_before=self.certificate.not_before if not_before is None else not_before,
            not_after=self.certificate.not_after if not_after is None else not_after,
        )
        return CertificateAuthority(name, keypair, certificate, sub_builder)

    def cross_sign(
        self,
        subordinate: "CertificateAuthority",
        not_before: Optional[int] = None,
        not_after: Optional[int] = None,
        serial: Optional[int] = None,
    ) -> Certificate:
        """Cross-sign an existing CA: issue a certificate for its *same*
        subject name and key pair under this CA.

        The result is a distinct certificate (different issuer, serial and
        fingerprint) for an identical subject/key — the Web PKI's
        re-anchoring pattern (e.g. a new root bootstrapping trust through
        an established one). Because the key is shared, either variant
        completes a valid verification path for everything the subordinate
        has issued.
        """
        return self._builder.build(
            subject=subordinate.name,
            issuer=self.name,
            subject_key=subordinate.keypair,
            signer_key=self.keypair,
            serial=self._take_serial() if serial is None else serial,
            is_ca=True,
            not_before=self.certificate.not_before if not_before is None else not_before,
            not_after=self.certificate.not_after if not_after is None else not_after,
        )

    def issue_leaf(
        self,
        subject: str,
        seed: int,
        not_before: int = 0,
        not_after: Optional[int] = None,
    ) -> Certificate:
        return self.issue_leaf_with_key(
            subject, KeyPair(self._builder.algorithm, seed), not_before, not_after
        )

    def issue_leaf_with_key(
        self,
        subject: str,
        keypair: KeyPair,
        not_before: int = 0,
        not_after: Optional[int] = None,
        serial: Optional[int] = None,
    ) -> Certificate:
        """``serial=None`` draws from this CA's stateful counter; passing
        one keeps the issuance a pure function of its arguments (what the
        population layer needs for content-addressed credential reuse)."""
        return self._builder.build(
            subject=subject,
            issuer=self.name,
            subject_key=keypair,
            signer_key=self.keypair,
            serial=self._take_serial() if serial is None else serial,
            is_ca=False,
            not_before=not_before,
            not_after=not_before + LEAF_VALIDITY if not_after is None else not_after,
        )


@dataclass(frozen=True)
class ServerCredential:
    """What a TLS server deploys: its chain plus the leaf private key."""

    chain: "CertificateChain"
    keypair: KeyPair


@dataclass(frozen=True)
class ICAPath:
    """One issuing position in the hierarchy: the ordered CAs between a
    root and a leaf issuer. ``authorities[0]`` is the root's direct child;
    ``authorities[-1]`` signs leaves. Empty paths mean root-issued leaves."""

    root: CertificateAuthority
    authorities: Tuple[CertificateAuthority, ...]

    @property
    def depth(self) -> int:
        return len(self.authorities)

    @property
    def issuer(self) -> CertificateAuthority:
        return self.authorities[-1] if self.authorities else self.root

    def ica_certificates(self) -> List[Certificate]:
        """ICA certs ordered leaf-side first (as transmitted in TLS)."""
        return [ca.certificate for ca in reversed(self.authorities)]


class Hierarchy:
    """A synthetic PKI: roots, a flat ICA population, and issuing paths."""

    def __init__(
        self,
        roots: Sequence[CertificateAuthority],
        paths: Sequence[ICAPath],
        seed: int,
    ) -> None:
        if not roots:
            raise ConfigurationError("hierarchy needs at least one root")
        self.roots = list(roots)
        self.paths = list(paths)
        self._rng = random.Random(seed ^ 0x11EA)
        self._leaf_seed = 1 << 20

    # -- population views --------------------------------------------------------

    def ica_certificates(self) -> List[Certificate]:
        """Every distinct ICA certificate in the hierarchy."""
        seen: Dict[bytes, Certificate] = {}
        for path in self.paths:
            for ca in path.authorities:
                seen.setdefault(ca.certificate.fingerprint(), ca.certificate)
        return list(seen.values())

    def trust_store(self) -> TrustStore:
        store = TrustStore()
        for root in self.roots:
            store.add(root.certificate)
        return store

    # -- issuance ------------------------------------------------------------------

    def issue_chain(
        self,
        subject: str,
        path: Optional[ICAPath] = None,
        not_before: int = 0,
    ) -> CertificateChain:
        """Issue a leaf for ``subject`` through ``path`` (random path when
        omitted) and return the full chain."""
        if path is None:
            path = self._rng.choice(self.paths)
        self._leaf_seed += 1
        leaf = path.issuer.issue_leaf(subject, seed=self._leaf_seed, not_before=not_before)
        return CertificateChain(
            leaf=leaf,
            intermediates=tuple(path.ica_certificates()),
            root=path.root.certificate,
        )

    def issue_credential(
        self,
        subject: str,
        path: Optional[ICAPath] = None,
        not_before: int = 0,
        seed: Optional[int] = None,
        serial: Optional[int] = None,
    ) -> ServerCredential:
        """Issue a leaf plus its private key — what a server needs to run
        TLS handshakes (the chain alone only supports size accounting).

        With explicit ``seed`` and ``serial`` the issuance touches no
        hierarchy state, making the credential a pure function of its
        arguments (issuance-order independent; see
        :meth:`ICAPopulation.credential_for_rank`)."""
        if path is None:
            path = self._rng.choice(self.paths)
        if seed is None:
            self._leaf_seed += 1
            seed = self._leaf_seed
        keypair = KeyPair(path.issuer.certificate.public_key.algorithm, seed)
        leaf = path.issuer.issue_leaf_with_key(
            subject, keypair, not_before=not_before, serial=serial
        )
        chain = CertificateChain(
            leaf=leaf,
            intermediates=tuple(path.ica_certificates()),
            root=path.root.certificate,
        )
        return ServerCredential(chain=chain, keypair=keypair)

    def paths_by_depth(self, depth: int) -> List[ICAPath]:
        return [p for p in self.paths if p.depth == depth]


def build_hierarchy(
    algorithm,
    total_icas: int,
    num_roots: int = 5,
    depth_weights: Optional[Dict[int, float]] = None,
    seed: int = 0,
    not_before: int = 0,
    not_after: int = CA_VALIDITY,
    attribute_bytes: int = DEFAULT_ATTRIBUTE_BYTES,
) -> Hierarchy:
    """Generate a synthetic hierarchy with ``total_icas`` distinct ICAs.

    ``depth_weights`` controls how issuing paths of depth 1, 2 and 3 are
    formed (defaults roughly matching Table 2's observed chain mix among
    chains that do carry ICAs). Deeper paths reuse ICAs as parents, so the
    distinct-ICA count stays exactly ``total_icas``.
    """
    if total_icas < 1:
        raise ConfigurationError(f"total_icas must be >= 1, got {total_icas}")
    if num_roots < 1:
        raise ConfigurationError(f"num_roots must be >= 1, got {num_roots}")
    depth_weights = depth_weights or {1: 0.50, 2: 0.35, 3: 0.15}
    rng = random.Random(seed)

    roots = [
        CertificateAuthority.create_root(
            f"Root CA R{i}",
            algorithm,
            seed=(seed << 8) + i + 1,
            not_before=not_before,
            not_after=not_after,
            attribute_bytes=attribute_bytes,
        )
        for i in range(num_roots)
    ]

    # Create the flat ICA population, each under a root or an earlier ICA
    # so that multi-ICA chains exist.
    authorities: List[CertificateAuthority] = []
    parent_of: Dict[int, Optional[int]] = {}  # index -> parent ica index
    root_of: Dict[int, CertificateAuthority] = {}
    # (root index, depth) -> indices of the ICAs there, in creation order.
    by_level: Dict[Tuple[int, int], List[int]] = {}
    depths = list(depth_weights.keys())
    weights = list(depth_weights.values())
    for i in range(total_icas):
        root = roots[i % num_roots]
        # Decide this ICA's own depth: 1 = direct child of a root, deeper =
        # child of an existing ICA under the same root.
        target_depth = rng.choices(depths, weights=weights, k=1)[0]
        parent_idx: Optional[int] = None
        depth = 1
        if target_depth > 1:
            candidates = by_level.get((i % num_roots, target_depth - 1))
            if candidates:
                parent_idx = rng.choice(candidates)
                depth = target_depth
        if parent_idx is None:
            parent = root
        else:
            parent = authorities[parent_idx]
        ica = parent.create_subordinate(
            f"ICA I{i} ({algorithm if isinstance(algorithm, str) else algorithm.name})",
            seed=(seed << 16) + 0xA000 + i,
        )
        authorities.append(ica)
        parent_of[i] = parent_idx
        root_of[i] = root
        by_level.setdefault((i % num_roots, depth), []).append(i)

    paths: List[ICAPath] = []
    for i, ica in enumerate(authorities):
        lineage = [ica]
        j = parent_of[i]
        while j is not None:
            lineage.append(authorities[j])
            j = parent_of[j]
        paths.append(
            ICAPath(root=root_of[i], authorities=tuple(reversed(lineage)))
        )
    # Root-direct issuance (the "0 ICAs" rows of Table 2).
    for root in roots:
        paths.append(ICAPath(root=root, authorities=()))
    return Hierarchy(roots, paths, seed)
