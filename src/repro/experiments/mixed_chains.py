"""Mixed certificate chains (Paul et al. [41] / Sikeridis et al. [55]).

Table 1's note: the paper uses "the same algorithm for all certificates
within each chain" and defers mixed-chain strategies to its references.
This study implements them anyway and asks the natural follow-up: do
mixed chains and ICA suppression compete or compose?

The canonical mix pairs Falcon-512 CA signatures (small, slow to create —
fine for rarely-reissued CA certs) with a Dilithium-2 leaf key (fast
online signing for CertificateVerify). We measure the transmitted auth
data for pure and mixed chains, with and without suppression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.pki.authority import CertificateAuthority, ServerCredential
from repro.pki.chain import CertificateChain
from repro.pki.keys import KeyPair
from repro.pki.algorithms import get_signature_algorithm


@dataclass(frozen=True)
class MixedChainRow:
    label: str
    chain_bytes: int
    suppressed_bytes: int
    leaf_sign_ms: float

    @property
    def suppression_saving(self) -> int:
        return self.chain_bytes - self.suppressed_bytes


def _build_chain(
    ca_algorithm: str, leaf_algorithm: str, num_icas: int, seed: int
) -> ServerCredential:
    root = CertificateAuthority.create_root(
        f"Mix Root {ca_algorithm}", ca_algorithm, seed=seed
    )
    issuer = root
    icas = []
    for i in range(num_icas):
        issuer = issuer.create_subordinate(f"Mix ICA {i}", seed=seed + 1 + i)
        icas.append(issuer.certificate)
    leaf_alg = get_signature_algorithm(leaf_algorithm)
    keypair = KeyPair(leaf_alg, seed + 100)
    leaf = issuer.issue_leaf_with_key("mixed.example", keypair)
    return ServerCredential(
        chain=CertificateChain(leaf, tuple(icas), root.certificate),
        keypair=keypair,
    )


def _comparison_row(
    label: str, ca_alg: str, leaf_alg: str, num_icas: int
) -> MixedChainRow:
    """Build one configuration's chain and measure it."""
    credential = _build_chain(ca_alg, leaf_alg, num_icas, seed=0xA11)
    chain = credential.chain
    return MixedChainRow(
        label=label,
        chain_bytes=chain.transmitted_bytes(),
        suppressed_bytes=chain.transmitted_bytes(
            set(chain.ica_fingerprints())
        ),
        leaf_sign_ms=get_signature_algorithm(leaf_alg).sign_ms,
    )


def mixed_chain_comparison(
    num_icas: int = 2,
    configurations: Optional[Sequence[Tuple[str, str, str]]] = None,
) -> List[MixedChainRow]:
    """(label, CA algorithm, leaf algorithm) rows; defaults cover the
    pure chains of Table 1 plus the canonical Falcon/Dilithium mix."""
    configurations = configurations or (
        ("pure dilithium2", "dilithium2", "dilithium2"),
        ("pure falcon-512", "falcon-512", "falcon-512"),
        ("mixed falcon CAs + dilithium2 leaf", "falcon-512", "dilithium2"),
        ("mixed falcon CAs + dilithium3 leaf", "falcon-512", "dilithium3"),
    )
    return [
        _comparison_row(label, ca_alg, leaf_alg, num_icas)
        for label, ca_alg, leaf_alg in configurations
    ]


def format_mixed_chains(rows: Sequence[MixedChainRow]) -> str:
    table_rows = [
        [
            r.label,
            r.chain_bytes,
            r.suppressed_bytes,
            r.suppression_saving,
            f"{r.leaf_sign_ms:.2f}",
        ]
        for r in rows
    ]
    return format_table(
        ["chain", "tx bytes", "suppressed tx", "sup saving", "leaf sign ms"],
        table_rows,
        title="Mixed chains ([41]/[55]) x ICA suppression (2-ICA chains)",
    )
