"""Certificate compression (RFC 8879) vs ICA suppression.

The deployed alternative to suppression is compressing the Certificate
message. This experiment measures both (and their composition) across
signature algorithms, exhibiting the asymmetry that motivates the paper's
approach in the PQ era: compression exploits redundancy, and post-quantum
keys/signatures have none — while suppression removes whole certificates
regardless of their entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.tables import format_table
from repro.tls.compression import CompressionAccounting, compare_mechanisms
from repro.webmodel.flight_probe import micro_credential


@dataclass(frozen=True)
class CompressionRow:
    algorithm: str
    num_icas: int
    accounting: CompressionAccounting


def compression_comparison(
    algorithms: Sequence[str] = (
        "ecdsa-p256",
        "rsa-2048",
        "falcon-512",
        "dilithium3",
        "sphincs-128f",
    ),
    num_icas: int = 2,
) -> List[CompressionRow]:
    rows = []
    for algorithm in algorithms:
        credential, _ = micro_credential(algorithm, num_icas)
        rows.append(
            CompressionRow(
                algorithm=algorithm,
                num_icas=num_icas,
                accounting=compare_mechanisms(credential.chain),
            )
        )
    return rows


def format_compression(rows: Sequence[CompressionRow]) -> str:
    table_rows = []
    for row in rows:
        a = row.accounting
        table_rows.append(
            [
                row.algorithm,
                a.plain_bytes,
                a.compressed_bytes,
                f"{100 * (1 - a.compression_ratio):.0f}%",
                a.suppressed_bytes,
                f"{100 * (1 - a.suppression_ratio):.0f}%",
                a.suppressed_compressed_bytes,
                f"{100 * (1 - a.combined_ratio):.0f}%",
            ]
        )
    return format_table(
        ["algorithm", "plain B", "zlib B", "zlib save",
         "suppressed B", "sup save", "both B", "both save"],
        table_rows,
        title=(
            f"RFC 8879 compression vs ICA suppression — Certificate message, "
            f"{rows[0].num_icas}-ICA chain"
        ),
    )
