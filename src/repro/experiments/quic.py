"""QUIC vs TCP: where the PQ penalty bites and what suppression recovers.

Extends the paper's TCP-centric evaluation with the QUIC amplification
analysis its related work ([23]) performs: QUIC's 3x pre-validation limit
stalls PQ server flights at ~3.6 KB — a quarter of TCP's initcwnd — so
suppression pays earlier and more often.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.tables import format_table
from repro.core.extension import EXTENSION_FRAMING_BYTES
from repro.netsim.quic import QUICConfig, quic_flights_needed
from repro.netsim.tcp import TCPConfig, flights_needed
from repro.webmodel.flight_probe import flight_sizes


@dataclass(frozen=True)
class TransportRow:
    algorithm: str
    num_icas: int
    tcp_flights_full: int
    tcp_flights_suppressed: int
    quic_flights_full: int
    quic_flights_suppressed: int

    @property
    def tcp_gain(self) -> int:
        return self.tcp_flights_full - self.tcp_flights_suppressed

    @property
    def quic_gain(self) -> int:
        return self.quic_flights_full - self.quic_flights_suppressed


def transport_comparison(
    algorithms: Sequence[str] = (
        "rsa-2048",
        "falcon-512",
        "dilithium3",
        "dilithium5",
        "sphincs-128f",
    ),
    kem: str = "ntru-hps-509",
    num_icas: int = 2,
    filter_bytes: int = 452,
    tcp: TCPConfig = TCPConfig(),
    quic: QUICConfig = QUICConfig(),
) -> List[TransportRow]:
    """Flight counts per transport, with and without suppression. The
    suppressed ClientHello carries ``filter_bytes`` of extension, which in
    QUIC also enlarges the amplification budget."""
    rows = []
    for alg in algorithms:
        ch, full_flight = flight_sizes(alg, kem, num_icas, True)
        _, sup_flight = flight_sizes(alg, kem, 0, True)
        ch_with_filter = ch + filter_bytes + EXTENSION_FRAMING_BYTES
        rows.append(
            TransportRow(
                algorithm=alg,
                num_icas=num_icas,
                tcp_flights_full=flights_needed(full_flight, tcp),
                tcp_flights_suppressed=flights_needed(sup_flight, tcp),
                quic_flights_full=quic_flights_needed(full_flight, ch, quic),
                quic_flights_suppressed=quic_flights_needed(
                    sup_flight, ch_with_filter, quic
                ),
            )
        )
    return rows


def format_transport_comparison(rows: Sequence[TransportRow]) -> str:
    table_rows = [
        [
            r.algorithm,
            r.tcp_flights_full,
            r.tcp_flights_suppressed,
            r.tcp_gain,
            r.quic_flights_full,
            r.quic_flights_suppressed,
            r.quic_gain,
        ]
        for r in rows
    ]
    return format_table(
        ["algorithm", "TCP full", "TCP sup", "TCP gain",
         "QUIC full", "QUIC sup", "QUIC gain"],
        table_rows,
        title=(
            f"QUIC amplification vs TCP initcwnd — server-flight round "
            f"trips ({rows[0].num_icas}-ICA chain)"
        ),
    )
