"""Figure 1 — the PQ TLS 1.3 handshake flow.

The paper's Fig. 1 is a message-sequence diagram; the measurable content
is the per-message byte breakdown and where the server flight crosses TCP
flight boundaries. This driver runs a real handshake per algorithm and
prints exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.tables import format_table
from repro.netsim.tcp import TCPConfig, flights_needed
from repro.tls.messages import split_handshake_stream
from repro.tls.record import wire_size
from repro.webmodel.flight_probe import probe_configs
from repro.tls.client import TLSClient
from repro.tls.server import TLSServer

_NAMES = {
    1: "ClientHello",
    2: "ServerHello",
    8: "EncryptedExtensions",
    11: "Certificate",
    15: "CertificateVerify",
    20: "Finished",
}


@dataclass(frozen=True)
class MessageRecord:
    direction: str  # "C->S" or "S->C"
    name: str
    handshake_bytes: int


@dataclass(frozen=True)
class HandshakeFlow:
    algorithm: str
    kem: str
    num_icas: int
    messages: List[MessageRecord]
    server_flight_bytes: int
    client_hello_bytes: int
    server_flight_rtts: int

    @property
    def total_bytes(self) -> int:
        return sum(m.handshake_bytes for m in self.messages)


def trace_handshake(
    algorithm: str = "dilithium3",
    kem: str = "ntru-hps-509",
    num_icas: int = 2,
    staples: bool = True,
    tcp: TCPConfig = TCPConfig(),
) -> HandshakeFlow:
    """Run one handshake and record every message with its size."""
    client_config, server_config = probe_configs(algorithm, kem, num_icas, staples)
    client = TLSClient(client_config)
    server = TLSServer(server_config)
    hello = client.create_client_hello()
    flight = server.process_client_hello(hello)
    result = client.process_server_flight(flight.flight)
    if not result.complete:
        raise RuntimeError(f"trace handshake failed: {result.failure_reason}")
    server.process_client_finished(result.client_finished)

    messages = [MessageRecord("C->S", "ClientHello", len(hello))]
    for msg_type, body in split_handshake_stream(flight.flight):
        messages.append(
            MessageRecord("S->C", _NAMES.get(msg_type, f"type {msg_type}"), len(body) + 4)
        )
    messages.append(
        MessageRecord("C->S", "Finished", len(result.client_finished))
    )
    return HandshakeFlow(
        algorithm=algorithm,
        kem=kem,
        num_icas=num_icas,
        messages=messages,
        server_flight_bytes=len(flight.flight),
        client_hello_bytes=len(hello),
        server_flight_rtts=flights_needed(wire_size(len(flight.flight)), tcp),
    )


def compute_flows(
    algorithms: Sequence[str] = (
        "ecdsa-p256",
        "rsa-2048",
        "falcon-512",
        "dilithium3",
        "dilithium5",
        "sphincs-128f",
    ),
    kem: str = "ntru-hps-509",
    num_icas: int = 2,
) -> List[HandshakeFlow]:
    return [trace_handshake(alg, kem, num_icas) for alg in algorithms]


def format_flow(flow: HandshakeFlow) -> str:
    rows = [
        [m.direction, m.name, m.handshake_bytes] for m in flow.messages
    ]
    rows.append(["", "server flight total", flow.server_flight_bytes])
    rows.append(["", "server flight round trips", flow.server_flight_rtts])
    return format_table(
        ["dir", "message", "bytes"],
        rows,
        title=(
            f"Fig. 1 flow — {flow.algorithm} / {flow.kem} / "
            f"{flow.num_icas} ICAs"
        ),
    )


def format_flow_summary(flows: Sequence[HandshakeFlow]) -> str:
    rows = [
        [
            f.algorithm,
            f.client_hello_bytes,
            f.server_flight_bytes,
            f.server_flight_rtts,
        ]
        for f in flows
    ]
    return format_table(
        ["algorithm", "ClientHello B", "server flight B", "flight RTTs"],
        rows,
        title="Fig. 1 — handshake flights per algorithm",
    )
