"""The §4.2 expected-duration model, quantified.

The paper closes its design section with the expected handshake time
``(1 - eps) * d_c + eps * d_PQ``. This experiment grounds d_c / d_PQ in
the flight model per algorithm and tabulates the expected duration and
speedup across FPP targets and RTTs — the design-space view a deployment
would tune against (it also exhibits why eps is a second-order knob: at
any plausible FPP the expectation is within a hair of d_c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.tables import format_table
from repro.core.estimator import HandshakeTimeModel, crypto_cpu_seconds
from repro.pki.algorithms import get_signature_algorithm
from repro.webmodel.flight_probe import flight_sizes


@dataclass(frozen=True)
class ExpectedDurationRow:
    algorithm: str
    rtt_s: float
    eps: float
    d_suppressed_ms: float
    d_full_ms: float
    expected_ms: float
    speedup: float


def expected_duration_table(
    algorithms: Sequence[str] = ("dilithium3", "dilithium5", "sphincs-128f"),
    rtts_s: Sequence[float] = (0.02, 0.05, 0.15),
    epsilons: Sequence[float] = (1e-4, 1e-3, 1e-2),
    kem: str = "ntru-hps-509",
    num_icas: int = 2,
) -> List[ExpectedDurationRow]:
    rows = []
    for name in algorithms:
        alg = get_signature_algorithm(name)
        ch, full = flight_sizes(name, kem, num_icas, True)
        _, suppressed = flight_sizes(name, kem, 0, True)
        model = HandshakeTimeModel(
            client_hello_bytes=ch,
            suppressed_flight_bytes=suppressed,
            full_flight_bytes=full,
            crypto_cpu_s=crypto_cpu_seconds(alg, kem),
        )
        for rtt in rtts_s:
            for eps in epsilons:
                rows.append(
                    ExpectedDurationRow(
                        algorithm=name,
                        rtt_s=rtt,
                        eps=eps,
                        d_suppressed_ms=1000 * model.d_suppressed(rtt),
                        d_full_ms=1000 * model.d_full(rtt),
                        expected_ms=1000 * model.expected(rtt, eps),
                        speedup=model.speedup(rtt, eps),
                    )
                )
    return rows


def format_expected_durations(rows: Sequence[ExpectedDurationRow]) -> str:
    table_rows = [
        [
            r.algorithm,
            f"{1000 * r.rtt_s:.0f}",
            f"{r.eps:g}",
            f"{r.d_suppressed_ms:.0f}",
            f"{r.d_full_ms:.0f}",
            f"{r.expected_ms:.1f}",
            f"{r.speedup:.2f}x",
        ]
        for r in rows
    ]
    return format_table(
        ["algorithm", "rtt ms", "eps", "d_c ms", "d_PQ ms", "expected ms",
         "speedup"],
        table_rows,
        title="§4.2 expected handshake duration — (1-eps)d_c + eps(d_c+d_PQ)",
    )
