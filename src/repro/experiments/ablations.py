"""Ablations for the design choices DESIGN.md calls out.

* **initcwnd sensitivity** (§5.2's discussion): how the initial window
  changes both the PQ penalty and the value of suppression — large
  windows remove the round-trip penalty entirely, at which point the
  initiator should omit the extension.
* **filter choice**: end-to-end Fig. 5 cohort reduction, extension size
  and false positives per AMQ structure (incl. the Bloom baseline that
  cannot delete), one cohort run per structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.core.estimator import crypto_cpu_seconds
from repro.core.extension import parse_extension_payload
from repro.experiments.fig5 import lookup_seconds, user_rates
from repro.netsim.tcp import TCPConfig, extra_flights, handshake_duration_s
from repro.pki.algorithms import get_signature_algorithm
from repro.webmodel.cohort import CohortConfig, CohortEngine
from repro.webmodel.flight_probe import flight_sizes
from repro.webmodel.population import ICAPopulation, PopulationConfig


# ---------------------------------------------------------------------------
# initcwnd ablation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitcwndRow:
    algorithm: str
    initcwnd_segments: int
    full_extra_rtts: int
    suppressed_extra_rtts: int
    handshake_gain_ms_at_40ms: float

    @property
    def suppression_useful(self) -> bool:
        return self.full_extra_rtts > self.suppressed_extra_rtts


def initcwnd_sweep(
    algorithms: Sequence[str] = ("dilithium3", "dilithium5", "sphincs-128f"),
    windows: Sequence[int] = (4, 10, 20, 32, 64),
    kem: str = "ntru-hps-509",
    num_icas: int = 2,
    rtt_s: float = 0.04,
) -> List[InitcwndRow]:
    rows = []
    for alg_name in algorithms:
        alg = get_signature_algorithm(alg_name)
        cpu = crypto_cpu_seconds(alg, kem)
        ch, full_flight = flight_sizes(alg_name, kem, num_icas, True)
        _, sup_flight = flight_sizes(alg_name, kem, 0, True)
        for window in windows:
            tcp = TCPConfig(initcwnd_segments=window)
            full = handshake_duration_s(ch, full_flight, rtt_s, tcp, cpu)
            sup = handshake_duration_s(ch, sup_flight, rtt_s, tcp, cpu)
            rows.append(
                InitcwndRow(
                    algorithm=alg_name,
                    initcwnd_segments=window,
                    full_extra_rtts=extra_flights(full_flight, tcp),
                    suppressed_extra_rtts=extra_flights(sup_flight, tcp),
                    handshake_gain_ms_at_40ms=1000 * (full - sup),
                )
            )
    return rows


def format_initcwnd(rows: Sequence[InitcwndRow]) -> str:
    table_rows = [
        [
            r.algorithm,
            r.initcwnd_segments,
            r.full_extra_rtts,
            r.suppressed_extra_rtts,
            f"{r.handshake_gain_ms_at_40ms:.0f}",
            "yes" if r.suppression_useful else "no",
        ]
        for r in rows
    ]
    return format_table(
        ["algorithm", "initcwnd", "extra RTTs full", "extra RTTs sup",
         "gain ms @40ms RTT", "suppression useful"],
        table_rows,
        title="Ablation — initcwnd sensitivity (2-ICA chain)",
    )


# ---------------------------------------------------------------------------
# Filter-choice ablation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterChoiceRow:
    filter_kind: str
    extension_bytes: int
    reduction: float
    known_rate: float
    false_positives: float
    lookup_us: float
    effective_fpp: float


def filter_choice(
    kinds: Sequence[str] = (
        "bloom", "counting-bloom", "cuckoo", "vacuum", "quotient", "xor"
    ),
    users: int = 2,
    draws: int = 1_200,
    seed: int = 3,
    population: Optional[ICAPopulation] = None,
) -> List[FilterChoiceRow]:
    """End-to-end Fig. 5 impact per structure: one cohort run per family
    over one shared population and one draw stream, so the workload is
    identical across rows."""
    population = population or ICAPopulation(PopulationConfig(seed=seed))
    rows = []
    for kind in kinds:
        engine = CohortEngine(
            CohortConfig(
                num_users=users,
                handshakes_per_user=draws,
                filter_kind=kind,
                seed=seed,
                population=population.config,
            ),
            population=population,
        )
        result = engine.run()
        reduction, known = user_rates(result)
        advertised = parse_extension_payload(engine.payload)
        rows.append(
            FilterChoiceRow(
                filter_kind=kind,
                extension_bytes=result.stats.filter_payload_bytes,
                reduction=float(reduction.mean()),
                known_rate=float(known.mean()),
                false_positives=result.stats.false_positives / users,
                lookup_us=lookup_seconds(advertised) * 1e6,
                effective_fpp=advertised.effective_fpp(),
            )
        )
    return rows


def format_filter_choice(rows: Sequence[FilterChoiceRow]) -> str:
    table_rows = [
        [
            r.filter_kind,
            r.extension_bytes,
            f"{100 * r.reduction:.1f}%",
            f"{100 * r.known_rate:.1f}%",
            f"{r.false_positives:.1f}",
            f"{r.lookup_us:.1f}",
            f"{r.effective_fpp:.2g}",
        ]
        for r in rows
    ]
    return format_table(
        ["filter", "payload B", "ICA reduction", "known rate", "FPs/user",
         "lookup us", "eff. FPP"],
        table_rows,
        title="Ablation — AMQ structure choice in the Fig. 5 pipeline",
    )
