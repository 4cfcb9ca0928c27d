"""Figure 5 — IC-suppression impact estimation.

Three panels over one cohort run (§5.3: 10 users, each a browsing
session of ``PAPER_DRAWS_PER_USER`` destination draws, cuckoo filter,
0.9 load factor, 0.1% FPP, the June '22 hot ICA set):

* **left** — ICA data exchanged with/without suppression, measured for
  the baseline PKI and extrapolated to Dilithium III/V and SPHINCS+-128f
  (paper: ~73% reduction; ~15 MB / ~45 MB saved), from the cohort's
  per-user columns;
* **center** — PQ-authentication latency over RSA-2048 as a function of
  RTT, with the line-of-best-fit latency model;
* **right** — TTFB distributions per scenario, one sample per handshake:
  each handshake's first attempt at the preload state, read from the
  engine's per-path facts (a false positive doubles the TTFB).

A cohort user learns the ICAs of a chain after a false-positive retry, so
the left panel's totals include that learning; the right panel's
first-attempt view never learns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.amq import AMQFilter
from repro.analysis.regression import LinearFit, linear_fit
from repro.analysis.tables import format_table
from repro.core.estimator import crypto_cpu_seconds
from repro.core.extension import EXTENSION_FRAMING_BYTES, parse_extension_payload
from repro.netsim.metrics import Summary, summarize
from repro.netsim.tcp import TCPConfig, handshake_duration_s, time_to_first_byte_s
from repro.pki.algorithms import get_signature_algorithm
from repro.pki.certificate import DEFAULT_ATTRIBUTE_BYTES
from repro.webmodel.cohort import CohortConfig, CohortEngine, CohortResult
from repro.webmodel.flight_probe import flight_sizes
from repro.webmodel.population import PopulationConfig

PAPER_REDUCTION = 0.73
#: The paper's 10 browsing sessions, one cohort user each.
PAPER_USERS = 10
#: Destination draws per user: on the cohort's Zipf-1.1 destination
#: stream this touches ~1,900 unique destinations, the paper's ~1950 per
#: 200-domain session.
PAPER_DRAWS_PER_USER = 4_200
#: Fig. 5's cohort seed (streams and population).
PAPER_SEED = 1
#: Key share of every modelled handshake.
PAPER_KEM = "ntru-hps-509"


def fig5_config(
    users: int = PAPER_USERS,
    draws: int = PAPER_DRAWS_PER_USER,
    seed: int = PAPER_SEED,
    **overrides,
) -> CohortConfig:
    """The Fig. 5 cohort: ``seed`` seeds both the draw streams and the
    population; ``overrides`` set any other :class:`CohortConfig` field."""
    return CohortConfig(
        num_users=users,
        handshakes_per_user=draws,
        seed=seed,
        population=PopulationConfig(seed=seed),
        **overrides,
    )


#: Verification-path batch size used to meter per-lookup cost: the
#: server queries a whole path per handshake via ``contains_batch``, and
#: synthetic chains carry up to a few ICAs (Table 2 mix).
_PROBE_PATH_LEN = 4


def lookup_seconds(filt: AMQFilter) -> float:
    """Wall-clock per-item filter lookup cost as the server pays it: one
    ``contains_batch`` per verification path (not one ``contains`` per
    certificate), averaged over 2,000 probes."""
    items = [bytes([i % 256]) * 32 for i in range(2000)]
    start = time.perf_counter()
    for offset in range(0, len(items), _PROBE_PATH_LEN):
        filt.contains_batch(items[offset : offset + _PROBE_PATH_LEN])
    return (time.perf_counter() - start) / len(items)


# ---------------------------------------------------------------------------
# Left panel: ICA data volume
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataVolumeRow:
    algorithm: str
    mb_without: float
    mb_with: float

    @property
    def mb_saved(self) -> float:
        return self.mb_without - self.mb_with

    @property
    def reduction(self) -> float:
        return self.mb_saved / self.mb_without if self.mb_without else 0.0


@dataclass(frozen=True)
class DataVolumeResult:
    rows: List[DataVolumeRow]
    mean_reduction: float
    reduction_ci95: "Tuple[float, float]"
    mean_known_rate: float
    mean_false_positives: float
    mean_unique_destinations: float


def user_rates(result: CohortResult) -> Tuple[np.ndarray, np.ndarray]:
    """Each user's ICA reduction (retries paid) and known-ICA rate (ICAs
    suppressed on the first flight), both 0 for a user who met no ICA."""
    columns = result.columns
    encountered = columns.icas_encountered
    seen = np.maximum(encountered, 1)
    reduction = np.where(
        encountered > 0, 1.0 - columns.icas_sent_total / seen, 0.0
    )
    known = np.where(
        encountered > 0, (encountered - columns.icas_sent_first) / seen, 0.0
    )
    return reduction, known


def data_volume(
    result: CohortResult,
    algorithms: Sequence[str] = (
        "rsa-2048",
        "dilithium3",
        "dilithium5",
        "sphincs-128f",
    ),
) -> DataVolumeResult:
    """Per-user means of the cohort's ICA columns, with ICA data
    extrapolated per algorithm (every ICA certificate of a deployment has
    the same size, so counts times the per-certificate size is exact)."""
    from repro.analysis.stats import confidence_interval_95

    n = result.stats.users
    rows = []
    for alg in algorithms:
        per_cert = get_signature_algorithm(alg).auth_bytes_per_certificate(
            DEFAULT_ATTRIBUTE_BYTES
        )
        without = per_cert * result.stats.icas_encountered / n / 1e6
        with_sup = per_cert * result.stats.icas_sent_total / n / 1e6
        rows.append(DataVolumeRow(alg, without, with_sup))
    reductions, known = (rates.tolist() for rates in user_rates(result))
    ci = (
        confidence_interval_95(reductions)
        if n >= 2
        else (reductions[0], reductions[0])
    )
    volume = DataVolumeResult(
        rows=rows,
        mean_reduction=sum(reductions) / n,
        reduction_ci95=ci,
        mean_known_rate=sum(known) / n,
        mean_false_positives=result.stats.false_positives / n,
        mean_unique_destinations=result.stats.handshakes / n,
    )
    reg = obs.registry()
    if reg is not None:
        for row in volume.rows:
            reg.set_gauge(
                "experiments.fig5.mb_saved",
                row.mb_saved,
                (("algorithm", row.algorithm),),
            )
        reg.set_gauge("experiments.fig5.mean_reduction", volume.mean_reduction)
        reg.set_gauge("experiments.fig5.mean_known_rate", volume.mean_known_rate)
        reg.set_gauge(
            "experiments.fig5.mean_false_positives", volume.mean_false_positives
        )
    return volume


def format_data_volume(result: DataVolumeResult) -> str:
    rows = [
        [
            r.algorithm,
            f"{r.mb_without:.2f}",
            f"{r.mb_with:.2f}",
            f"{r.mb_saved:.2f}",
            f"{100 * r.reduction:.1f}%",
        ]
        for r in result.rows
    ]
    table = format_table(
        ["algorithm", "MB w/o sup", "MB w/ sup", "MB saved", "reduction"],
        rows,
        title="Fig. 5-left — ICA data per browsing session (mean over users)",
    )
    footer = (
        f"\nmean reduction {100 * result.mean_reduction:.1f}% "
        f"[95% CI {100 * result.reduction_ci95[0]:.1f}-"
        f"{100 * result.reduction_ci95[1]:.1f}] "
        f"(paper ~{100 * PAPER_REDUCTION:.0f}%), known-ICA rate "
        f"{100 * result.mean_known_rate:.1f}% (paper 69-74%), "
        f"false positives/user {result.mean_false_positives:.1f} "
        f"(paper 2.3), unique destinations "
        f"{result.mean_unique_destinations:.0f} (paper ~1950)"
    )
    return table + footer


# ---------------------------------------------------------------------------
# Center panel: PQ latency over RSA-2048 vs RTT, with linear fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatencyModel:
    algorithm: str
    rtts_s: List[float]
    extra_latency_s: List[float]
    fit: LinearFit


def latency_models(
    algorithms: Sequence[str] = ("dilithium5", "sphincs-128f"),
    baseline: str = "rsa-2048",
    kem: str = PAPER_KEM,
    num_icas: int = 2,
    rtts_s: Sequence[float] = (0.01, 0.02, 0.04, 0.08, 0.12, 0.2, 0.3),
    tcp: TCPConfig = TCPConfig(),
) -> List[LatencyModel]:
    """Extra handshake latency of each PQ algorithm over the baseline as
    a function of RTT, plus the paper's linear-regression model."""
    base_alg = get_signature_algorithm(baseline)
    base_cpu = crypto_cpu_seconds(base_alg, kem)
    ch_b, flight_b = flight_sizes(baseline, kem, num_icas, True)
    models = []
    for name in algorithms:
        alg = get_signature_algorithm(name)
        cpu = crypto_cpu_seconds(alg, kem)
        ch, flight = flight_sizes(name, kem, num_icas, True)
        extras = []
        for rtt in rtts_s:
            d_pq = handshake_duration_s(ch, flight, rtt, tcp, cpu)
            d_base = handshake_duration_s(ch_b, flight_b, rtt, tcp, base_cpu)
            extras.append(d_pq - d_base)
        models.append(
            LatencyModel(
                algorithm=name,
                rtts_s=list(rtts_s),
                extra_latency_s=extras,
                fit=linear_fit(list(rtts_s), extras),
            )
        )
    return models


def format_latency_models(models: Sequence[LatencyModel]) -> str:
    rtts = models[0].rtts_s
    rows = []
    for m in models:
        rows.append(
            [
                m.algorithm,
                *(f"{1000 * e:.0f}" for e in m.extra_latency_s),
                f"{m.fit.slope:.2f}",
                f"{1000 * m.fit.intercept:.1f}",
                f"{m.fit.r_squared:.3f}",
            ]
        )
    return format_table(
        ["algorithm"]
        + [f"rtt={1000 * r:.0f}ms" for r in rtts]
        + ["slope", "icept ms", "R^2"],
        rows,
        title="Fig. 5-center — extra latency over RSA-2048 (ms) and linear fit",
    )


# ---------------------------------------------------------------------------
# Right panel: TTFB distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TTFBScenario:
    algorithm: str
    suppressed: bool
    summary: Summary


@dataclass(frozen=True)
class FirstAttempts:
    """Every handshake of a cohort (user-major, first-contact order) as
    its first attempt at the preload state: destination rank, RTT, ICAs
    on the path, ICAs sent after suppression, and whether a suppressed
    ICA was a false positive."""

    ranks: np.ndarray
    rtt_s: np.ndarray
    icas: np.ndarray
    icas_sent: np.ndarray
    false_positive: np.ndarray


def first_attempts(engine: CohortEngine) -> FirstAttempts:
    """Gather the engine's per-handshake cells block by block; outcomes
    come from the path facts of the preload state."""
    facts = engine.facts
    parts = []
    for block in engine.blocks():
        draw = engine.draw_block(block)
        ordinals = draw.ordinals[draw.first]
        # Narrow dtypes: a population-scale cohort has millions of cells
        # (the fact columns are narrow already).
        depth = facts.depth[ordinals]
        parts.append(
            (
                draw.ranks[draw.first].astype(np.int32),
                draw.rtt_s[draw.first],
                depth,
                depth - facts.nhits[ordinals],
                facts.fp[ordinals],
            )
        )
    return FirstAttempts(*(np.concatenate(column) for column in zip(*parts)))


def ttfb_samples(
    attempts: FirstAttempts,
    algorithm: str,
    suppressed: bool,
    *,
    extension_bytes: int,
    lookup_s: float,
) -> np.ndarray:
    """One TTFB per handshake under a scenario, per the paper's method:
    the flight model (``PAPER_KEM`` key share, OCSP staple and SCTs,
    default initial window) vectorised over the RTT column; suppression
    adds the ``extension_bytes`` to the ClientHello and ``lookup_s``, and
    a false positive doubles the TTFB."""
    cpu = crypto_cpu_seconds(get_signature_algorithm(algorithm), PAPER_KEM)
    icas_sent = attempts.icas_sent if suppressed else attempts.icas
    ttfb = np.empty_like(attempts.rtt_s)
    for n in np.unique(icas_sent).tolist():
        ch, flight = flight_sizes(algorithm, PAPER_KEM, n, True)
        if suppressed:
            ch += extension_bytes
        cells = icas_sent == n
        ttfb[cells] = time_to_first_byte_s(
            ch, flight, attempts.rtt_s[cells], TCPConfig(), cpu
        )
    if suppressed:
        ttfb += lookup_s
        ttfb[attempts.false_positive] *= 2
    return ttfb


def ttfb_scenarios(
    engine: CohortEngine,
    algorithms: Sequence[str] = ("rsa-2048", "dilithium5", "sphincs-128f"),
    lookup_s: Optional[float] = None,
) -> List[TTFBScenario]:
    """TTFB distributions per scenario, pooled over the cohort's
    :func:`first_attempts`; ``lookup_s`` defaults to the measured lookup
    cost of the advertised filter."""
    if lookup_s is None:
        lookup_s = lookup_seconds(parse_extension_payload(engine.payload))
    attempts = first_attempts(engine)
    extension_bytes = len(engine.payload) + EXTENSION_FRAMING_BYTES
    return [
        TTFBScenario(
            alg,
            suppressed,
            summarize(
                ttfb_samples(
                    attempts,
                    alg,
                    suppressed,
                    extension_bytes=extension_bytes,
                    lookup_s=lookup_s,
                )
            ),
        )
        for alg in algorithms
        for suppressed in (False, True)
    ]


def format_ttfb(scenarios: Sequence[TTFBScenario]) -> str:
    rows = []
    for s in scenarios:
        rows.append(
            [
                s.algorithm,
                "suppressed" if s.suppressed else "full",
                f"{1000 * s.summary.median:.0f}",
                f"{1000 * s.summary.mean:.0f}",
                f"{1000 * s.summary.p90:.0f}",
                f"{1000 * s.summary.p99:.0f}",
            ]
        )
    return format_table(
        ["algorithm", "scenario", "median ms", "mean ms", "p90 ms", "p99 ms"],
        rows,
        title="Fig. 5-right — TTFB per scenario (all handshakes pooled)",
    )
