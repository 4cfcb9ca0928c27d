"""Figure 5 — IC-suppression impact estimation.

Three panels driven by the browsing-session simulator (§5.3: 10 runs x
200 domains, cuckoo filter, 0.9 load factor, 0.1% FPP, the June '22 hot
ICA set):

* **left** — ICA data exchanged with/without suppression, measured for
  the baseline PKI and extrapolated to Dilithium III/V and SPHINCS+-128f
  (paper: ~73% reduction; ~15 MB / ~45 MB saved);
* **center** — PQ-authentication latency over RSA-2048 as a function of
  RTT, with the line-of-best-fit latency model;
* **right** — TTFB distributions per scenario (FP doubles the TTFB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.regression import LinearFit, linear_fit
from repro.analysis.tables import format_table
from repro.core.estimator import crypto_cpu_seconds
from repro.errors import ConfigurationError
from repro.netsim.metrics import Summary, summarize
from repro.netsim.tcp import TCPConfig, handshake_duration_s
from repro.pki.algorithms import get_signature_algorithm
from repro.pki.certificate import DEFAULT_ATTRIBUTE_BYTES
from repro.webmodel.flight_probe import flight_sizes
from repro.webmodel.population import ICAPopulation, PopulationConfig
from repro.webmodel.session_sim import (
    BrowsingSessionSimulator,
    SessionConfig,
    SessionResult,
)

PAPER_REDUCTION = 0.73
PAPER_RUNS = 10
PAPER_DOMAINS = 200


# ---------------------------------------------------------------------------
# Shared simulation driver
# ---------------------------------------------------------------------------


def run_sessions(
    runs: int = PAPER_RUNS,
    num_domains: Optional[int] = None,
    config: Optional[SessionConfig] = None,
    population: Optional[ICAPopulation] = None,
) -> List[SessionResult]:
    """The shared Fig. 5 simulation: ``runs`` browsing sessions.

    ``num_domains`` is a convenience for the default config; combining it
    with an explicit ``config`` whose ``num_domains`` disagrees is a
    conflict and raises (the old behaviour silently rebuilt the config).
    """
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    if config is None:
        config = SessionConfig(
            num_domains=PAPER_DOMAINS if num_domains is None else num_domains,
            seed=1,
        )
    elif num_domains is not None and config.num_domains != num_domains:
        raise ConfigurationError(
            f"conflicting session sizes: config.num_domains="
            f"{config.num_domains} but num_domains={num_domains}; pass one "
            "or use dataclasses.replace(config, num_domains=...)"
        )
    simulator = BrowsingSessionSimulator(config, population=population)
    return simulator.run_many(runs)


def _require_results(results: Sequence[SessionResult]) -> None:
    """Panel reductions are means over runs: reject an empty run list
    instead of dividing by zero or summarizing no samples."""
    if not results:
        raise ConfigurationError("no session results to summarize (runs >= 1)")


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


def data_volume(
    results: Sequence[SessionResult],
    algorithms: Sequence[str] = (
        "rsa-2048",
        "dilithium3",
        "dilithium5",
        "sphincs-128f",
    ),
) -> DataVolumeResult:
    from repro.analysis.stats import confidence_interval_95

    _require_results(results)
    n = len(results)
    # ICA counts are algorithm-free; per-cert size is result-free. Compute
    # each once instead of re-resolving the algorithm (and re-walking the
    # outcomes) inside the per-result loops.
    total_icas = sum(r.total_icas for r in results)
    sent_icas = sum(
        sum(o.icas_sent_total for o in r.outcomes) for r in results
    )
    rows = []
    for alg in algorithms:
        per_cert = get_signature_algorithm(alg).auth_bytes_per_certificate(
            DEFAULT_ATTRIBUTE_BYTES
        )
        without = per_cert * total_icas / n / 1e6
        with_sup = per_cert * sent_icas / n / 1e6
        rows.append(DataVolumeRow(alg, without, with_sup))
    reductions = [r.ica_reduction_ratio() for r in results]
    ci = (
        confidence_interval_95(reductions)
        if n >= 2
        else (reductions[0], reductions[0])
    )
    volume = DataVolumeResult(
        rows=rows,
        mean_reduction=sum(reductions) / n,
        reduction_ci95=ci,
        mean_known_rate=sum(r.known_ica_rate for r in results) / n,
        mean_false_positives=sum(r.false_positives for r in results) / n,
        mean_unique_destinations=sum(r.unique_destinations for r in results) / n,
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
        title="Fig. 5-left — ICA data per browsing session (mean over runs)",
    )
    footer = (
        f"\nmean reduction {100 * result.mean_reduction:.1f}% "
        f"[95% CI {100 * result.reduction_ci95[0]:.1f}-"
        f"{100 * result.reduction_ci95[1]:.1f}] "
        f"(paper ~{100 * PAPER_REDUCTION:.0f}%), known-ICA rate "
        f"{100 * result.mean_known_rate:.1f}% (paper 69-74%), "
        f"false positives/run {result.mean_false_positives:.1f} "
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
    kem: str = "ntru-hps-509",
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


def ttfb_scenarios(
    results: Sequence[SessionResult],
    algorithms: Sequence[str] = ("rsa-2048", "dilithium5", "sphincs-128f"),
) -> List[TTFBScenario]:
    _require_results(results)
    # Hoist per-scenario constants: the signature algorithm, its CPU cost
    # per KEM, and the TCP model are invariant across results, so resolve
    # them once here rather than inside every ttfb_samples call.
    cpu_by_kem: Dict[Tuple[str, str], float] = {}
    tcp_by_cwnd: Dict[int, TCPConfig] = {}
    scenarios = []
    for alg in algorithms:
        sig_alg = get_signature_algorithm(alg)
        for suppressed in (False, True):
            samples: List[float] = []
            for result in results:
                kem = result.config.kem_name
                cpu = cpu_by_kem.get((alg, kem))
                if cpu is None:
                    cpu = crypto_cpu_seconds(sig_alg, kem)
                    cpu_by_kem[(alg, kem)] = cpu
                cwnd = result.config.initcwnd_segments
                tcp = tcp_by_cwnd.get(cwnd)
                if tcp is None:
                    tcp = TCPConfig(initcwnd_segments=cwnd)
                    tcp_by_cwnd[cwnd] = tcp
                samples.extend(
                    result.ttfb_samples(alg, suppressed, tcp=tcp, cpu=cpu)
                )
            scenarios.append(
                TTFBScenario(alg, suppressed, summarize(samples))
            )
    return scenarios


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
        title="Fig. 5-right — TTFB per scenario (all runs pooled)",
    )
