"""Browsing-session simulator — the engine behind Fig. 5.

Mirrors the paper's §5.3 methodology: a simulated user visits domains
(Burklen model over the synthetic Tranco ranking) and every *unique*
destination is one suppressed handshake against the client's hot-ICA
preload filter. The client never learns inside a session, so each
destination's outcome — ICAs on its path, how many the advertised filter
suppressed, whether a suppressed ICA was a false positive — is a pure
function of the destination's ICA path under that fixed preload state.
The simulator therefore reads outcomes from the
:class:`~repro.webmodel.cohort.PathFacts` the cohort engine uses: one
``contains_batch`` probe of the advertised wire image over every path,
pinned against the real TLS machine by the cohort's scalar reference and
by ``tests/webmodel/test_session_vs_handshake.py``. Per destination it
records chain composition, suppression outcome and an RTT draw; the
result object then reproduces the paper's three panels:

* Fig. 5-left — ICA bytes exchanged with/without suppression, measured
  for the baseline PKI and extrapolated to the PQ algorithms (exact here,
  because certificate size is ``attrs + pk + sig`` by construction);
* Fig. 5-center — PQ-authentication-induced latency vs RTT (flight
  model), the input to the linear fit;
* Fig. 5-right — TTFB distributions per scenario, with a false positive
  doubling the observed TTFB, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import obs
from repro.core.estimator import crypto_cpu_seconds
from repro.core.extension import EXTENSION_FRAMING_BYTES
from repro.core.suppression import ClientSuppressor
from repro.errors import ConfigurationError
from repro.netsim.latency import LogNormalRTT
from repro.netsim.tcp import TCPConfig, time_to_first_byte_s
from repro.pki.algorithms import get_signature_algorithm
from repro.pki.certificate import DEFAULT_ATTRIBUTE_BYTES
from repro.pki.store import IntermediatePreload
from repro.runtime.parallel import derive_seed
from repro.webmodel.browsing import BrowsingConfig, BrowsingModel
from repro.webmodel.cohort import PathFacts
from repro.webmodel.flight_probe import flight_sizes
from repro.webmodel.population import ICAPopulation, PopulationConfig


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of one browsing-session experiment (§5.3 defaults)."""

    num_domains: int = 200
    filter_kind: str = "cuckoo"
    fpp: float = 1e-3
    load_factor: float = 0.9
    kem_name: str = "ntru-hps-509"
    rtt_median_s: float = 0.045
    rtt_sigma: float = 0.5
    initcwnd_segments: int = 10
    include_staples: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_domains < 1:
            raise ConfigurationError(
                f"num_domains must be >= 1, got {self.num_domains}"
            )


@dataclass(frozen=True)
class DestinationOutcome:
    """One unique destination's suppressed-handshake record."""

    rank: int
    num_icas: int
    icas_sent_first: int
    suppressed_count: int
    false_positive: bool
    rtt_s: float

    @property
    def icas_sent_total(self) -> int:
        """ICA certs transmitted across attempts (a false positive pays
        the partial first attempt plus the full retry)."""
        return self.icas_sent_first + (self.num_icas if self.false_positive else 0)


@dataclass
class SessionResult:
    """Aggregated session metrics with per-algorithm extrapolation."""

    config: SessionConfig
    outcomes: List[DestinationOutcome]
    filter_payload_bytes: int
    filter_lookup_seconds: float

    # -- basic counts ------------------------------------------------------------

    @property
    def unique_destinations(self) -> int:
        return len(self.outcomes)

    @property
    def false_positives(self) -> int:
        return sum(o.false_positive for o in self.outcomes)

    @property
    def total_icas(self) -> int:
        return sum(o.num_icas for o in self.outcomes)

    @property
    def known_ica_rate(self) -> float:
        """Share of encountered ICA certs the filter suppressed (the
        paper's 'common ICA certs' rate, 69-74 %)."""
        total = self.total_icas
        return sum(o.suppressed_count for o in self.outcomes) / total if total else 0.0

    # -- Fig. 5-left: ICA data volume ----------------------------------------------

    def ica_cert_bytes(self, algorithm_name: str) -> int:
        """Per-certificate DER size under ``algorithm_name``."""
        alg = get_signature_algorithm(algorithm_name)
        return alg.auth_bytes_per_certificate(DEFAULT_ATTRIBUTE_BYTES)

    def ica_data_bytes(self, algorithm_name: str, suppressed: bool) -> int:
        per_cert = self.ica_cert_bytes(algorithm_name)
        if suppressed:
            return per_cert * sum(o.icas_sent_total for o in self.outcomes)
        return per_cert * self.total_icas

    def ica_savings_bytes(self, algorithm_name: str) -> int:
        return self.ica_data_bytes(algorithm_name, False) - self.ica_data_bytes(
            algorithm_name, True
        )

    def ica_reduction_ratio(self) -> float:
        """Fractional reduction in exchanged ICA data (algorithm-free:
        every ICA cert has the same size within a deployment)."""
        total = self.total_icas
        if not total:
            return 0.0
        sent = sum(o.icas_sent_total for o in self.outcomes)
        return 1.0 - sent / total

    # -- Fig. 5-right: TTFB -----------------------------------------------------------

    def ttfb_samples(
        self,
        algorithm_name: str,
        suppressed: bool,
        *,
        tcp: Optional[TCPConfig] = None,
        cpu: Optional[float] = None,
    ) -> List[float]:
        """Per-destination TTFB under the scenario, per the paper's
        method: flight-model TTFB, filter-lookup time added when
        suppression is on, and a false positive doubling the TTFB.

        ``tcp``/``cpu`` accept pre-resolved per-algorithm constants so
        scenario sweeps hoist them once per call instead of re-deriving
        them for every result (they must match this result's config).
        """
        if tcp is None:
            tcp = TCPConfig(initcwnd_segments=self.config.initcwnd_segments)
        if cpu is None:
            alg = get_signature_algorithm(algorithm_name)
            cpu = crypto_cpu_seconds(alg, self.config.kem_name)
        samples = []
        for outcome in self.outcomes:
            n_sent = outcome.icas_sent_first if suppressed else outcome.num_icas
            ch, flight = flight_sizes(
                algorithm_name,
                self.config.kem_name,
                n_sent,
                self.config.include_staples,
            )
            if suppressed:
                ch += self.filter_payload_bytes + EXTENSION_FRAMING_BYTES
            ttfb = time_to_first_byte_s(ch, flight, outcome.rtt_s, tcp, cpu)
            if suppressed:
                ttfb += self.filter_lookup_seconds
                if outcome.false_positive:
                    ttfb *= 2
            samples.append(ttfb)
        return samples


class BrowsingSessionSimulator:
    """Runs browsing sessions against a shared population."""

    def __init__(
        self,
        config: SessionConfig = SessionConfig(),
        population: Optional[ICAPopulation] = None,
        lookup_seconds: Optional[float] = None,
    ) -> None:
        self.config = config
        self.population = population or ICAPopulation(
            PopulationConfig(seed=config.seed)
        )
        hot = self.population.hot_ica_certificates()
        self.suppressor = ClientSuppressor(
            preload=IntermediatePreload(hot),
            filter_kind=config.filter_kind,
            fpp=config.fpp,
            load_factor=config.load_factor,
            budget_bytes=None,  # see EXPERIMENTS.md on the 550-byte budget
            seed=config.seed,
        )
        self._facts = PathFacts(self.population, self.suppressor)
        # ``lookup_seconds`` overrides the wall-clock measurement so two
        # simulators can report byte-for-byte identical SessionResults.
        self._lookup_seconds = (
            lookup_seconds
            if lookup_seconds is not None
            else self._measure_lookup_seconds()
        )

    #: Verification-path batch size used to meter per-lookup cost: the
    #: server queries a whole path per handshake via ``contains_batch``,
    #: and synthetic chains carry up to a few ICAs (Table 2 mix).
    _PROBE_PATH_LEN = 4

    def _measure_lookup_seconds(self) -> float:
        """Per-item filter lookup cost as the server pays it: one
        ``contains_batch`` per verification path (not one ``contains``
        per certificate)."""
        import time

        filt = self.suppressor.filter
        probes = [bytes([i % 256]) * 32 for i in range(2000)]
        path = self._PROBE_PATH_LEN
        start = time.perf_counter()
        for offset in range(0, len(probes), path):
            filt.contains_batch(probes[offset : offset + path])
        return (time.perf_counter() - start) / len(probes)

    def run(self, run_index: int = 0) -> SessionResult:
        """Simulate one session (the paper runs 10 with 200 domains)."""
        cfg = self.config
        browsing = BrowsingModel(
            BrowsingConfig(seed=derive_seed("session.browsing", cfg.seed, run_index)),
            ranking=self.population.ranking,
        )
        visits = browsing.session(cfg.num_domains)
        destinations = browsing.unique_destination_ranks(visits)
        rtt_sampler = LogNormalRTT(
            cfg.rtt_median_s,
            cfg.rtt_sigma,
            seed=derive_seed("session.rtt", cfg.seed, run_index),
        )
        facts = self._facts
        ordinals = facts.ordinals(np.asarray(destinations, dtype=np.int64))
        depths = facts.depth[ordinals].tolist()
        hits = facts.nhits[ordinals].tolist()
        fps = facts.fp[ordinals].tolist()
        outcomes = [
            DestinationOutcome(
                rank=rank,
                num_icas=depth,
                icas_sent_first=depth - nhits,
                suppressed_count=nhits,
                false_positive=fp,
                rtt_s=rtt_sampler.sample(),
            )
            for rank, depth, nhits, fp in zip(destinations, depths, hits, fps)
        ]
        reg = obs.registry()
        if reg is not None:
            false_positives = sum(fps)
            reg.inc("webmodel.session.runs")
            reg.inc("webmodel.session.destinations", len(outcomes))
            reg.inc("webmodel.session.icas_encountered", sum(depths))
            reg.inc(
                "webmodel.session.icas_sent_total",
                sum(o.icas_sent_total for o in outcomes),
            )
            reg.inc("webmodel.session.icas_suppressed_first", sum(hits))
            if false_positives:
                reg.inc("webmodel.session.false_positives", false_positives)
            # Negative queries against the filter: the denominator of the
            # observed-FP-rate-vs-eps check.
            reg.inc(
                "webmodel.session.unknown_ica_probes",
                int(facts.unknown[ordinals].sum()),
            )
        return SessionResult(
            config=cfg,
            outcomes=outcomes,
            filter_payload_bytes=len(self.suppressor.extension_payload()),
            filter_lookup_seconds=self._lookup_seconds,
        )

    def run_many(self, runs: int = 10) -> List[SessionResult]:
        """Run ``runs`` sessions (run indices ``0 .. runs-1``)."""
        return [self.run(i) for i in range(runs)]
