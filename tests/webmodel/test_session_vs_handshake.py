"""Differential anchor: browsing-session outcomes vs the real TLS machine.

``BrowsingSessionSimulator`` reads each destination's outcome from the
cohort engine's per-path facts instead of running a handshake.  This
file keeps the per-destination handshake loop as the executable spec:
the same browsing and RTT streams, one :func:`run_handshake` per unique
destination with a real :class:`ClientSuppressor` /
:class:`ServerSuppressor` pair, and the outcome read off the trace.  The
two must agree field for field, for every filter family, at an fpp high
enough that false positives (and their retries) actually occur.
"""

import pytest

from repro.core.suppression import ServerSuppressor
from repro.netsim.latency import LogNormalRTT
from repro.runtime.parallel import derive_seed
from repro.tls.server import ServerConfig
from repro.tls.session import RetryCause, run_handshake
from repro.webmodel.browsing import BrowsingConfig, BrowsingModel
from repro.webmodel.population import ICAPopulation, PopulationConfig
from repro.webmodel.session_sim import (
    BrowsingSessionSimulator,
    DestinationOutcome,
    SessionConfig,
)

SEEDS = (1, 2, 3)
FAMILIES = ("bloom", "counting-bloom", "cuckoo", "vacuum", "quotient", "xor")
RUNS = (0, 1)
FPP = 0.05
NUM_DOMAINS = 6


def handshake_outcomes(sim, run_index):
    """The session's outcomes, one real handshake per unique destination."""
    cfg = sim.config
    population = sim.population
    browsing = BrowsingModel(
        BrowsingConfig(seed=derive_seed("session.browsing", cfg.seed, run_index)),
        ranking=population.ranking,
    )
    destinations = browsing.unique_destination_ranks(
        browsing.session(cfg.num_domains)
    )
    rtt_sampler = LogNormalRTT(
        cfg.rtt_median_s,
        cfg.rtt_sigma,
        seed=derive_seed("session.rtt", cfg.seed, run_index),
    )
    trust_store = population.hierarchy.trust_store()
    server_suppressor = ServerSuppressor()
    outcomes = []
    for i, rank in enumerate(destinations):
        credential = population.credential_for_rank(rank)
        chain = credential.chain
        server_config = ServerConfig(
            credential=credential,
            suppression_handler=server_suppressor,
            seed=derive_seed("session.server", cfg.seed, run_index, i),
        )
        client_config = sim.suppressor.client_config(
            trust_store,
            hostname=chain.leaf.subject,
            kem_name=cfg.kem_name,
            at_time=1_000,
            seed=derive_seed("session.client", cfg.seed, run_index, i),
        )
        trace = run_handshake(client_config, server_config)
        assert trace.succeeded, trace.final_attempt.failure_reason
        first = trace.attempts[0]
        if trace.false_positive:
            assert first.retry_cause is RetryCause.SERVER_SUPPRESSION_FP
        outcomes.append(
            DestinationOutcome(
                rank=rank,
                num_icas=chain.num_icas,
                icas_sent_first=chain.num_icas - first.suppressed_ica_count,
                suppressed_count=first.suppressed_ica_count,
                false_positive=trace.false_positive,
                rtt_s=rtt_sampler.sample(),
            )
        )
    return outcomes


@pytest.fixture(scope="module")
def compared():
    """(seed, family) -> [(engine outcomes, handshake outcomes)] per run,
    one shared population per seed."""
    cases = {}
    for seed in SEEDS:
        population = ICAPopulation(PopulationConfig(seed=seed))
        for filter_kind in FAMILIES:
            sim = BrowsingSessionSimulator(
                SessionConfig(
                    seed=seed,
                    num_domains=NUM_DOMAINS,
                    filter_kind=filter_kind,
                    fpp=FPP,
                ),
                population=population,
                lookup_seconds=0.0,
            )
            cases[seed, filter_kind] = [
                (sim.run(run_index).outcomes, handshake_outcomes(sim, run_index))
                for run_index in RUNS
            ]
    return cases


@pytest.mark.parametrize("filter_kind", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_outcomes_match_real_handshakes(compared, seed, filter_kind):
    for run_index, (engine, reference) in zip(RUNS, compared[seed, filter_kind]):
        assert engine == reference, f"run {run_index} diverged"


def test_differential_cases_exercise_false_positives(compared):
    false_positives = sum(
        o.false_positive
        for runs in compared.values()
        for _, reference in runs
        for o in reference
    )
    assert false_positives >= 1
