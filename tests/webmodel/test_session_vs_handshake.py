"""Differential anchor: Fig. 5's per-handshake view vs the real TLS machine.

:func:`repro.experiments.fig5.first_attempts` reads every handshake's
first attempt at the preload state from the cohort engine's per-path
facts instead of running it.  This file keeps the per-destination
handshake loop as the executable spec: each user's destinations and RTTs
drawn slot by slot from the cohort's counter-based streams, repeat
destinations dropped, and one :func:`run_handshake` per handshake with a
real :class:`ClientSuppressor` (at the preload state: it never learns) /
:class:`ServerSuppressor` pair, the outcome read off the trace.  The two
must agree field for field, for every filter family, at an fpp high
enough that false positives (and their retries) actually occur.
"""

import pytest

from repro.core.suppression import ClientSuppressor, ServerSuppressor
from repro.experiments.fig5 import fig5_config, first_attempts
from repro.pki.store import IntermediatePreload
from repro.runtime.parallel import derive_seed
from repro.tls.server import ServerConfig
from repro.tls.session import RetryCause, run_handshake
from repro.webmodel import cohortrng
from repro.webmodel.cohort import CohortEngine
from repro.webmodel.population import ICAPopulation

SEEDS = (1, 2, 3)
FAMILIES = ("bloom", "counting-bloom", "cuckoo", "vacuum", "quotient", "xor")
USERS = 2
DRAWS = 60
FPP = 0.05


def view_outcomes(engine):
    """The view's per-handshake rows: (rank, ICAs, ICAs sent, FP, RTT)."""
    attempts = first_attempts(engine)
    return list(
        zip(
            attempts.ranks.tolist(),
            attempts.icas.tolist(),
            attempts.icas_sent.tolist(),
            attempts.false_positive.tolist(),
            attempts.rtt_s.tolist(),
        )
    )


def handshake_outcomes(config, population):
    """The same rows, one real handshake per unique destination."""
    rank_key = cohortrng.stream_key(cohortrng.RANK_STREAM, config.seed)
    rtt_a = cohortrng.stream_key(cohortrng.RTT_A_STREAM, config.seed)
    rtt_b = cohortrng.stream_key(cohortrng.RTT_B_STREAM, config.seed)
    suppressor = ClientSuppressor(
        preload=IntermediatePreload(
            population.hot_ica_certificates(config.hot_top_n)
        ),
        filter_kind=config.filter_kind,
        fpp=config.fpp,
        load_factor=config.load_factor,
        budget_bytes=None,
        seed=config.seed,
    )
    trust_store = population.hierarchy.trust_store()
    server_suppressor = ServerSuppressor()
    outcomes = []
    for user in range(config.num_users):
        counters = cohortrng.user_counters(user, config.handshakes_per_user)
        ranks = cohortrng.zipf_ranks(
            cohortrng.uniforms(rank_key, counters),
            config.zipf_exponent,
            config.max_rank,
        ).tolist()
        rtts = cohortrng.lognormal_rtt(
            cohortrng.uniforms(rtt_a, counters),
            cohortrng.uniforms(rtt_b, counters),
            config.rtt_median_s,
            config.rtt_sigma,
        ).tolist()
        seen = set()
        for slot, (rank, rtt) in enumerate(zip(ranks, rtts)):
            if rank in seen:
                continue
            seen.add(rank)
            credential = population.credential_for_rank(rank)
            chain = credential.chain
            server_config = ServerConfig(
                credential=credential,
                suppression_handler=server_suppressor,
                seed=derive_seed("fig5.server", config.seed, user, slot),
            )
            client_config = suppressor.client_config(
                trust_store,
                hostname=chain.leaf.subject,
                kem_name="ntru-hps-509",
                at_time=config.at_time,
                seed=derive_seed("fig5.client", config.seed, user, slot),
            )
            trace = run_handshake(client_config, server_config)
            assert trace.succeeded, trace.final_attempt.failure_reason
            first = trace.attempts[0]
            if trace.false_positive:
                assert first.retry_cause is RetryCause.SERVER_SUPPRESSION_FP
            outcomes.append(
                (
                    rank,
                    chain.num_icas,
                    chain.num_icas - first.suppressed_ica_count,
                    trace.false_positive,
                    rtt,
                )
            )
    return outcomes


@pytest.fixture(scope="module")
def compared():
    """(seed, family) -> (view outcomes, handshake outcomes), one shared
    population per seed."""
    cases = {}
    for seed in SEEDS:
        population = None
        for filter_kind in FAMILIES:
            config = fig5_config(
                users=USERS, draws=DRAWS, seed=seed, filter_kind=filter_kind, fpp=FPP
            )
            population = population or ICAPopulation(config.population)
            engine = CohortEngine(config, population=population)
            cases[seed, filter_kind] = (
                view_outcomes(engine),
                handshake_outcomes(config, population),
            )
    return cases


@pytest.mark.parametrize("filter_kind", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_outcomes_match_real_handshakes(compared, seed, filter_kind):
    view, reference = compared[seed, filter_kind]
    assert view == reference


def test_differential_cases_exercise_false_positives(compared):
    false_positives = sum(
        fp for _, reference in compared.values() for *_, fp, _ in reference
    )
    assert false_positives >= 1
