"""Determinism and caching invariants of the Fig. 5 session runtime.

The contracts this file pins down:

* sessions (cohort users) are pure functions of (config, user index):
  fresh engines and cache-bypassed engines all agree, and distinct users
  draw distinct sessions;
* artifact-cache hits never change handshake byte accounting — a warm
  handshake reports the same ``client_hello_bytes`` /
  ``server_flight_bytes`` / ``ica_bytes_sent`` as a cold or cache-bypassed
  one;
* a warm repeat of the same handshakes performs zero redundant DER
  encodes.
"""

import pytest

from repro.core.suppression import ClientSuppressor, ServerSuppressor
from repro.experiments.fig5 import fig5_config
from repro.pki.store import IntermediatePreload
from repro.runtime import artifacts
from repro.tls.server import ServerConfig
from repro.tls.session import run_handshake
from repro.webmodel.cohort import CohortEngine, first_contact_ranks
from repro.webmodel.population import ICAPopulation, PopulationConfig


def _small_config(seed, filter_kind="cuckoo"):
    return fig5_config(users=2, draws=30, seed=seed, filter_kind=filter_kind)


# ---------------------------------------------------------------------------
# Run determinism
# ---------------------------------------------------------------------------


def test_runs_are_distinct_per_index():
    config = _small_config(5)
    a, b = (first_contact_ranks(config, user).tolist() for user in (0, 1))
    assert a != b  # different users, different sessions


def test_same_seed_same_results_across_simulators():
    r1 = CohortEngine(_small_config(7)).run()
    assert CohortEngine(_small_config(7)).run() == r1


def test_disabled_caches_reproduce_session_result(bypass_artifact_caches):
    enabled_result = CohortEngine(_small_config(9)).run()
    with bypass_artifact_caches():
        disabled_result = CohortEngine(_small_config(9)).run()
    assert disabled_result == enabled_result


# ---------------------------------------------------------------------------
# Plain handshakes over the population: cache hits never change bytes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def world():
    """A population plus a preloaded client, as a browsing session sees
    them (built once: the population issues real credentials)."""
    population = ICAPopulation(PopulationConfig(seed=9))
    suppressor = ClientSuppressor(
        preload=IntermediatePreload(population.hot_ica_certificates()),
        seed=9,
    )
    return population, suppressor, population.hierarchy.trust_store()


def _attempt_bytes(world, rank):
    population, suppressor, trust_store = world
    credential = population.credential_for_rank(rank)
    server_config = ServerConfig(
        credential=credential,
        suppression_handler=ServerSuppressor(),
        seed=7,
    )
    client_config = suppressor.client_config(
        trust_store,
        hostname=credential.chain.leaf.subject,
        kem_name="ntru-hps-509",
        at_time=1_000,
        seed=9,
    )
    trace = run_handshake(client_config, server_config)
    assert trace.succeeded
    first = trace.attempts[0]
    return (
        first.client_hello_bytes,
        first.server_flight_bytes,
        first.ica_bytes_sent,
    )


def test_cache_hits_do_not_change_handshake_bytes(world, bypass_artifact_caches):
    artifacts.clear()
    cold = _attempt_bytes(world, rank=1)
    warm = _attempt_bytes(world, rank=1)  # same handshake, now cache-served
    with bypass_artifact_caches():
        bypassed = _attempt_bytes(world, rank=1)
    assert cold == warm == bypassed


# ---------------------------------------------------------------------------
# Warm runs perform zero redundant DER encodes
# ---------------------------------------------------------------------------


def test_warm_session_repeat_encodes_no_der(world):
    ranks = range(1, 13)
    first = [_attempt_bytes(world, rank) for rank in ranks]
    before = artifacts.stats()["der_encode"]["misses"]
    second = [_attempt_bytes(world, rank) for rank in ranks]
    after = artifacts.stats()["der_encode"]["misses"]
    assert second == first
    assert after == before, f"warm repeat performed {after - before} DER encodes"
