"""Determinism and caching invariants of the session runtime.

The contracts this file pins down:

* sessions are pure functions of (config, run index): repeated runs,
  fresh simulators and cache-bypassed simulators all agree;
* artifact-cache hits never change handshake byte accounting — a warm
  handshake reports the same ``client_hello_bytes`` /
  ``server_flight_bytes`` / ``ica_bytes_sent`` as a cold or cache-bypassed
  one;
* a warm repeat of the same handshakes performs zero redundant DER
  encodes.
"""

import pytest

from repro.core.suppression import ClientSuppressor, ServerSuppressor
from repro.pki.store import IntermediatePreload
from repro.runtime import artifacts
from repro.tls.server import ServerConfig
from repro.tls.session import run_handshake
from repro.webmodel.population import ICAPopulation, PopulationConfig
from repro.webmodel.session_sim import BrowsingSessionSimulator, SessionConfig


def _small_config(seed, filter_kind="cuckoo"):
    return SessionConfig(seed=seed, num_domains=6, filter_kind=filter_kind)


# ---------------------------------------------------------------------------
# Run determinism
# ---------------------------------------------------------------------------


def test_run_many_zero_runs():
    sim = BrowsingSessionSimulator(_small_config(5))
    assert sim.run_many(0) == []


def test_runs_are_distinct_per_index():
    sim = BrowsingSessionSimulator(_small_config(5))
    a, b = sim.run_many(2)
    assert a.outcomes != b.outcomes  # different run indices, different sessions


def test_same_seed_same_results_across_simulators():
    r1 = BrowsingSessionSimulator(_small_config(7)).run(0)
    sim2 = BrowsingSessionSimulator(_small_config(7))
    sim2._lookup_seconds = r1.filter_lookup_seconds
    assert sim2.run(0) == r1


def test_disabled_caches_reproduce_session_result(bypass_artifact_caches):
    sim = BrowsingSessionSimulator(_small_config(9))
    enabled_result = sim.run(0)
    with bypass_artifact_caches():
        sim2 = BrowsingSessionSimulator(
            _small_config(9), lookup_seconds=sim._lookup_seconds
        )
        disabled_result = sim2.run(0)
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
