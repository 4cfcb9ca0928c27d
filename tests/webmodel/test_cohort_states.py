"""The cohort engine's client-state machine (the divergent-user replay).

A replay user's filter and cache are pure functions of the preload and
the ordered batches it learned, so the engine memoizes states, probes
and transitions and shares them across users.  These tests pin the
sharing (one payload parse per distinct state, counted independently
from the scalar reference's own learning sequences) and the memory bound
(a tiny LRU still reproduces the reference exactly).
"""

from collections import defaultdict

import pytest

from tests._fixtures import reduced_population_config, shared_population

from repro.core.suppression import ClientSuppressor
from repro.runtime import artifacts
from repro.webmodel import cohort
from repro.webmodel.cohort import CohortConfig, CohortEngine
from repro.webmodel.cohort_reference import run_cohort_reference


@pytest.fixture(autouse=True)
def _clean_caches():
    artifacts.clear()
    yield
    artifacts.clear()


def _config(**overrides):
    base = dict(
        hot_top_n=40,
        fpp=0.25,
        payload_refresh_every=2,
        seed=1,
        population=reduced_population_config(),
    )
    base.update(overrides)
    return CohortConfig(**base)


def _reference_census(monkeypatch, config, population):
    """Run the scalar reference, recording each user's learned chains.

    Returns ``(result, states, refresh_keys)``: every distinct ordered
    learned-chain sequence (prefixes included, ``()`` is the preload) and
    every distinct ``(state at the last capture, state at this capture)``
    payload refresh."""
    learned = defaultdict(list)
    captures = defaultdict(list)
    learn_from = ClientSuppressor.learn_from
    extension_payload = ClientSuppressor.extension_payload

    def recording_learn_from(self, chain):
        learned[self].append(tuple(chain.ica_fingerprints()))
        return learn_from(self, chain)

    def recording_extension_payload(self):
        captures[self].append(tuple(learned[self]))
        return extension_payload(self)

    with monkeypatch.context() as patch:
        patch.setattr(ClientSuppressor, "learn_from", recording_learn_from)
        patch.setattr(ClientSuppressor, "extension_payload", recording_extension_payload)
        result = run_cohort_reference(config, population=population)
    states = {()}
    for sequence in learned.values():
        states.update(tuple(sequence[:n]) for n in range(1, len(sequence) + 1))
    refresh_keys = {
        (before, after)
        for sequence in captures.values()
        for before, after in zip(sequence, sequence[1:])
    }
    return result, states, refresh_keys


def test_users_in_one_state_share_one_parse(monkeypatch):
    config = _config(num_users=120, handshakes_per_user=6)
    population = shared_population(config.population)
    reference, states, refresh_keys = _reference_census(
        monkeypatch, config, population
    )
    # Several divergent users reach the same state: sharing is exercised.
    assert reference.stats.divergent_users > len(states) > 1

    parses = []
    parse = cohort.parse_extension_payload

    def counting_parse(payload):
        parses.append(payload)
        return parse(payload)

    monkeypatch.setattr(cohort, "parse_extension_payload", counting_parse)
    result = CohortEngine(config, population=population).run(jobs=1)
    assert result == reference
    assert len(parses) <= len(states) + len(refresh_keys)


def test_small_lru_bound_stays_exact(monkeypatch):
    bound = 3
    monkeypatch.setattr(cohort, "_STATE_MEMO_ENTRIES", bound)
    config = _config(num_users=60, handshakes_per_user=16, zipf_exponent=1.01)
    population = shared_population(config.population)
    engine = CohortEngine(config, population=population)
    result = engine.run(jobs=1)
    machine = engine._machine
    memos = (machine._states, machine._probes, machine._steps)
    # Most users diverge along their own learned sequence, so the bound
    # forces evictions and rebuilds of evicted states.
    assert result.stats.divergent_users > config.num_users // 2
    assert machine._states.misses > bound
    assert all(len(memo) <= bound for memo in memos)
    assert result == run_cohort_reference(config, population=population)
