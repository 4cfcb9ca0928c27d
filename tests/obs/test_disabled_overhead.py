"""The "metrics off means near-zero cost" contract, on the Fig. 5 sessions.

Every instrumented call site pays a global read and a ``None`` check when
the registry is disabled. This file prices that on the browsing-session
workload: it counts the recording events the workload fires with metrics
on, multiplies by the measured cost of one disabled ``obs.inc`` call and
holds the total under ``MAX_DISABLED_OVERHEAD`` of the unmetered wall
time. It also pins that turning metrics on changes no ``SessionResult``.
"""

import time

import pytest

from repro import obs
from repro.runtime import artifacts
from repro.webmodel.population import ICAPopulation, PopulationConfig
from repro.webmodel.session_sim import BrowsingSessionSimulator, SessionConfig

RUNS = 8
DOMAINS = 100

#: Simulated AMQ lookup cost, pinned so both arms model identical time
#: (the default is wall-clock measured per simulator instance).
LOOKUP_SECONDS = 1e-7

#: Ceiling on the estimated cost of the disabled instrumentation, as a
#: fraction of the unmetered wall time.
MAX_DISABLED_OVERHEAD = 0.02


def _simulator():
    """A fresh population and simulator over cold artifact caches."""
    artifacts.clear()
    return BrowsingSessionSimulator(
        SessionConfig(seed=1, num_domains=DOMAINS),
        population=ICAPopulation(PopulationConfig(seed=1)),
        lookup_seconds=LOOKUP_SECONDS,
    )


def _disabled_inc_seconds(calls=200_000):
    """Measured per-call cost of ``obs.inc`` with the registry disabled."""
    start = time.perf_counter()
    for _ in range(calls):
        obs.inc("test.overhead.probe")
    return (time.perf_counter() - start) / calls


@pytest.fixture(scope="module")
def arms():
    """(unmetered results, unmetered wall seconds, metered results,
    instrumentation event count, disabled ``obs.inc`` seconds)."""
    obs.disable()
    sim = _simulator()
    start = time.perf_counter()
    plain = sim.run_many(RUNS)
    wall = time.perf_counter() - start
    inc_s = _disabled_inc_seconds()
    sim = _simulator()
    # One registry, no scoped capture, so ``events`` counts every
    # recording call the workload fires.
    reg = obs.enable()
    try:
        metered = [sim.run(i) for i in range(RUNS)]
        events = reg.events
    finally:
        obs.disable()
    return plain, wall, metered, events, inc_s


def test_metrics_do_not_change_session_results(arms):
    plain, _, metered, _, _ = arms
    assert metered == plain


def test_metered_sessions_record_events(arms):
    _, _, _, events, _ = arms
    assert events > 0


def test_disabled_instrumentation_stays_under_ceiling(arms):
    _, wall, _, events, inc_s = arms
    overhead = events * inc_s / wall
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled instrumentation estimated at {overhead:.3%} of the "
        f"unmetered wall > {MAX_DISABLED_OVERHEAD:.0%} ceiling"
    )
