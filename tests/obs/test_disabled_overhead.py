"""The "metrics off means near-zero cost" contract, on the Fig. 5 cohort.

Every instrumented call site pays a global read and a ``None`` check when
the registry is disabled. This file prices that on the Fig. 5 cohort
workload: it counts the recording events the workload fires with metrics
on, multiplies by the measured cost of one disabled ``obs.inc`` call and
holds the total under ``MAX_DISABLED_OVERHEAD`` of the unmetered wall
time. It also pins that turning metrics on changes no ``CohortResult``.
"""

import contextlib
import time

import pytest

from repro import obs
from repro.runtime import artifacts
from repro.experiments.fig5 import fig5_config
from repro.webmodel.cohort import CohortEngine
from repro.webmodel.population import ICAPopulation

USERS = 8
DRAWS = 2_100

#: Ceiling on the estimated cost of the disabled instrumentation, as a
#: fraction of the unmetered wall time.
MAX_DISABLED_OVERHEAD = 0.02


def _engine():
    """A fresh population and Fig. 5 cohort engine over cold artifact
    caches."""
    artifacts.clear()
    config = fig5_config(users=USERS, draws=DRAWS)
    return CohortEngine(config, population=ICAPopulation(config.population))


def _disabled_inc_seconds(calls=200_000):
    """Measured per-call cost of ``obs.inc`` with the registry disabled."""
    start = time.perf_counter()
    for _ in range(calls):
        obs.inc("test.overhead.probe")
    return (time.perf_counter() - start) / calls


def _counting_scopes(tally):
    """An ``obs.scoped`` that adds each scope's recording calls to
    ``tally``: the run records its counters inside per-block scopes,
    whose events a merge does not carry into the global registry."""
    scoped = obs.scoped

    @contextlib.contextmanager
    def counting():
        with scoped() as scope:
            yield scope
        tally.append(scope.events)

    return counting


@pytest.fixture(scope="module")
def arms():
    """(unmetered results, unmetered wall seconds, metered results,
    instrumentation event count, disabled ``obs.inc`` seconds)."""
    obs.disable()
    engine = _engine()
    start = time.perf_counter()
    plain = engine.run()
    wall = time.perf_counter() - start
    inc_s = _disabled_inc_seconds()
    engine = _engine()
    scope_events = []
    reg = obs.enable()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(obs, "scoped", _counting_scopes(scope_events))
            metered = engine.run()
        # Every recording call lands on exactly one registry: the global
        # one or the innermost scope open at the time.
        events = reg.events + sum(scope_events)
    finally:
        obs.disable()
    return plain, wall, metered, events, inc_s


def test_metrics_do_not_change_session_results(arms):
    # A session is one cohort user: the per-user columns are the results.
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
