"""``webmodel.cohort.*`` counters under the determinism contract.

The cohort engine meters per block through the metered
``parallel_imap`` (serially or on workers), so the merged counters
must be one fixed function of the config — identical for any ``--jobs``
and block size, and identical between the columnar engine and the scalar
reference (which emits the same counters once over the whole cohort).
This is what lets the CI cohort-smoke job diff metrics exports across
engines and job counts.
"""

import pytest

from tests._fixtures import reduced_population_config, shared_population

from repro import obs
from repro.obs.export import deterministic_counters
from repro.runtime import artifacts
from repro.webmodel.cohort import CohortConfig, run_cohort
from repro.webmodel.cohort_reference import run_cohort_reference

CONFIG = dict(
    num_users=40,
    handshakes_per_user=6,
    hot_top_n=40,
    fpp=0.25,
    payload_refresh_every=2,
    seed=1,
)


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    artifacts.clear()
    yield
    obs.disable()
    artifacts.clear()


def _config(block_users=16_384):
    return CohortConfig(
        block_users=block_users,
        population=reduced_population_config(),
        **CONFIG,
    )


def _cohort_counters(run):
    reg = obs.enable()
    stats = run().stats
    flat = {
        name: value
        for name, value in deterministic_counters(reg.snapshot()).items()
        if name.startswith("webmodel.cohort.")
    }
    obs.disable()
    return stats, flat


def test_counters_mirror_the_stats():
    population = shared_population(reduced_population_config())
    stats, flat = _cohort_counters(
        lambda: run_cohort(_config(), jobs=1, population=population)
    )
    assert stats.retries > 0  # the run is not vacuous
    assert flat == {
        "webmodel.cohort.users{}": stats.users,
        "webmodel.cohort.handshakes{}": stats.handshakes,
        "webmodel.cohort.session_reuse{}": stats.session_reuse,
        "webmodel.cohort.retries{cause=server-fp}": stats.retries,
        "webmodel.cohort.false_positives{}": stats.false_positives,
        "webmodel.cohort.icas_encountered{}": stats.icas_encountered,
        "webmodel.cohort.icas_sent_total{}": stats.icas_sent_total,
        "webmodel.cohort.icas_suppressed_first{}": stats.icas_suppressed_first,
        "webmodel.cohort.divergent_users{}": stats.divergent_users,
        "webmodel.cohort.learned_icas{}": stats.learned_icas,
        "webmodel.cohort.payload_refreshes{}": stats.payload_refreshes,
    }


def test_serial_and_parallel_merge_identically():
    population = shared_population(reduced_population_config())
    _, serial = _cohort_counters(
        lambda: run_cohort(_config(), jobs=1, population=population)
    )
    _, parallel = _cohort_counters(
        lambda: run_cohort(_config(block_users=9), jobs=2)
    )
    assert serial == parallel


def test_whole_export_is_identical_across_jobs():
    """Every deterministic counter — the replayed ``amq.*`` and ``core.*``
    work of the divergent users included — is the same at jobs 1 and 2,
    with blocks small enough that each worker's client-state memo holds
    different entries when it serves a user."""
    config = CohortConfig(
        num_users=400,
        handshakes_per_user=6,
        hot_top_n=40,
        fpp=0.25,
        payload_refresh_every=2,
        seed=1,
        block_users=64,
        population=reduced_population_config(),
    )
    population = shared_population(config.population)
    exports = []
    for jobs, shared in ((1, population), (2, None)):
        artifacts.clear()
        reg = obs.enable()
        stats = run_cohort(config, jobs=jobs, population=shared).stats
        exports.append(deterministic_counters(reg.snapshot()))
        obs.disable()
    assert stats.divergent_users > 0
    assert any(name.startswith("amq.") for name in exports[0])
    assert any(name.startswith("core.") for name in exports[0])
    assert exports[0] == exports[1]


def test_scalar_reference_emits_identical_counters():
    population = shared_population(reduced_population_config())
    _, engine = _cohort_counters(
        lambda: run_cohort(_config(), jobs=1, population=population)
    )
    _, reference = _cohort_counters(
        lambda: run_cohort_reference(_config(), population=population)
    )
    assert engine == reference


def test_disabled_obs_records_nothing():
    population = shared_population(reduced_population_config())
    assert not obs.enabled()
    run_cohort(_config(), jobs=1, population=population)
    assert obs.registry() is None
