"""Differential pinning of the columnar cohort engine.

The contract (``repro.webmodel.cohort`` docstring): for any cohort
config, the columnar engine and the scalar reference — N independent
per-handshake TLS machines consuming the same counter-based RNG streams
(:mod:`repro.webmodel.cohort_reference`) — reduce to *equal*
:class:`~repro.webmodel.cohort.CohortResult` objects: aggregate
suppression-byte stats, retry counts (all ``RetryCause.SERVER_SUPPRESSION_FP``
by construction; the reference raises on any other cause), per-user
handshake-outcome histograms, and the per-handshake RTT column.

The suite drives that over (cohort size, chain mix/month, filter family,
payload refresh cadence, seed) with Hypothesis, on the reduced shared PKI
from ``tests/_fixtures.py`` — a 160-ICA universe with a 40-ICA hot head,
so tail destinations routinely present unknown ICAs and, at the high fpp
values sampled here, real false-positive retries (the divergent-user
slow path) are exercised, not just the all-fast-path case.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests._fixtures import reduced_population_config, shared_population

from repro.webmodel.cohort import (
    CohortConfig,
    cohort_json_doc,
    run_cohort,
)
from repro.webmodel.cohort_reference import run_cohort_reference

MONTHS = ("Jun. '22", "Jan. '22")
FAMILIES = ("cuckoo", "bloom", "vacuum", "counting-bloom", "quotient", "xor")
#: Small hot head => probes against unknown-ICA paths are common; the
#: sampled fpp values then make deterministic per-fingerprint false
#: positives likely enough to hit the divergent replay path regularly.
HOT_TOP_N = 40


def _population(month):
    return shared_population(reduced_population_config(month=month))


def _config(**overrides):
    month = overrides.pop("month", MONTHS[0])
    base = dict(
        num_users=6,
        handshakes_per_user=4,
        hot_top_n=HOT_TOP_N,
        fpp=0.25,
        population=reduced_population_config(month=month),
    )
    base.update(overrides)
    return CohortConfig(**base)


def outcome_histogram(result):
    """Per-user handshake-outcome histogram: multiset of
    (completed, completed_after_retry) pairs across the cohort."""
    completed = result.columns.handshakes - result.columns.retries
    return Counter(zip(completed.tolist(), result.columns.retries.tolist()))


def assert_equivalent(config):
    population = _population(config.population.month)
    engine = run_cohort(config, jobs=1, population=population)
    reference = run_cohort_reference(config, population=population)
    # Full equality: config, every per-user column, the RTT column and
    # the aggregate stats (including suppression bytes and retry counts).
    assert engine == reference
    assert outcome_histogram(engine) == outcome_histogram(reference)
    assert cohort_json_doc(engine) == cohort_json_doc(reference)
    return engine


cohort_configs = st.builds(
    _config,
    num_users=st.integers(min_value=1, max_value=14),
    handshakes_per_user=st.integers(min_value=1, max_value=5),
    filter_kind=st.sampled_from(FAMILIES),
    fpp=st.sampled_from((0.25, 0.02)),
    payload_refresh_every=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=3),
    month=st.sampled_from(MONTHS),
    block_users=st.sampled_from((3, 16_384)),
)


@given(config=cohort_configs)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_any_cohort_matches_scalar_reference(config):
    assert_equivalent(config)


@pytest.mark.parametrize("filter_kind", FAMILIES)
def test_fp_retries_equal_per_filter_family(filter_kind):
    """A deterministic high-fpp cohort per family that *must* take the
    divergent replay path — guards the Hypothesis suite against passing
    vacuously on all-fast-path draws."""
    config = _config(
        num_users=40,
        handshakes_per_user=6,
        filter_kind=filter_kind,
        fpp=0.25,
        seed=1,
    )
    engine = assert_equivalent(config)
    assert engine.stats.retries > 0
    assert engine.stats.divergent_users > 0
    assert engine.stats.learned_icas > 0
    assert engine.stats.completed_after_retry == engine.stats.retries


def test_payload_refresh_cohort_matches_reference():
    """Stale-payload refresh points are protocol state shared by both
    engines; a refreshing cohort with retries must still agree exactly."""
    config = _config(
        num_users=30, handshakes_per_user=6, payload_refresh_every=2, seed=2
    )
    engine = assert_equivalent(config)
    assert engine.stats.payload_refreshes > 0


def test_retry_accounting_is_internally_consistent():
    """Every retry is a server-suppression false positive (the reference
    raises on any other RetryCause), pays a full-chain resend, and the
    affected user is flagged divergent."""
    config = _config(num_users=40, handshakes_per_user=6, seed=1)
    engine = assert_equivalent(config)
    stats = engine.stats
    assert stats.false_positives == stats.retries
    assert stats.attempts == stats.handshakes + stats.retries
    assert stats.icas_sent_total >= stats.icas_sent_first
    assert stats.ica_bytes_sent_total >= stats.ica_bytes_sent_first
    retried = engine.columns.retries > 0
    assert bool(np.all(engine.columns.divergent[retried]))
    # Suppression-byte ledger closes: first-flight sent + suppressed
    # equals total encountered.
    assert (
        stats.ica_bytes_sent_first + stats.ica_bytes_suppressed_first
        == stats.ica_bytes_total
    )


def test_session_reuse_is_dedup_by_destination():
    """Repeat draws of a rank reuse the session in both engines: the
    handshake count equals the number of *distinct* ranks per user."""
    config = _config(num_users=12, handshakes_per_user=5, seed=3)
    engine = assert_equivalent(config)
    stats = engine.stats
    assert stats.destinations == config.num_users * config.handshakes_per_user
    assert stats.handshakes + stats.session_reuse == stats.destinations
    assert len(engine.rtt_s) == stats.handshakes
