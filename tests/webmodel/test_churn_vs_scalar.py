"""Differential pinning of the columnar churn engine.

The contract (``repro.webmodel.churn_columnar`` docstring): for any churn
cohort config, the columnar engine — generation-bucketed bulk probes,
one representative handshake per (generation, site) context, flagged
contexts replayed cell by cell — and the scalar reference
(:mod:`repro.webmodel.churn_reference`), which runs every cell through
the untouched per-handshake TLS machine, reduce to *equal*
:class:`~repro.webmodel.churn_columnar.ChurnCohortResult` objects:
config, every per-epoch :class:`~repro.webmodel.churn.StepMetrics`
(suppression, FP retries, fallbacks, failures, staleness, wire bytes)
and the whole lifecycle event stream.

Hypothesis drives that over cohort size × epochs × filter family × fpp ×
``payload_refresh_every`` × seed.  The deterministic anchors then force
the interesting paths — stale generations paying real FP retries, high
fpp probe false positives — so the property suite cannot pass vacuously
on all-clean draws.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import SimulationError
from repro.webmodel.churn import ChurnConfig
from repro.webmodel.churn_columnar import (
    ChurnCohortConfig,
    capture_wire_image,
    generation_size,
    probe_image,
    run_churn_cohort,
)
from repro.webmodel.churn_reference import run_churn_cohort_reference


def _config(**overrides):
    world_overrides = {
        k: overrides.pop(k)
        for k in (
            "steps",
            "num_sites",
            "payload_refresh_every",
            "filter_kind",
            "fpp",
            "seed",
            "ica_validity_steps",
            "revocation_rate",
        )
        if k in overrides
    }
    world = ChurnConfig(
        steps=world_overrides.pop("steps", 6),
        num_sites=world_overrides.pop("num_sites", 6),
        ica_validity_steps=world_overrides.pop("ica_validity_steps", 8),
        **world_overrides,
    )
    return ChurnCohortConfig(world=world, **overrides)


def assert_equivalent(config):
    columnar = run_churn_cohort(config)
    reference = run_churn_cohort_reference(config)
    assert columnar == reference
    return columnar


churn_configs = st.builds(
    _config,
    num_clients=st.integers(min_value=1, max_value=10),
    handshakes_per_client=st.integers(min_value=1, max_value=3),
    steps=st.integers(min_value=1, max_value=6),
    filter_kind=st.sampled_from(("cuckoo", "bloom", "vacuum")),
    fpp=st.sampled_from((1e-3, 0.25)),
    payload_refresh_every=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=3),
)


@given(config=churn_configs)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_any_churn_cohort_matches_scalar_reference(config):
    assert_equivalent(config)


@pytest.mark.parametrize("filter_kind", ["cuckoo", "bloom", "vacuum"])
def test_stale_generations_pay_retries_in_both_engines(filter_kind):
    """A deterministic high-staleness run per filter family that *must*
    take the FP-candidate replay path: stale generations keep advertising
    revoked ICAs, lagging sites suppress them, and the handshake pays the
    paper's false-positive retry — identically in both engines."""
    config = _config(
        num_clients=12,
        handshakes_per_client=2,
        steps=10,
        payload_refresh_every=6,
        filter_kind=filter_kind,
        seed=7,
    )
    result = assert_equivalent(config)
    assert result.fp_retries > 0
    assert result.failures == 0
    assert result.stale_advertised_rate > 0.0
    assert result.suppression_rate > 0.5


def test_fresh_generations_never_retry_at_tight_fpp():
    """k=1 re-captures every epoch: the advertised payload always matches
    the canonical cache, so at fpp=1e-3 no handshake pays a retry (the
    fleet engine's freshness property, ported to the cohort)."""
    config = _config(
        num_clients=12, handshakes_per_client=2, steps=10,
        payload_refresh_every=1, seed=7,
    )
    result = assert_equivalent(config)
    assert result.fp_retries == 0
    assert result.fallbacks == 0
    assert result.failures == 0
    assert result.stale_advertised_rate == 0.0


def test_churn_obs_counters_are_engine_invariant():
    """``webmodel.churn.*`` counters are pure sums over the StepMetrics
    series, so the two engines must emit identical values even though
    their ``amq.*``/``tls.*`` work differs wildly."""
    config = _config(
        num_clients=8, handshakes_per_client=2, steps=6,
        payload_refresh_every=4, seed=3,
    )

    def churn_counters(runner):
        with obs.scoped() as scope:
            runner(config)
            return {
                k: v
                for k, v in scope.snapshot()["counters"].items()
                if k[0].startswith("webmodel.churn.")
            }

    columnar = churn_counters(run_churn_cohort)
    reference = churn_counters(run_churn_cohort_reference)
    assert columnar == reference
    assert columnar[("webmodel.churn.handshakes", ())] == 6 * 8 * 2


def test_zero_epochs_is_a_valid_cohort():
    """The degenerate sweep (steps=0) runs: no epochs, no handshakes,
    empty metrics series, zero rates — in both engines."""
    config = _config(steps=0, num_clients=4)
    result = assert_equivalent(config)
    assert result.steps == []
    assert result.handshakes == 0
    assert result.fp_retry_rate == 0.0
    assert result.suppression_rate == 0.0
    assert result.stale_advertised_rate == 0.0
    assert result.fp_retry_curve() == []


def test_cohort_config_validation():
    with pytest.raises(SimulationError):
        ChurnCohortConfig(num_clients=0)
    with pytest.raises(SimulationError):
        ChurnCohortConfig(handshakes_per_client=0)
    with pytest.raises(SimulationError):
        ChurnCohortConfig(world=ChurnConfig(payload_refresh_every=0))
    with pytest.raises(SimulationError):
        # The world still rejects negative horizons.
        run_churn_cohort(_config(steps=-1))


def test_generation_sizes_partition_the_cohort():
    for n in (1, 5, 12, 13):
        for k in (1, 2, 5, 7):
            sizes = [generation_size(g, n, k) for g in range(k)]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1


def test_artifact_cache_hits_replay_probe_and_build_metrics():
    """A cache hit must be metrically indistinguishable from the work it
    skips: capture and probe store their obs deltas and replay them, so
    ``amq.*`` counters stay a pure function of the call sequence."""
    world = ChurnConfig(seed=11)
    fps = [bytes([i]) * 32 for i in range(8)]

    def observed(fn):
        with obs.scoped() as scope:
            value = fn()
            counters = {
                k: v
                for k, v in scope.snapshot()["counters"].items()
                if k[0].startswith("amq.")
            }
        return value, counters

    cold_img, cold_c = observed(lambda: capture_wire_image(world, fps))
    warm_img, warm_c = observed(lambda: capture_wire_image(world, fps))
    assert warm_img == cold_img
    assert warm_c == cold_c

    cold_hits, cold_p = observed(lambda: probe_image(cold_img, fps))
    warm_hits, warm_p = observed(lambda: probe_image(cold_img, fps))
    assert warm_hits == cold_hits
    assert all(cold_hits)
    assert warm_p == cold_p
