"""Frozen-seed regression pins for the churn cohort engines.

``golden_churn_stats.json`` was generated once from the engine at the PR
that introduced it and is **never regenerated**: it pins the integer
aggregate stats of three fixed-seed churn cohorts, so any change to the
lifecycle RNG streams, the churn cohort protocol (generation cadence,
preload refresh, pooled learning, flagged-context broadcast) or the
accounting shows up as a diff against numbers that are in git history.
Floats are excluded on purpose — the integer stats depend only on the
seeded event stream and filter bytes, not on libm.
"""

import json
import os

import pytest

from repro.webmodel.churn import ChurnConfig
from repro.webmodel.churn_columnar import (
    ChurnCohortConfig,
    run_churn_cohort,
)
from repro.webmodel.churn_reference import run_churn_cohort_reference

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden_churn_stats.json"
)

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)


def golden_config(seed):
    spec = GOLDEN["config"]
    return ChurnCohortConfig(
        world=ChurnConfig(
            steps=spec["steps"],
            num_sites=spec["num_sites"],
            payload_refresh_every=spec["payload_refresh_every"],
            ica_validity_steps=spec["ica_validity_steps"],
            filter_kind=spec["filter_kind"],
            fpp=spec["fpp"],
            seed=seed,
        ),
        num_clients=spec["num_clients"],
        handshakes_per_client=spec["handshakes_per_client"],
    )


def int_stats(result):
    return {
        "handshakes": result.handshakes,
        "completed": result.completed,
        "fp_retries": result.fp_retries,
        "fallbacks": result.fallbacks,
        "failures": result.failures,
        "stale_advertised": sum(s.stale_advertised for s in result.steps),
        "icas_encountered": sum(s.icas_encountered for s in result.steps),
        "icas_suppressed": sum(s.icas_suppressed for s in result.steps),
        "wire_bytes": result.total_wire_bytes,
        "events": len(result.events),
        "icas_issued": sum(s.icas_issued for s in result.steps),
        "icas_cross_signed": sum(s.icas_cross_signed for s in result.steps),
        "icas_revoked": sum(s.icas_revoked for s in result.steps),
        "icas_expired_swept": sum(s.icas_expired_swept for s in result.steps),
        "preload_added": sum(s.preload_added for s in result.steps),
        "payload_refreshes": sum(s.payload_refreshes for s in result.steps),
        "site_rotations": sum(s.site_rotations for s in result.steps),
    }


@pytest.mark.parametrize("seed", sorted(GOLDEN["seeds"]))
def test_columnar_engine_reproduces_frozen_stats(seed):
    result = run_churn_cohort(golden_config(int(seed)))
    assert int_stats(result) == GOLDEN["seeds"][seed]


def test_scalar_reference_reproduces_frozen_stats():
    """The goldens pin the *protocol*, not one implementation: the
    untouched per-handshake TLS machine lands on the same frozen numbers
    (one seed — this path runs every cell through real crypto)."""
    result = run_churn_cohort_reference(golden_config(0))
    assert int_stats(result) == GOLDEN["seeds"]["0"]


def test_goldens_exercise_every_lifecycle_feature():
    """The pinned runs are not vacuous: every seed revokes, rotates,
    cross-signs, sweeps expiries, refreshes preloads, serves stale
    payloads and pays FP retries — with zero hard failures."""
    for seed, stats in GOLDEN["seeds"].items():
        assert stats["fp_retries"] > 0, seed
        assert stats["failures"] == 0, seed
        assert stats["icas_revoked"] > 0, seed
        assert stats["icas_cross_signed"] > 0, seed
        assert stats["icas_expired_swept"] > 0, seed
        assert stats["preload_added"] > 0, seed
        assert stats["site_rotations"] > 0, seed
        assert stats["stale_advertised"] > 0, seed
        assert stats["icas_suppressed"] > 0, seed
