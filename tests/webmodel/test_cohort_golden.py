"""Frozen-seed regression pins for the cohort engine.

``golden_cohort_stats.json`` was generated once from the engine at the
PR that introduced it and is **never regenerated**: it pins the integer
aggregate stats of three fixed-seed cohorts, so any change to the RNG
scheme, the session protocol (dedup, refresh points, FP retries) or the
accounting shows up as a diff against numbers that are in git history.
Floats are excluded on purpose — the integer stats depend only on the
counter-RNG bit stream and filter bytes, not on libm.
"""

import json
import os

import pytest

from tests._fixtures import reduced_population_config, shared_population

from repro.webmodel.cohort import CohortConfig, run_cohort
from repro.webmodel.cohort_reference import run_cohort_reference

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden_cohort_stats.json"
)

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)


def golden_config(seed):
    spec = GOLDEN["config"]
    assert spec["population"] == {
        "universe_icas": 160,
        "num_roots": 3,
        "hot_rank_threshold": 40,
        "seed": 7,
    }, "golden population drifted from tests/_fixtures.py"
    return CohortConfig(
        num_users=spec["num_users"],
        handshakes_per_user=spec["handshakes_per_user"],
        hot_top_n=spec["hot_top_n"],
        fpp=spec["fpp"],
        payload_refresh_every=spec["payload_refresh_every"],
        seed=seed,
        population=reduced_population_config(),
    )


def int_stats(result):
    stats = result.stats
    return {
        name: getattr(stats, name)
        for name in type(stats).__dataclass_fields__
        if isinstance(getattr(stats, name), int)
    }


@pytest.mark.parametrize("seed", sorted(GOLDEN["seeds"]))
def test_engine_reproduces_frozen_stats(seed):
    population = shared_population(reduced_population_config())
    result = run_cohort(
        golden_config(int(seed)), jobs=1, population=population
    )
    assert int_stats(result) == GOLDEN["seeds"][seed]


def test_scalar_reference_reproduces_frozen_stats():
    """The goldens pin the *protocol*, not one implementation: the
    untouched per-handshake TLS machine lands on the same frozen numbers
    (one seed — this path runs real crypto)."""
    population = shared_population(reduced_population_config())
    result = run_cohort_reference(golden_config(0), population=population)
    assert int_stats(result) == GOLDEN["seeds"]["0"]


def test_goldens_exercise_every_protocol_feature():
    """The pinned runs are not vacuous: every seed has FP retries,
    divergent users, learning and payload refreshes."""
    for seed, stats in GOLDEN["seeds"].items():
        assert stats["retries"] > 0, seed
        assert stats["divergent_users"] > 0, seed
        assert stats["learned_icas"] > 0, seed
        assert stats["payload_refreshes"] > 0, seed
        assert stats["session_reuse"] > 0, seed
