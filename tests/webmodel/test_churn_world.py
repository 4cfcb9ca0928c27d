"""The shared PKI-lifecycle world: config validation, cross-sign
identity, and seed handling through the cohort engine."""

import pytest

from repro.errors import ConfigurationError
from repro.webmodel.churn import ChurnConfig, ChurnWorld
from repro.webmodel.churn_columnar import ChurnCohortConfig, run_churn_cohort


def test_bad_world_configs_rejected():
    with pytest.raises(ConfigurationError, match="num_roots"):
        ChurnWorld(ChurnConfig(num_roots=0))
    with pytest.raises(ConfigurationError, match="initial_icas"):
        ChurnWorld(ChurnConfig(initial_icas=1))
    with pytest.raises(ConfigurationError, match="steps"):
        ChurnWorld(ChurnConfig(steps=-1))


def test_cross_signs_share_subject_not_fingerprint():
    config = ChurnConfig(steps=12, seed=7, ica_validity_steps=8)
    world = ChurnWorld(config)
    for step in range(config.steps):
        world.advance(step)
    multi = [r for r in world.records if len(r.variants) > 1]
    assert multi
    for record in multi:
        certs = [cert for cert, _ in record.variants]
        assert len({c.subject for c in certs}) == 1
        assert len({c.fingerprint() for c in certs}) == len(certs)


def test_huge_derived_seed_is_repeatable():
    """Regression: with a 63-bit seed the memoized filter builds used to
    rehydrate with a truncated hash seed, so the first run in a process
    disagreed with every later one."""
    config = ChurnCohortConfig(
        world=ChurnConfig(steps=4, seed=2343948629979923722), num_clients=8
    )
    first = run_churn_cohort(config)
    second = run_churn_cohort(config)
    assert first.steps == second.steps
    assert first.suppression_rate > 0.5
