"""The shared PKI-lifecycle world: config validation, cross-sign
identity, world-tape frames, and seed handling through the cohort
engine."""

import pytest

from repro.errors import ConfigurationError
from repro.pki.revocation import RevocationList
from repro.webmodel.churn import ChurnConfig, ChurnWorld, WorldTape
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


def _fingerprints(certs):
    return [c.fingerprint() for c in certs]


def _chains(sites):
    return [
        (
            s.hostname,
            _fingerprints(
                (s.credential.chain.leaf,)
                + s.credential.chain.intermediates
                + (s.credential.chain.root,)
            ),
        )
        for s in sites
    ]


def test_tape_frames_match_a_freshly_advanced_world():
    """Frames are snapshots: with the whole horizon already recorded,
    frame t still shows what a fresh world shows at step t — site
    chains, CRL membership of every certificate on record, the live set
    on preload steps and the step's events."""
    config = ChurnConfig(
        steps=12, seed=7, ica_validity_steps=8, revocation_rate=0.8
    )
    tape = WorldTape(config)
    tape.frame(config.steps - 1)
    assert len(tape.frames) == config.steps

    world = ChurnWorld(config)
    assert _fingerprints(tape.initial_certificates) == _fingerprints(
        world.initial_certificates()
    )
    assert _chains(tape.initial_sites) == _chains(world.sites)
    assert tape.initial_events == tuple(world.events)
    crl = RevocationList()
    revoked = rotations = preload_steps = 0
    for step in range(config.steps):
        frame = tape.frame(step)
        events = len(world.events)
        assert frame.counts == world.advance(step)
        assert _chains(frame.sites) == _chains(world.sites)
        for cert in frame.revocations:
            crl.revoke(cert)
        for record in world.records:
            for cert, _ in record.variants:
                assert crl.is_revoked(cert) == world.crl.is_revoked(cert)
        if step and step % config.preload_refresh_every == 0:
            assert _fingerprints(frame.live) == _fingerprints(
                world.live_certificates(step)
            )
            preload_steps += 1
        else:
            assert frame.live is None
        assert frame.events == tuple(world.events[events:])
        revoked += len(frame.revocations)
        rotations += frame.counts[3]
    assert revoked and rotations and preload_steps


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
