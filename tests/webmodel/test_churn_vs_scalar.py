"""Differential pinning of the columnar churn engine.

The contract (``repro.webmodel.churn_columnar`` docstring): for any churn
cohort config, the columnar engine — generation-bucketed bulk probes,
one representative handshake per distinct context broadcast over every
cell of that context, flagged (retrying, falling back) contexts
included — and the scalar reference
(:mod:`repro.webmodel.churn_reference`), which runs every cell through
the untouched per-handshake TLS machine, reduce to *equal*
:class:`~repro.webmodel.churn_columnar.ChurnCohortResult` objects:
config, every per-epoch :class:`~repro.webmodel.churn.StepMetrics`
(suppression, FP retries, fallbacks, failures, staleness, wire bytes)
and the whole lifecycle event stream.

Hypothesis drives that over cohort size × epochs × ICA validity × filter
family × fpp × ``payload_refresh_every`` × seed.  The deterministic anchors then force
the interesting paths — stale generations paying real FP retries, high
fpp probe false positives — so the property suite cannot pass vacuously
on all-clean draws.  The premise tests pin why broadcast is exact: the
anchors hold flagged contexts that several cells share, the per-cell
client/server seeds of such a context never change its trace stats, and
payloads of one length and one chain hit share a trace (the payload half
of the memo key; the site half is pinned in
``tests/integration/test_churn_experiment.py::TestTraceMemo``).
"""

import dataclasses
import functools
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ConfigurationError, SimulationError
from repro.tls.session import HandshakeOutcome
from repro.webmodel import churn_columnar
from repro.webmodel.churn import ChurnConfig
from repro.webmodel.churn_columnar import (
    ChurnCohortConfig,
    ChurnCohortState,
    _trace_stats,
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
    # Horizons past the ICA validity: expiry, renewal and rotation happen
    # while the trace memo is reused across epochs.
    steps=st.integers(min_value=1, max_value=12),
    ica_validity_steps=st.integers(min_value=3, max_value=8),
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


_ANCHOR_FAMILIES = ("cuckoo", "bloom", "vacuum")


def _stale_anchor(filter_kind):
    return _config(
        num_clients=12,
        handshakes_per_client=2,
        steps=10,
        payload_refresh_every=6,
        filter_kind=filter_kind,
        seed=7,
    )


@pytest.mark.parametrize("filter_kind", _ANCHOR_FAMILIES)
def test_stale_generations_pay_retries_in_both_engines(filter_kind):
    """A deterministic high-staleness run per filter family that *must*
    broadcast flagged contexts: stale generations keep advertising
    revoked ICAs, lagging sites suppress them, and the handshake pays the
    paper's false-positive retry — identically in both engines."""
    result = assert_equivalent(_stale_anchor(filter_kind))
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


def test_expiring_icas_match_scalar_reference():
    """A horizon four ICA lifetimes long: the cache sweeps expired ICAs,
    sites rotate onto renewed ones and the trace memo is reused across
    those epochs — identically in both engines."""
    config = _config(
        num_clients=8, handshakes_per_client=2, steps=12,
        ica_validity_steps=3, payload_refresh_every=3, seed=1,
    )
    result = assert_equivalent(config)
    assert sum(m.icas_expired_swept for m in result.steps) > 0
    assert sum(m.site_rotations for m in result.steps) > 0
    assert result.completed > 0


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
    with pytest.raises(ConfigurationError):
        ChurnCohortConfig(num_clients=0)
    with pytest.raises(ConfigurationError):
        ChurnCohortConfig(handshakes_per_client=0)
    with pytest.raises(ConfigurationError):
        ChurnCohortConfig(world=ChurnConfig(payload_refresh_every=0))
    with pytest.raises(ConfigurationError):
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


def _cell_outcomes(config, monkeypatch):
    """Per-context cell outcomes of the scalar reference: ``{(step,
    generation, site): [outcome per cell]}``."""
    outcomes = {}
    real = ChurnCohortState.run_representative
    k = config.world.payload_refresh_every

    def recording(state, step, client, slot, site_index, payload):
        trace = real(state, step, client, slot, site_index, payload)
        key = (step, client % k, site_index)
        outcomes.setdefault(key, []).append(trace.outcome)
        return trace

    with monkeypatch.context() as patch:
        patch.setattr(ChurnCohortState, "run_representative", recording)
        run_churn_cohort_reference(config)
    return outcomes


def test_anchors_hold_flagged_contexts_shared_by_several_cells(monkeypatch):
    """Broadcast premise: the differential anchors contain flagged
    contexts (retry, fallback, failure) that more than one cell meets,
    with one outcome for all of them — otherwise engine equality would
    not exercise broadcasting a flagged representative at all."""
    shared = Counter()
    for family in _ANCHOR_FAMILIES:
        for cells in _cell_outcomes(_stale_anchor(family), monkeypatch).values():
            if cells[0] is not HandshakeOutcome.COMPLETED:
                assert len(set(cells)) == 1
                if len(cells) > 1:
                    shared[family] += 1
    assert sum(shared.values()) > 0, shared


@functools.lru_cache(maxsize=None)
def _first_flagged_epoch():
    """Drive a stale anchor's cohort state to its first epoch holding
    flagged contexts; returns ``(state, step, [(site, payload), ...])``.
    Learning takes every site that completed (a valid protocol state;
    the property below is about the TLS machine, not the draw)."""
    state = ChurnCohortState(_stale_anchor("cuckoo"))
    for step in range(state.config.world.steps):
        state.begin_epoch(step)
        flagged, succeeded = [], set()
        for payload, _ in state.captures:
            for site in range(state.config.world.num_sites):
                trace = state.run_representative(step, 0, 0, site, payload)
                if trace.outcome is not HandshakeOutcome.COMPLETED:
                    flagged.append((site, payload))
                if trace.succeeded:
                    succeeded.add(site)
        if flagged:
            return state, step, flagged
        state.finish_epoch(succeeded)
    raise AssertionError("the stale anchor never flags a context")


@given(
    data=st.data(),
    cells=st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(0, 7)),
        min_size=2, max_size=2, unique=True,
    ),
)
@settings(max_examples=20, deadline=None)
def test_cell_seeds_never_change_a_flagged_contexts_trace_stats(data, cells):
    """Two cells of one flagged context differ only in their
    ``derive_seed`` client/server seeds, which set no lengths and no
    outcome — so their trace stats are identical and broadcasting the
    representative's stats is exact."""
    state, step, flagged = _first_flagged_epoch()
    site, payload = data.draw(st.sampled_from(flagged))
    (client_a, slot_a), (client_b, slot_b) = cells
    a = state.run_representative(step, client_a, slot_a, site, payload)
    b = state.run_representative(step, client_b, slot_b, site, payload)
    assert a.outcome is not HandshakeOutcome.COMPLETED
    assert _trace_stats(a) == _trace_stats(b)


def _payload_pair_stats(filter_kind):
    """Drive a stale anchor's cohort state epoch by epoch and pair up its
    distinct generation payloads per site; yields ``(same_len, same_hit,
    stats_a, stats_b, flagged)`` for every pair, where ``same_hit`` says
    the two payloads agree on the bulk-probe hit for the site and
    ``flagged`` that the first one's handshake was not clean."""
    state = ChurnCohortState(_stale_anchor(filter_kind))
    for step in range(state.config.world.steps):
        state.begin_epoch(step)
        site_fps = [fps[0] for fps in state.site_chain_fingerprints()]
        payloads = sorted({payload for payload, _ in state.captures})
        traces, succeeded = {}, set()
        for payload in payloads:
            hits = probe_image(payload, site_fps)
            for site in range(len(site_fps)):
                trace = state.run_representative(step, 0, 0, site, payload)
                traces[payload, site] = (trace, hits[site])
                if trace.succeeded:
                    succeeded.add(site)
        for i, a in enumerate(payloads):
            for b in payloads[i + 1:]:
                for site in range(len(site_fps)):
                    trace_a, hit_a = traces[a, site]
                    trace_b, hit_b = traces[b, site]
                    yield (
                        len(a) == len(b),
                        hit_a == hit_b,
                        _trace_stats(trace_a),
                        _trace_stats(trace_b),
                        trace_a.outcome is not HandshakeOutcome.COMPLETED,
                    )
        state.finish_epoch(succeeded)


def test_payloads_of_one_length_and_hit_share_a_trace():
    """Trace-memo premise: within an epoch a site's handshake reads the
    advertised payload only through its length (ClientHello bytes) and
    the server's membership hit on the served ICA.  Two different payload
    images that agree on both give equal trace stats — flagged contexts
    included — while a length change moves the wire bytes, which is why
    the length is in the key."""
    shared, flagged, length_pairs = Counter(), 0, 0
    for family in _ANCHOR_FAMILIES:
        for same_len, same_hit, a, b, is_flagged in _payload_pair_stats(family):
            if same_len and same_hit:
                assert a == b
                shared[family] += 1
                flagged += is_flagged
            elif not same_len:
                assert a[5] != b[5]
                length_pairs += 1
    assert all(shared[family] > 0 for family in _ANCHOR_FAMILIES), shared
    assert flagged > 0
    assert length_pairs > 0


def test_multi_intermediate_chain_is_a_typed_error():
    """One ICA per served chain is what the bulk probe and the trace
    memo key read; a site serving two must raise, not be keyed on its
    first intermediate."""
    engine = churn_columnar.ChurnCohortEngine(_config(num_clients=4, steps=2))
    tape = engine.state.tape
    frame = tape.frame(0)
    site = frame.sites[0]
    chain = site.credential.chain
    other = frame.sites[1].credential.chain.intermediates[0]
    doubled = site._replace(
        credential=dataclasses.replace(
            site.credential,
            chain=dataclasses.replace(
                chain, intermediates=chain.intermediates + (other,)
            ),
        )
    )
    tape.frames[0] = dataclasses.replace(
        frame, sites=(doubled,) + frame.sites[1:]
    )
    with pytest.raises(SimulationError, match=f"{site.hostname} serves 2"):
        engine.run_epoch(0)


def test_probe_disagreeing_with_the_representative_is_a_typed_error(monkeypatch):
    """The bulk probe is an invariant check on the broadcast: a
    representative whose first attempt suppressed something other than
    what the generation's probe says must raise, not broadcast."""
    real = probe_image

    def flipped(payload, fingerprints):
        hits = real(payload, fingerprints)
        return (not hits[0],) + hits[1:]

    monkeypatch.setattr(churn_columnar, "probe_image", flipped)
    with pytest.raises(SimulationError, match="bulk probe"):
        run_churn_cohort(_config(num_clients=12, steps=3, seed=7))
