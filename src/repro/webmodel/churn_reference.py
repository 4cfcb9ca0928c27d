"""Scalar reference for the churn cohort protocol.

This runner executes the *same* protocol as
:mod:`repro.webmodel.churn_columnar` — same :class:`ChurnCohortState`
(world tape, canonical cache, generation captures, epoch maintenance,
pooled learning), same counter-based site draws, same per-cell handshake seeds —
but resolves every single cell through the untouched per-handshake TLS
machine, one :func:`~repro.tls.session.run_handshake` at a time, with no
representative broadcasting, no bulk probes and no artifact-cache fast
paths on the accounting side.

It exists to be slow and obviously correct: the differential suite and
the CI churn-smoke assert *full-result equality* (config, every
per-epoch ``StepMetrics``, the whole event stream) between this runner
and the columnar engine, so any vectorization shortcut that changes a
number — a wrong broadcast, a missed FP candidate, a stale-flag slip —
shows up as a failing comparison rather than a silently wrong sweep.

Site draws come from per-client counter rows
(:func:`~repro.webmodel.cohortrng.uniforms` over
``epoch_site_counters(step, n, slots)[client]``), which doubles as a
standing check that the counter layout is sharding-invariant: the scalar
row and the columnar block must yield identical draws by construction.
"""

from __future__ import annotations

from typing import Set

from repro import obs
from repro.webmodel.churn import StepMetrics, record_churn_step
from repro.webmodel.churn_columnar import (
    SITE_STREAM,
    ChurnCohortConfig,
    ChurnCohortResult,
    ChurnCohortState,
    EpochCounts,
    _trace_stats,
    churn_stream_keys,
    epoch_site_counters,
    generation_of,
)
from repro.webmodel.cohortrng import uniforms


def _reference_epoch(
    state: ChurnCohortState, site_key: int, step: int
) -> StepMetrics:
    cfg = state.config.world
    n = state.config.num_clients
    slots = state.config.handshakes_per_client
    k = state.generations

    counts: EpochCounts = state.begin_epoch(step)
    stale = state.stale_generations()

    completed = fp_retries = fallbacks = failures = 0
    suppressed = wire_bytes = encountered = stale_advertised = 0
    succeeded_sites: Set[int] = set()

    epoch_counters = epoch_site_counters(step, n, slots)
    for client in range(n):
        generation = generation_of(client, k)
        payload = state.captures[generation][0]
        draws = uniforms(site_key, epoch_counters[client])
        for slot in range(slots):
            site_index = min(
                int(draws[slot] * cfg.num_sites), cfg.num_sites - 1
            )
            trace = state.run_representative(
                step, client, slot, site_index, payload
            )
            c, r, fb, fail, sup, wire = _trace_stats(trace)
            completed += c
            fp_retries += r
            fallbacks += fb
            failures += fail
            suppressed += sup
            wire_bytes += wire
            chain = state.sites[site_index].credential.chain
            encountered += chain.num_icas
            if stale[generation]:
                stale_advertised += 1
            if trace.succeeded:
                succeeded_sites.add(site_index)

    state.finish_epoch(succeeded_sites)
    metrics = StepMetrics(
        step=step,
        icas_issued=counts.icas_issued,
        icas_cross_signed=counts.icas_cross_signed,
        icas_revoked=counts.icas_revoked,
        icas_expired_swept=counts.icas_expired_swept,
        preload_added=counts.preload_added,
        payload_refreshes=counts.payload_refreshes,
        site_rotations=counts.site_rotations,
        handshakes=n * slots,
        completed=completed,
        fp_retries=fp_retries,
        fallbacks=fallbacks,
        failures=failures,
        stale_advertised=stale_advertised,
        icas_encountered=encountered,
        icas_suppressed=suppressed,
        wire_bytes=wire_bytes,
        distribution_bytes=counts.distribution_bytes,
    )
    record_churn_step(metrics)
    return metrics


def run_churn_cohort_reference(
    config: ChurnCohortConfig = ChurnCohortConfig(),
) -> ChurnCohortResult:
    """Run the churn cohort protocol cell by cell on the scalar machine."""
    state = ChurnCohortState(config)
    site_key = churn_stream_keys(config.world.seed)[SITE_STREAM]
    steps = []
    with obs.span(
        "webmodel.churn.run", (("filter", config.world.filter_kind),)
    ):
        for step in range(config.world.steps):
            steps.append(_reference_epoch(state, site_key, step))
    return ChurnCohortResult(
        config=config, steps=steps, events=state.events
    )
