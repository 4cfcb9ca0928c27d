"""Scalar reference for the cohort engine: N independent session machines.

The differential anchor of :mod:`repro.webmodel.cohort`, in the same
spirit as ``tests/amq/_reference.py`` pinning the bucket engine: every
user is simulated one handshake at a time through the **untouched** TLS
substrate — :func:`repro.tls.session.run_handshake` with a real
:class:`~repro.core.suppression.ClientSuppressor`,
:class:`~repro.core.suppression.ServerSuppressor` and per-destination
:class:`~repro.tls.server.ServerConfig` — while consuming exactly the
per-user counter-based RNG streams of :mod:`repro.webmodel.cohortrng`.
Because every draw is a pure function of ``(stream key, user, slot)``,
this runner and the columnar engine see identical destination sequences
and RTTs, and :func:`repro.webmodel.cohort.finalize_cohort` reduces both
to byte-identical :class:`~repro.webmodel.cohort.CohortResult` objects —
which ``tests/webmodel/test_cohort_vs_scalar.py`` asserts.

Protocol notes (must mirror the cohort session protocol exactly):

* the advertised extension payload is a *snapshot* — the ClientConfig is
  built with the captured bytes, not the suppressor's live
  ``extension_payload()`` memo — re-captured only at the
  ``payload_refresh_every`` protocol points (the churn engine's
  live-cache / stale-payload idiom);
* the client learns a chain's ICAs only after a false-positive retry
  (``trace.false_positive``), keeping cache divergence from the preload
  state exactly as rare as the engine assumes;
* repeat destinations within a user reuse the session: no handshake, no
  draw consumed (draws are per-slot, not per-event, so skipping consumes
  nothing either way).

This path runs real crypto per handshake, so keep cohorts small — it
exists to pin correctness, not to scale.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.suppression import ClientSuppressor, ServerSuppressor
from repro.errors import SimulationError
from repro.pki.store import IntermediatePreload
from repro.runtime.parallel import derive_seed
from repro.tls.client import ClientConfig
from repro.tls.server import ServerConfig
from repro.tls.session import HandshakeOutcome, RetryCause, run_handshake
from repro.webmodel import cohortrng
from repro.webmodel.cohort import (
    CohortColumns,
    CohortConfig,
    CohortResult,
    cohort_stream_keys,
    column_dtypes,
    finalize_cohort,
    record_cohort_counters,
)
from repro.webmodel.population import ICAPopulation


def run_cohort_reference(
    config: CohortConfig = CohortConfig(),
    population: Optional[ICAPopulation] = None,
) -> CohortResult:
    """Run the cohort as N independent scalar session machines."""
    population = population or ICAPopulation(config.population)
    if config.max_rank > population.ranking.size:
        raise SimulationError(
            f"max_rank {config.max_rank} exceeds the ranking universe "
            f"({population.ranking.size})"
        )
    hot = population.hot_ica_certificates(config.hot_top_n)
    trust_store = population.hierarchy.trust_store()
    server_suppressor = ServerSuppressor(max_cached_filters=8)
    keys = cohort_stream_keys(config.seed)
    slots = config.handshakes_per_user
    users = config.num_users

    paths = population.hierarchy.paths
    columns = CohortColumns.zeros(
        users,
        column_dtypes(
            slots,
            max(path.depth for path in paths),
            max(
                sum(cert.size_bytes() for cert in path.ica_certificates())
                for path in paths
            ),
        ),
    )
    handshakes = columns.handshakes
    retries = columns.retries
    encountered = columns.icas_encountered
    sent_first_count = columns.icas_sent_first
    sent_total_count = columns.icas_sent_total
    bytes_total = columns.ica_bytes_total
    sent_first_bytes = columns.ica_bytes_sent_first
    sent_total_bytes = columns.ica_bytes_sent_total
    learned = columns.learned_icas
    refreshes = columns.payload_refreshes
    divergent = columns.divergent
    rtt_column: List[float] = []
    payload_bytes: Optional[int] = None

    for user in range(users):
        counters = cohortrng.user_counters(user, slots)
        ranks = cohortrng.zipf_ranks(
            cohortrng.uniforms(keys[cohortrng.RANK_STREAM], counters),
            config.zipf_exponent,
            config.max_rank,
        )
        rtts = cohortrng.lognormal_rtt(
            cohortrng.uniforms(keys[cohortrng.RTT_A_STREAM], counters),
            cohortrng.uniforms(keys[cohortrng.RTT_B_STREAM], counters),
            config.rtt_median_s,
            config.rtt_sigma,
        )
        suppressor = ClientSuppressor(
            preload=IntermediatePreload(hot),
            filter_kind=config.filter_kind,
            fpp=config.fpp,
            load_factor=config.load_factor,
            budget_bytes=None,
            seed=config.seed,
        )
        advertised = suppressor.extension_payload()
        if payload_bytes is None:
            payload_bytes = len(advertised)
        seen = set()
        handshake_index = 0
        for slot in range(slots):
            rank = int(ranks[slot])
            if rank in seen:
                continue  # session reuse
            seen.add(rank)
            if (
                config.payload_refresh_every
                and handshake_index > 0
                and handshake_index % config.payload_refresh_every == 0
            ):
                advertised = suppressor.extension_payload()
                refreshes[user] += 1
            credential = population.credential_for_rank(rank)
            chain = credential.chain
            server_config = ServerConfig(
                credential=credential,
                suppression_handler=server_suppressor,
                seed=derive_seed("cohort.server", config.seed, user, slot),
            )
            client_config = ClientConfig(
                trust_store=trust_store,
                hostname=chain.leaf.subject,
                at_time=config.at_time,
                ica_filter_payload=advertised,
                issuer_lookup=suppressor.cache.lookup_issuer,
                seed=derive_seed("cohort.client", config.seed, user, slot),
            )
            trace = run_handshake(client_config, server_config)
            if trace.outcome not in (
                HandshakeOutcome.COMPLETED,
                HandshakeOutcome.COMPLETED_AFTER_RETRY,
            ):
                raise SimulationError(
                    f"cohort reference: user {user} rank {rank} ended "
                    f"{trace.outcome.value}: "
                    f"{trace.final_attempt.failure_reason}"
                )
            first = trace.attempts[0]
            handshakes[user] += 1
            encountered[user] += chain.num_icas
            bytes_total[user] += chain.ica_bytes()
            sent_first_count[user] += chain.num_icas - first.suppressed_ica_count
            sent_first_bytes[user] += first.ica_bytes_sent
            sent_total_count[user] += sum(
                chain.num_icas - attempt.suppressed_ica_count
                for attempt in trace.attempts
            )
            sent_total_bytes[user] += trace.ica_bytes_sent
            rtt_column.append(float(rtts[slot]))
            if trace.false_positive:
                if first.retry_cause is not RetryCause.SERVER_SUPPRESSION_FP:
                    raise SimulationError(
                        f"cohort reference: unexpected retry cause "
                        f"{first.retry_cause!r}"
                    )
                retries[user] += 1
                divergent[user] = True
                learned[user] += suppressor.learn_from(chain)
            handshake_index += 1

    if payload_bytes is None:  # pragma: no cover - users >= 1 by config
        payload_bytes = 0
    record_cohort_counters(columns, destinations=users * slots)
    return finalize_cohort(
        config, columns, np.array(rtt_column, dtype=np.float64), payload_bytes
    )
