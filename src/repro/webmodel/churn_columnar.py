"""Columnar time-stepped churn engine: staleness sweeps on the column machine.

This is the churn sweep on the same column machine as the Fig. 5 cohort
engine (:mod:`repro.webmodel.cohort`): N clients advance as numpy columns
across churn *epochs* (the world's steps), and the per-epoch handshake
work collapses from ``N × slots`` scalar TLS sessions to one bulk
membership probe per payload *generation* plus one representative
handshake per distinct ``(site context, payload length, chain hit)``
context.

**The churn cohort protocol.** Both this engine and its executable scalar
spec (:mod:`repro.webmodel.churn_reference`) implement the exact same
model, which pools per-client caches into a cohort-wide canonical
trajectory so that it vectorizes:

* One :class:`~repro.webmodel.churn.ChurnWorld` supplies the lifecycle
  event stream (issuance / cross-sign / revoke / rotate), byte-identical
  across engines because the world is shared code and RNG streams.  The
  cohort reads it through a :class:`~repro.webmodel.churn.WorldTape`:
  per step, the ``advance`` counts, the certificates revoked, the served
  sites, the live set on preload-refresh steps and the step's events,
  recorded as snapshots the first time any reader reaches the step.
  Everything the cohort mutates — its CRL, its event list, its server
  suppressor — stays on :class:`ChurnCohortState`.
* One canonical :class:`~repro.core.cache.ICACache` stands for every
  client's cache: per epoch it sweeps expiries, applies the CRL, takes
  the periodic preload refresh, and at epoch end learns the ICAs of every
  site that completed at least one handshake (ascending site order,
  deduplicated) — the pooled form of per-client learn-on-success.
* Clients split into ``k = payload_refresh_every`` payload *generations*
  by ``client % k``.  At epoch ``t`` generation ``(-t) mod k`` re-captures
  its advertised wire image from the canonical cache (client ``c``
  refreshes when ``(t + c) % k == 0``); the other generations keep
  serving their stale capture.  Staleness is therefore a *generation*
  property, which is what lets a whole bucket share one filter image and
  one bulk probe.
* Per epoch, each client draws ``handshakes_per_client`` target sites
  from the counter-based ``churn.site`` stream
  (:mod:`repro.webmodel.cohortrng`), so the draw for ``(epoch, client,
  slot)`` is a pure function computable columnarly here and scalar-wise
  in the reference, in any process and any sharding.

**Vectorization strategy.**  The TLS trace of a handshake is a pure
function of its context: the :data:`SiteContext` plus the advertised
payload's length and the chain's probe hit.  The client carries the
advertised payload only as ClientHello extension bytes, so only its
length reaches the trace; the server reads it only through
:class:`~repro.core.suppression.ServerSuppressor`, whose membership test
on the served chain — the generation's bulk-probe hit for the site —
decides what is suppressed.  The rest is fixed by the key: the site
index (its hostname feeds SNI), the served leaf, ICA and root; the path
the client's :func:`~repro.pki.chain.complete_path` builds from the
canonical cache when the ICA is suppressed (or that it cannot); and
whether each of those certificates is valid at the epoch's time.  The
trust store is fixed per world and the client checks no CRL.  Every other
length in the trace is fixed by algorithm parameters, not by the
per-handshake seed — the property the differential suite pins.  So the
engine runs *one* representative handshake per context through the
untouched :func:`~repro.tls.session.run_handshake` and broadcasts its
trace arithmetic over the context's population count — clean contexts
and flagged ones (FP retries, fallbacks, failures) alike; no cell is
replayed on its own.  Each occurring generation probes its filter image
against the epoch's unique chain set with one ``contains_batch`` call;
the hits key the contexts, and the representative's first attempt must
suppress exactly what the probe hits, or the epoch raises
:class:`~repro.errors.SimulationError`.  Every served chain must hold
exactly one ICA (one hit per site); a longer chain raises too.

The caller may share a :class:`ChurnMemo` between engines. It holds one
world tape per world config with the generation count normalised away
(which the world never reads), and per such config a trace memo
(:data:`TraceMemo`) keyed by the context. The key holds no epoch: a
later epoch whose served chain, completed path and validity flags for a
site match an earlier one's reuses its traces, and generations whose
images differ but agree on length and hit share one handshake. The
staleness levels of one trial share a world, so an experiment that hands
its levels one memo builds and advances the world once and runs each
distinct context once per trial. A trace miss stores the handshake's
obs-counter deltas and every hit replays them, so ``tls.*`` counters do
not depend on which cell or worker ran the handshake; the world emits no
counters, so replaying its frames needs no such step.

Wire images come from the one memoized AMQ build
(:func:`repro.amq.serialization.build_image`, cached in
:data:`repro.runtime.artifacts.FILTER_BUILDS`) and bulk probes are
memoized in :data:`~repro.runtime.artifacts.CHURN_PROBES`: the key is the
cache *content* (ordered fingerprints) plus filter parameters, so
repeated trials, staleness levels sharing a trajectory prefix, and
``--jobs`` workers all rehydrate one build.  Both caches store the
obs-counter deltas of the work they skip and replay them on every hit
(:func:`repro.runtime.artifacts.memoized`), preserving the serial ==
parallel determinism contract for ``amq.*``/``tls.*`` counters.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.amq.delta import (
    DeltaApplier,
    DeltaPublisher,
    FilterSnapshot,
    delta_overhead_bytes,
    deserialize_delta,
)
from repro.amq.serialization import build_image
from repro.core.cache import ICACache
from repro.core.extension import parse_extension_payload
from repro.core.filter_config import plan_filter
from repro.core.suppression import ServerSuppressor
from repro.errors import ChainValidationError, ConfigurationError, SimulationError
from repro.pki.chain import complete_path
from repro.pki.revocation import RevocationList
from repro.runtime import artifacts
from repro.runtime.parallel import derive_seed
from repro.tls.client import ClientConfig
from repro.tls.server import ServerConfig
from repro.tls.session import HandshakeOutcome, HandshakeTrace, run_handshake
from repro.webmodel.churn import (
    ChurnConfig,
    ChurnResult,
    ServedSite,
    StepMetrics,
    WorldTape,
    record_churn_step,
)
from repro.webmodel.cohortrng import block_counters, stream_key, uniforms

#: Stream namespace of the per-(epoch, client, slot) site draw.
SITE_STREAM = "churn.site"


@dataclass(frozen=True)
class ChurnCohortConfig:
    """A churn cohort: a lifecycle world plus a column of clients.

    ``world`` carries every ecosystem knob (steps become the cohort's
    epochs; ``payload_refresh_every`` becomes the generation count); the
    cohort's population is ``num_clients`` columns drawing
    ``handshakes_per_client`` sites per epoch.
    """

    world: ChurnConfig = field(default_factory=ChurnConfig)
    num_clients: int = 64
    handshakes_per_client: int = 2

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ConfigurationError(
                f"num_clients must be >= 1, got {self.num_clients}"
            )
        if self.handshakes_per_client < 1:
            raise ConfigurationError(
                f"handshakes_per_client must be >= 1, got "
                f"{self.handshakes_per_client}"
            )
        if self.world.payload_refresh_every < 1:
            raise ConfigurationError(
                f"payload_refresh_every must be >= 1, got "
                f"{self.world.payload_refresh_every}"
            )
        if self.world.distribution not in ("full", "delta"):
            raise ConfigurationError(
                f"distribution must be 'full' or 'delta', got "
                f"{self.world.distribution!r}"
            )


@dataclass
class ChurnCohortResult(ChurnResult):
    """Same shape as :class:`~repro.webmodel.churn.ChurnResult` (the
    experiment layer is engine-agnostic); ``config`` holds the cohort
    config.  Dataclass equality over (config, steps, events) is the
    differential suite's full-result contract."""


def churn_stream_keys(seed: int) -> Dict[str, int]:
    """Stream keys of the churn cohort under ``seed``."""
    return {SITE_STREAM: stream_key(SITE_STREAM, seed)}


def epoch_site_counters(
    step: int, num_clients: int, slots: int
) -> np.ndarray:
    """Counter matrix of one epoch's site draws: client ``u`` of epoch
    ``t`` occupies the virtual user ``t * num_clients + u``, so counters
    never collide across epochs and any contiguous client sub-range
    yields the same values as the full block (sharding invariance)."""
    start = step * num_clients
    return block_counters(start, start + num_clients, slots)


def epoch_site_column(
    site_key: int, step: int, num_clients: int, slots: int, num_sites: int
) -> np.ndarray:
    """The (clients, slots) matrix of target-site indices for one epoch."""
    u = uniforms(site_key, epoch_site_counters(step, num_clients, slots))
    sites = (u * num_sites).astype(np.int64)
    # u < 1.0 strictly, but float rounding at the boundary must not
    # produce an out-of-range index.
    np.clip(sites, 0, num_sites - 1, out=sites)
    return sites


def capture_wire_image(
    world_config: ChurnConfig, fingerprints: Sequence[bytes]
) -> bytes:
    """Serialize the advertised payload of a cache state (the generation
    capture): the wire image of the memoized build
    (:func:`~repro.amq.serialization.build_image`).

    Capacity is re-planned per capture as a pure function of the current
    fingerprint count (2x headroom): the canonical cache grows across a
    long run, and a capacity frozen at step 0 would overflow.
    """
    plan = plan_filter(
        num_icas=max(1, len(fingerprints)),
        filter_kind=world_config.filter_kind,
        fpp=world_config.fpp,
        load_factor=world_config.load_factor,
        budget_bytes=None,
        seed=world_config.seed,
        headroom=2.0,
    )
    return build_image(plan.filter_kind, plan.params, fingerprints)


def probe_image(payload: bytes, fingerprints: Sequence[bytes]) -> Tuple[bool, ...]:
    """Bulk-probe an advertised image for a fingerprint sequence (the
    per-(generation, epoch) membership resolution), memoized by content
    in :data:`artifacts.CHURN_PROBES` with obs-snapshot replay."""
    fingerprints = [bytes(fp) for fp in fingerprints]
    key = (hashlib.sha256(payload).digest(), artifacts.items_digest(fingerprints))

    def probe() -> Tuple[bool, ...]:
        filt = parse_extension_payload(payload)
        return tuple(bool(h) for h in filt.contains_batch(fingerprints))

    return artifacts.memoized(artifacts.CHURN_PROBES, key, probe)


@dataclass(frozen=True)
class EpochCounts:
    """Lifecycle + client-maintenance tallies of one epoch (everything in
    :class:`StepMetrics` that is not handshake accounting)."""

    icas_issued: int
    icas_cross_signed: int
    icas_revoked: int
    icas_expired_swept: int
    preload_added: int
    payload_refreshes: int
    site_rotations: int
    #: Bytes the update channel shipped to the refreshing generation
    #: (framed full image or ``repro.delta/v1`` update, per client).
    distribution_bytes: int = 0


def generation_of(client: int, generations: int) -> int:
    """Payload generation of a client (``client mod k``)."""
    return client % generations


def generation_size(generation: int, num_clients: int, generations: int) -> int:
    """Population of one generation bucket."""
    return num_clients // generations + (
        1 if num_clients % generations > generation else 0
    )


class ChurnCohortState:
    """The engine-independent half of the churn cohort protocol: canonical
    cache, CRL, generation captures, and the epoch maintenance / learning
    phases, fed by the frames of a :class:`~repro.webmodel.churn.WorldTape`.
    Both the columnar engine and the scalar reference drive exactly this
    object, so any divergence between them is in the handshake resolution
    alone — the property the differential suite leans on.

    The state reads the world through ``tape`` only (a fresh recording of
    its own when none is given) and keeps everything it mutates per cell:
    its own :class:`~repro.pki.revocation.RevocationList`, extended by each
    frame's revocations; its own event list, each frame's events followed
    by its own preload-refresh entry; and its own
    :class:`~repro.core.suppression.ServerSuppressor`, whose parsed-filter
    cache and counters are per-cell history.  :attr:`sites` is the current
    frame's sites.
    """

    def __init__(
        self, config: ChurnCohortConfig, tape: Optional[WorldTape] = None
    ) -> None:
        self.config = config
        self.tape = WorldTape(config.world) if tape is None else tape
        self.sites: Tuple[ServedSite, ...] = self.tape.initial_sites
        self.events: List[Tuple[int, str, str]] = list(self.tape.initial_events)
        self.crl = RevocationList()
        self.server_suppressor = ServerSuppressor()
        self.cache = ICACache()
        self.cache.add_many(self.tape.initial_certificates)
        self.generations = config.world.payload_refresh_every
        self.distribution = config.world.distribution
        cfg = config.world
        if self.distribution == "delta":
            # Versioned distribution: one publisher tracks the canonical
            # trajectory, one applier per generation replays its updates
            # at that generation's refresh cadence.  Version 0 is a local
            # bootstrap (the preload set every client already holds), so
            # it costs no wire bytes — exactly like full mode's initial
            # capture.  Builds route through the memoized build_image, so
            # repeated versions across generations, trials and workers
            # rehydrate one image.
            fingerprints = self.cache.fingerprints()
            self._publisher = DeltaPublisher(
                cfg.filter_kind,
                fingerprints,
                fpp=cfg.fpp,
                load_factor=cfg.load_factor,
                seed=cfg.seed,
                headroom=2.0,
            )
            self._appliers = [
                DeltaApplier(
                    cfg.filter_kind,
                    fingerprints,
                    capacity=self._publisher.capacity_at(0),
                    fpp=cfg.fpp,
                    load_factor=cfg.load_factor,
                    seed=cfg.seed,
                )
                for _ in range(self.generations)
            ]
            initial = (
                self._appliers[0].image(),
                frozenset(self._appliers[0].items),
            )
        else:
            self._publisher = None
            self._appliers = []
            initial = self._capture()
        #: Per-generation (advertised payload, captured fingerprint set).
        self.captures: List[Tuple[bytes, FrozenSet[bytes]]] = [
            initial for _ in range(self.generations)
        ]

    def _capture(self) -> Tuple[bytes, FrozenSet[bytes]]:
        fingerprints = self.cache.fingerprints()
        payload = capture_wire_image(self.config.world, fingerprints)
        return payload, frozenset(fingerprints)

    def _refresh_generation(self, due: int) -> int:
        """Refresh one generation's capture through the configured
        distribution channel; returns the bytes shipped *per client* of
        that generation.

        Full mode re-ships the whole framed image (AMQ payload plus the
        update-message framing, so both arms meter the same channel).
        Delta mode publishes the current canonical state and sends the
        cheapest ``repro.delta/v1`` update from the generation's applied
        version — by construction never costlier than the framed
        snapshot, and usually a small patch.
        """
        if self.distribution != "delta":
            self.captures[due] = self._capture()
            return len(self.captures[due][0]) + delta_overhead_bytes()
        version = self._publisher.publish(self.cache.fingerprints())
        applier = self._appliers[due]
        update = self._publisher.update_since(applier.version)
        message = deserialize_delta(update)
        if isinstance(message, FilterSnapshot):
            # Resync: the ordered item list rides the local cache model
            # (clients rebuild their list from their own cache, which the
            # publisher's canonical trajectory stands for).
            applier.apply(
                message,
                snapshot_items=self._publisher.items_at(message.version),
            )
        else:
            applier.apply(message)
        assert applier.version == version
        self.captures[due] = (applier.image(), frozenset(applier.items))
        return len(update)

    def begin_epoch(self, step: int) -> EpochCounts:
        """Take the step's world frame and run the epoch's client
        maintenance: expiry sweep, CRL application, periodic preload
        refresh, and the due generation's payload re-capture.  Per-client
        tallies scale the canonical trajectory by the cohort size — every
        client runs the same maintenance, so counting it N times is
        exact, not an estimate."""
        cfg = self.config.world
        n = self.config.num_clients
        frame = self.tape.frame(step)
        issued, cross_signed, revoked, rotations = frame.counts
        at_time = step * cfg.step_seconds
        for cert in frame.revocations:
            self.crl.revoke(cert, at_time=at_time)
        self.sites = frame.sites
        self.events.extend(frame.events)
        expired = self.cache.sweep_expired(at_time)
        self.cache.apply_revocations(self.crl)
        preload_added = 0
        if frame.live is not None:
            preload_added = self.cache.add_many(
                [cert for cert in frame.live if cert not in self.cache]
            )
            self.events.append(
                (step, "preload-refresh", f"added={preload_added * n}")
            )
        due = (-step) % self.generations
        per_client_bytes = self._refresh_generation(due)
        refreshed = generation_size(due, n, self.generations)
        return EpochCounts(
            icas_issued=issued,
            icas_cross_signed=cross_signed,
            icas_revoked=revoked,
            icas_expired_swept=expired * n,
            preload_added=preload_added * n,
            payload_refreshes=refreshed,
            site_rotations=rotations,
            distribution_bytes=per_client_bytes * refreshed,
        )

    def stale_generations(self) -> List[bool]:
        """Which generations' captured fingerprint sets no longer match
        the canonical cache (a per-handshake staleness check hoisted
        to generation granularity)."""
        live = frozenset(self.cache.fingerprints())
        return [captured != live for _, captured in self.captures]

    def site_chain_fingerprints(self) -> List[Tuple[bytes, ...]]:
        """Per-site ICA fingerprints of the currently served chains."""
        return [
            tuple(c.fingerprint() for c in s.credential.chain.intermediates)
            for s in self.sites
        ]

    def finish_epoch(self, succeeded_sites: Set[int]) -> None:
        """Epoch-end pooled learning: the canonical cache absorbs every
        fresh, unrevoked ICA served by a site that completed at least one
        handshake this epoch (ascending site order, deduplicated) — the
        cohort form of per-client learn-on-success."""
        fresh = []
        seen: Set[bytes] = set()
        for index in sorted(succeeded_sites):
            chain = self.sites[index].credential.chain
            for cert in chain.intermediates:
                fp = cert.fingerprint()
                if (
                    fp not in seen
                    and not self.crl.is_revoked(cert)
                    and cert not in self.cache
                ):
                    seen.add(fp)
                    fresh.append(cert)
        if fresh:
            self.cache.add_many(fresh)

    def site_context(self, site_index: int, at_time: int) -> SiteContext:
        """The :data:`SiteContext` of a handshake with ``site_index`` at
        ``at_time``: the inputs :meth:`run_representative` reads from the
        site, the canonical cache and the clock.  The suppressed path is
        completed by the client's own :func:`~repro.pki.chain.complete_path`
        over the cache's issuer lookup, so the key follows whichever
        variant the lookup returns."""
        chain = self.sites[site_index].credential.chain
        served = (chain.leaf, *chain.intermediates, chain.root)
        try:
            path = complete_path(
                [chain.leaf], self.cache.lookup_issuer, self.tape.trust_store
            )
        except ChainValidationError:
            path = None
        completed = () if path is None else (path.leaf, *path.intermediates, path.root)
        return (
            site_index,
            tuple(cert.fingerprint() for cert in served),
            tuple(cert.fingerprint() for cert in completed) if completed else None,
            tuple(cert.valid_at(at_time) for cert in served + completed),
        )

    def run_representative(
        self, step: int, client: int, slot: int, site_index: int, payload: bytes
    ) -> HandshakeTrace:
        """One real handshake through the untouched TLS machine, seeded
        exactly as the scalar reference seeds this cell."""
        cfg = self.config.world
        site = self.sites[site_index]
        client_config = ClientConfig(
            trust_store=self.tape.trust_store,
            kem_name=cfg.kem_name,
            hostname=site.hostname,
            at_time=step * cfg.step_seconds,
            ica_filter_payload=payload,
            issuer_lookup=self.cache.lookup_issuer,
            seed=derive_seed("churn.cohort.client", cfg.seed, step, client, slot),
        )
        server_config = ServerConfig(
            credential=site.credential,
            suppression_handler=self.server_suppressor,
            seed=derive_seed("churn.cohort.server", cfg.seed, step, client, slot),
        )
        return run_handshake(client_config, server_config)


#: (completed, fp_retries, fallbacks, failures, suppressed, wire_bytes).
TraceStats = Tuple[int, int, int, int, int, int]

#: What a handshake with one site reads at one epoch apart from the
#: advertised payload: (site index, served chain's leaf/ICA/root
#: fingerprints, fingerprints of the path the canonical cache completes
#: when the ICA is suppressed or ``None`` when it cannot, whether each of
#: those certificates is valid at the epoch's time).  Built by
#: :meth:`ChurnCohortState.site_context`.
SiteContext = Tuple[
    int, Tuple[bytes, ...], Optional[Tuple[bytes, ...]], Tuple[bool, ...]
]

#: Trace memo of one world (see the module docstring): (trace stats, obs
#: snapshot of the representative handshake), keyed by (site context,
#: advertised payload length, bulk-probe hit on the site's ICA).
WorldTraces = Dict[
    Tuple[SiteContext, int, bool], Tuple[TraceStats, Dict[str, Any]]
]

#: Normalised world config -> that world's traces.
TraceMemo = Dict[ChurnConfig, WorldTraces]


@dataclass
class ChurnMemo:
    """Work that engines handed one memo share (see the module
    docstring): representative traces, and one world tape per world
    config with ``payload_refresh_every`` normalised away."""

    traces: TraceMemo = field(default_factory=dict)
    tapes: Dict[ChurnConfig, WorldTape] = field(default_factory=dict)


def _trace_stats(trace: HandshakeTrace) -> TraceStats:
    """(completed, fp_retries, fallbacks, failures, suppressed, wire_bytes)
    of one trace — the per-cell accounting of one handshake."""
    fp_retry = int(trace.outcome is HandshakeOutcome.COMPLETED_AFTER_RETRY)
    fallback = int(trace.outcome is HandshakeOutcome.COMPLETED_AFTER_FALLBACK)
    return (
        int(trace.succeeded),
        fp_retry,
        fallback,
        int(not trace.succeeded),
        trace.attempts[0].suppressed_ica_count,
        trace.total_wire_bytes,
    )


class ChurnCohortEngine:
    """The columnar engine: one representative trace per distinct
    handshake context, broadcast over the context's population; engines
    sharing a ``memo`` run each context once and the world once between
    them."""

    def __init__(
        self,
        config: ChurnCohortConfig = ChurnCohortConfig(),
        memo: Optional[ChurnMemo] = None,
    ) -> None:
        self.config = config
        memo = ChurnMemo() if memo is None else memo
        # Levels of one trial differ only in the generation count, which
        # neither the world nor the trace reads; normalising it away lets
        # them share both.
        self._world_key = replace(config.world, payload_refresh_every=1)
        tape = memo.tapes.get(self._world_key)
        if tape is None:
            tape = memo.tapes[self._world_key] = WorldTape(self._world_key)
        self.state = ChurnCohortState(config, tape)
        self._site_key = churn_stream_keys(config.world.seed)[SITE_STREAM]
        self._traces = memo.traces.setdefault(self._world_key, {})

    def _context_stats(
        self, site_context: SiteContext, step: int, client: int, slot: int,
        payload: bytes, hit: bool,
    ) -> TraceStats:
        """The trace stats of one context, memoized with obs replay.

        The client carries the payload only as extension bytes (its
        length) and the server reads it only through the suppressor's
        membership test on the served chain (``hit``); everything else the
        trace reads is in ``site_context``.  So any epochs and payloads
        that agree on the site context, the length and the hit share a
        trace.
        """
        key = (site_context, len(payload), hit)
        cached = self._traces.get(key)
        if cached is None:
            # With metrics off there is nothing to replay into, so the
            # memo stores no snapshot (it would dominate the memo's size).
            scope = obs.scoped() if obs.enabled() else contextlib.nullcontext()
            with scope as registry:
                trace = self.state.run_representative(
                    step, client, slot, site_context[0], payload
                )
            snapshot = registry.snapshot() if registry is not None else {}
            cached = (_trace_stats(trace), snapshot)
            self._traces[key] = cached
        stats, trace_metrics = cached
        obs.merge(trace_metrics)
        return stats

    def run_epoch(self, step: int) -> StepMetrics:
        cfg = self.config.world
        state = self.state
        n = self.config.num_clients
        slots = self.config.handshakes_per_client
        num_sites = cfg.num_sites
        k = state.generations

        counts_epoch = state.begin_epoch(step)
        stale = np.asarray(state.stale_generations(), dtype=bool)
        chain_fps = state.site_chain_fingerprints()
        # Every site serves a single-ICA chain: the flat per-site
        # fingerprint list is the epoch's unique chain set each generation
        # resolves with one bulk probe, and one hit per site is the whole
        # suppression decision the trace memo keys on.
        for site_index, fps in enumerate(chain_fps):
            if len(fps) != 1:
                raise SimulationError(
                    f"step {step}: site {state.sites[site_index].hostname}"
                    f" serves {len(fps)} intermediates; the churn engine needs"
                    " exactly one"
                )
        site_fps = [fps[0] for fps in chain_fps]
        site_contexts = [
            state.site_context(site_index, step * cfg.step_seconds)
            for site_index in range(num_sites)
        ]

        sites = epoch_site_column(self._site_key, step, n, slots, num_sites)
        gens = (np.arange(n, dtype=np.int64) % k)[:, None]
        ctx = gens * num_sites + sites  # (clients, slots)
        flat = ctx.ravel()
        counts = np.bincount(flat, minlength=k * num_sites)
        # First flat cell of each occurring context = its representative.
        present, first = np.unique(flat, return_index=True)

        # One bulk membership probe per generation that actually occurs.
        gen_hits: Dict[int, Tuple[bool, ...]] = {}
        for context in present:
            g = int(context) // num_sites
            if g not in gen_hits:
                gen_hits[g] = probe_image(state.captures[g][0], site_fps)

        completed = fp_retries = fallbacks = failures = 0
        suppressed = wire_bytes = encountered = 0
        succeeded_sites: Set[int] = set()

        for context, first_cell in zip(present, first):
            g, site_index = divmod(int(context), num_sites)
            count = int(counts[context])
            client, slot = divmod(int(first_cell), slots)
            hit = gen_hits[g][site_index]
            c, r, fb, fail, sup, wire = self._context_stats(
                site_contexts[site_index], step, client, slot,
                state.captures[g][0], hit,
            )
            # The server suppresses exactly what the advertised filter
            # matches, so the first attempt must agree with the bulk probe.
            if sup != int(hit):
                raise SimulationError(
                    f"step {step}, generation {g}, site {site_index}: the "
                    f"representative suppressed {sup} ICA(s) but the bulk "
                    f"probe says {hit}"
                )
            encountered += count
            completed += count * c
            fp_retries += count * r
            fallbacks += count * fb
            failures += count * fail
            suppressed += count * sup
            wire_bytes += count * wire
            if c:
                succeeded_sites.add(site_index)

        state.finish_epoch(succeeded_sites)
        handshakes = n * slots
        stale_advertised = int(stale[np.arange(n) % k].sum()) * slots
        metrics = StepMetrics(
            step=step,
            icas_issued=counts_epoch.icas_issued,
            icas_cross_signed=counts_epoch.icas_cross_signed,
            icas_revoked=counts_epoch.icas_revoked,
            icas_expired_swept=counts_epoch.icas_expired_swept,
            preload_added=counts_epoch.preload_added,
            payload_refreshes=counts_epoch.payload_refreshes,
            site_rotations=counts_epoch.site_rotations,
            handshakes=handshakes,
            completed=completed,
            fp_retries=fp_retries,
            fallbacks=fallbacks,
            failures=failures,
            stale_advertised=stale_advertised,
            icas_encountered=encountered,
            icas_suppressed=suppressed,
            wire_bytes=wire_bytes,
            distribution_bytes=counts_epoch.distribution_bytes,
        )
        record_churn_step(metrics)
        return metrics

    def run(self) -> ChurnCohortResult:
        steps = []
        with obs.span(
            "webmodel.churn.run", (("filter", self.config.world.filter_kind),)
        ):
            for step in range(self.config.world.steps):
                steps.append(self.run_epoch(step))
        return ChurnCohortResult(
            config=self.config, steps=steps, events=self.state.events
        )


def run_churn_cohort(
    config: ChurnCohortConfig = ChurnCohortConfig(),
    memo: Optional[ChurnMemo] = None,
) -> ChurnCohortResult:
    """Run the churn cohort protocol on the columnar engine (one call =
    one pure function of ``config``; ``memo`` only shares work)."""
    return ChurnCohortEngine(config, memo).run()
