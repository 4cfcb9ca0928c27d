"""Columnar cohort browsing engine — Fig. 5 at traffic scale.

The per-handshake TLS machine tops out around a thousand handshakes per
second, hopeless for "millions of users".  This module advances a cohort
of N users as numpy columns instead:

* per-user destination draws and RTTs come from the counter-based RNG
  streams of :mod:`repro.webmodel.cohortrng` (pure functions of
  ``(stream key, user * slots + slot)``, so any sharding reproduces them);
* chain composition is a gather: ``rank -> ICAPath`` is a pure function
  of the population seed, so the engine resolves a block's new ranks in
  one :meth:`~repro.webmodel.population.ICAPopulation.path_ordinals`
  call and reads :class:`PathFacts` columns (depth, ICA bytes, base-filter
  hits, false-positive flag) for every (user, slot) cell;
* filter behaviour comes from one bulk ``contains_batch`` probe of the
  advertised wire image over every path's fingerprints (Fig. 5-right's
  per-handshake TTFB view reads its first-attempt outcomes from the same
  facts, through :meth:`CohortEngine.draw_block`);
* warm-state/dedup ("already visited this destination"), retry and
  suppression-byte accounting are boolean/int masks and column
  reductions.

**The cohort session protocol** (shared with the scalar reference): each
user starts from the hot-ICA preload cache and the filter built from it,
and draws ``handshakes_per_user`` destinations; a repeat destination
reuses the session (no handshake).  A handshake suppresses the ICAs the
advertised filter claims; if any suppressed ICA is missing from the
user's cache (a false positive), the attempt fails, a plain retry resends
the full chain, and the client learns the chain's ICAs
(``observe_chain``).  With ``payload_refresh_every = k > 0`` the
advertised payload is re-captured from the live filter before handshakes
``k, 2k, ...`` (the churn engine's live-cache/stale-payload idiom);
between refreshes the advertised bytes stay stale.

**Exactness by construction.**  Until a user's first false positive their
cache and advertised filter are byte-for-byte the preload state, so the
precomputed per-path facts describe their handshakes exactly.  Users the
base-state probe flags as FP-affected ("divergent") are excluded from the
column fast path and replayed through a memoized client-state machine.
A divergent user's cache and filter are pure functions of the preload
and the ordered ICA batches it learned, so a state is the tuple of path
ordinals learned so far (``()`` is the preload) and the advertised key is
the state at the last payload refresh.  The engine memoizes
``state -> (parsed advertised filter, learned fingerprints)``,
``(advertised key, ordinal) -> probe hits`` and
``(state, ordinal) -> (ICAs learned, next state)``; users in one state
share one suppressor build, one payload parse and one probe per path.
Each state is built from real core objects
(:class:`~repro.core.suppression.ClientSuppressor` from the preload, then
``cache.add_many`` per learned batch in order), so insert order and
rebuilds match the scalar reference byte for byte.  Every memo entry is
computed under ``obs.scoped()`` and its snapshot is merged on every use
(a refresh merges the payload build only when the state changed since the
last capture, and always the parse, as the per-user suppressor's payload
memo would), so every counter export equals a per-user replay's at any
``--jobs``.  The memos are LRUs of ``_STATE_MEMO_ENTRIES`` entries; an
evicted state is rebuilt, unmetered, from the preload by replaying its
learned batches.  ``tests/webmodel/test_cohort_vs_scalar.py`` pins the
equivalence against the untouched per-handshake TLS machine.

**Output layout.**  :meth:`CohortEngine.run` allocates its result buffers
once and writes every block into them in user order: the per-user columns
at ``[start:stop]``, each in the narrowest signed dtype that holds its
bound (:func:`column_dtypes`), and the block's handshake RTTs at the next
free offset of one float64 buffer of ``num_users * handshakes_per_user``
entries.  No block part outlives its write: with ``--jobs`` the blocks run
on forked workers that call the engine's own ``_run_block`` (so any
population, built from the config or not, shards), and
:func:`~repro.runtime.parallel.parallel_imap` keeps at most two parts per
worker in flight.  Aggregate float identity:
the RTT sum is a single ``np.sum`` over the written, contiguous
(user-major, slot-major) column, so the result is independent of block
size and ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.amq import AMQFilter
from repro.core.extension import parse_extension_payload
from repro.core.suppression import ClientSuppressor
from repro.errors import ConfigurationError
from repro.pki.algorithms import get_signature_algorithm
from repro.pki.certificate import DEFAULT_ATTRIBUTE_BYTES
from repro.pki.store import IntermediatePreload
from repro.runtime.artifacts import ContentCache, memoized
from repro.runtime.parallel import parallel_imap
from repro.webmodel import cohortrng
from repro.webmodel.population import ICAPopulation, PopulationConfig

#: JSON schema identifier of :func:`cohort_json_doc` exports.
COHORT_SCHEMA = "repro.cohort/v1"

#: Algorithms the JSON doc extrapolates ICA data volume to (Fig. 5-left).
EXTRAPOLATED_ALGORITHMS = (
    "rsa-2048",
    "dilithium3",
    "dilithium5",
    "sphincs-128f",
)


@dataclass(frozen=True)
class CohortConfig:
    """Parameters of one cohort run.

    ``handshakes_per_user`` counts destination *draws* (slots); repeat
    destinations reuse the session, so actual handshakes per user are
    ``<=`` this.  ``block_users`` shards the cohort for ``--jobs``; it
    cannot change any result (blocks are independent and reductions are
    integer or whole-column), only memory footprint and parallel grain.
    """

    num_users: int = 10_000
    handshakes_per_user: int = 10
    #: Popularity skew of the user's *destination stream* (first-party
    #: domains plus the embedded third-party origins, which make up nearly
    #: all of a browsing session's unique destinations), hence flatter
    #: than the paper's domain-only Zipf-1.9 visit draw: ~20 % of draws
    #: land beyond the hot-rank threshold, reproducing the paper's 69-74 %
    #: known-ICA rate band at the default population calibration.
    zipf_exponent: float = 1.1
    max_rank: int = 1_000_000
    filter_kind: str = "cuckoo"
    fpp: float = 1e-3
    load_factor: float = 0.9
    payload_refresh_every: int = 0
    hot_top_n: int = 10_000
    rtt_median_s: float = 0.045
    rtt_sigma: float = 0.5
    at_time: int = 1_000
    seed: int = 0
    population: PopulationConfig = PopulationConfig()
    block_users: int = 16_384

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ConfigurationError(
                f"num_users must be >= 1, got {self.num_users}"
            )
        if self.handshakes_per_user < 1:
            raise ConfigurationError(
                f"handshakes_per_user must be >= 1, got {self.handshakes_per_user}"
            )
        if self.max_rank < 1:
            raise ConfigurationError(f"max_rank must be >= 1, got {self.max_rank}")
        if self.payload_refresh_every < 0:
            raise ConfigurationError(
                f"payload_refresh_every must be >= 0 (0 = never), "
                f"got {self.payload_refresh_every}"
            )
        if self.block_users < 1:
            raise ConfigurationError(
                f"block_users must be >= 1, got {self.block_users}"
            )


def cohort_stream_keys(seed: int) -> Dict[str, int]:
    """The cohort's three stream keys under ``seed``."""
    return {
        ns: cohortrng.stream_key(ns, seed)
        for ns in (
            cohortrng.RANK_STREAM,
            cohortrng.RTT_A_STREAM,
            cohortrng.RTT_B_STREAM,
        )
    }


def destination_ranks(
    config: CohortConfig, keys: Dict[str, int], counters: np.ndarray
) -> np.ndarray:
    """Destination ranks of the ``(user, slot)`` counters: bounded Zipf
    draws on the rank stream of ``keys`` (:func:`cohort_stream_keys`)."""
    return cohortrng.zipf_ranks(
        cohortrng.uniforms(keys[cohortrng.RANK_STREAM], counters),
        config.zipf_exponent,
        config.max_rank,
    )


def column_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer dtype holding every value in
    ``[0, bound]``."""
    return np.min_scalar_type(-bound - 1)


#: The most each per-user column grows per handshake, as ``(unit,
#: factor)``: ``"one"`` is one per handshake, ``"depth"``/``"bytes"`` the
#: largest path's ICA count/ICA bytes.  A retry resends the whole chain,
#: hence ×2 on ``*_sent_total``.
_COLUMN_GROWTH = {
    "handshakes": ("one", 1),
    "retries": ("one", 1),
    "icas_encountered": ("depth", 1),
    "icas_sent_first": ("depth", 1),
    "icas_sent_total": ("depth", 2),
    "ica_bytes_total": ("bytes", 1),
    "ica_bytes_sent_first": ("bytes", 1),
    "ica_bytes_sent_total": ("bytes", 2),
    "learned_icas": ("depth", 1),
    "payload_refreshes": ("one", 1),
}


def column_dtypes(slots: int, max_depth: int, max_bytes: int) -> Dict[str, np.dtype]:
    """The dtype of every :class:`CohortColumns` field for users of
    ``slots`` destination draws on paths of at most ``max_depth`` ICAs and
    ``max_bytes`` ICA bytes: the narrowest signed type that provably holds
    ``slots`` times the column's per-path maximum."""
    maxima = {"one": 1, "depth": max_depth, "bytes": max_bytes}
    dtypes = {
        name: column_dtype(slots * maxima[unit] * factor)
        for name, (unit, factor) in _COLUMN_GROWTH.items()
    }
    dtypes["divergent"] = np.dtype(bool)
    return dtypes


@dataclass(frozen=True)
class CohortColumns:
    """Per-user result columns (index = user id, cohort order)."""

    handshakes: np.ndarray
    retries: np.ndarray
    icas_encountered: np.ndarray
    icas_sent_first: np.ndarray
    icas_sent_total: np.ndarray
    ica_bytes_total: np.ndarray
    ica_bytes_sent_first: np.ndarray
    ica_bytes_sent_total: np.ndarray
    learned_icas: np.ndarray
    payload_refreshes: np.ndarray
    divergent: np.ndarray

    @classmethod
    def zeros(cls, users: int, dtypes: Dict[str, np.dtype]) -> "CohortColumns":
        """Zeroed columns for ``users`` users (see :func:`column_dtypes`)."""
        return cls(**{name: np.zeros(users, dtype) for name, dtype in dtypes.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohortColumns):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__dataclass_fields__
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class CohortStats:
    """Whole-cohort aggregates (python ints; one float, the RTT sum)."""

    users: int
    destinations: int
    handshakes: int
    session_reuse: int
    attempts: int
    completed: int
    completed_after_retry: int
    retries: int
    false_positives: int
    icas_encountered: int
    icas_sent_first: int
    icas_sent_total: int
    icas_suppressed_first: int
    ica_bytes_total: int
    ica_bytes_sent_first: int
    ica_bytes_sent_total: int
    ica_bytes_suppressed_first: int
    learned_icas: int
    payload_refreshes: int
    divergent_users: int
    filter_payload_bytes: int
    rtt_sum_s: float

    @property
    def ica_reduction_ratio(self) -> float:
        """Fractional reduction in exchanged ICA bytes, retries paid."""
        if not self.ica_bytes_total:
            return 0.0
        return 1.0 - self.ica_bytes_sent_total / self.ica_bytes_total

    @property
    def known_ica_rate(self) -> float:
        """Share of encountered ICAs suppressed on the first flight."""
        if not self.icas_encountered:
            return 0.0
        return self.icas_suppressed_first / self.icas_encountered

    @property
    def false_positive_rate(self) -> float:
        if not self.handshakes:
            return 0.0
        return self.false_positives / self.handshakes

    @property
    def mean_rtt_s(self) -> float:
        return self.rtt_sum_s / self.handshakes if self.handshakes else 0.0


@dataclass(frozen=True)
class CohortResult:
    """A cohort run: per-user columns, the RTT column (one entry per
    handshake, user-major slot-major order) and the aggregate stats."""

    config: CohortConfig
    columns: CohortColumns
    rtt_s: np.ndarray
    stats: CohortStats

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohortResult):
            return NotImplemented
        return (
            self.config == other.config
            and self.stats == other.stats
            and self.columns == other.columns
            and np.array_equal(self.rtt_s, other.rtt_s)
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class _BlockPart:
    """One user block's contribution (picklable): its per-user columns
    and its handshakes' RTTs, written into the run's buffers and then
    dropped."""

    start: int
    columns: CohortColumns
    rtt_s: np.ndarray


class _CohortOutputs:
    """A run's result buffers, written one block at a time in user order:
    the per-user columns at ``[start:stop]``, the RTTs at the next free
    offset of a column sized for every draw to be a handshake."""

    def __init__(self, config: CohortConfig, dtypes: Dict[str, np.dtype]) -> None:
        self.columns = CohortColumns.zeros(config.num_users, dtypes)
        self.rtt = np.empty(config.num_users * config.handshakes_per_user)
        self.handshakes = 0

    def write(self, part: _BlockPart) -> None:
        stop = part.start + len(part.columns.handshakes)
        for name in CohortColumns.__dataclass_fields__:
            getattr(self.columns, name)[part.start : stop] = getattr(part.columns, name)
        end = self.handshakes + len(part.rtt_s)
        self.rtt[self.handshakes : end] = part.rtt_s
        self.handshakes = end


@dataclass(frozen=True)
class BlockDraw:
    """One user block's per-cell draws, each ``(users, slots)``: the
    destination rank, the RTT, whether the cell is the user's first
    contact with that rank (a handshake) and the rank's path ordinal."""

    ranks: np.ndarray
    rtt_s: np.ndarray
    first: np.ndarray
    ordinals: np.ndarray


class PathFacts:
    """Per-ICA-path fact columns under one base (preload) client state.

    Built from ``(population, base suppressor)``: every hierarchy path's
    fingerprints go through the base state's advertised wire image in
    one ``contains_batch`` call and reduce to columns indexed by path
    ordinal (hierarchy path order).  While a client's cache and
    advertised filter are still the base state, each column is exactly
    what a real handshake to any destination on that path observes:
    ICAs on the path, their bytes, filter hits, the hit bytes, whether a
    hit is a false positive, and how many ICAs are unknown to the cache.
    Integer columns take the narrowest dtype holding their largest value
    (:func:`column_dtype`), so the per-cell gathers stay narrow too.
    """

    def __init__(self, population: ICAPopulation, base: ClientSuppressor) -> None:
        # The wire image as the server sees it — probed for facts, so a
        # serialize/deserialize round-trip can never cause drift.
        probe = parse_extension_payload(base.extension_payload())
        known = frozenset(base.cache.fingerprints())
        paths = population.hierarchy.paths
        self.certs: List[list] = [p.ica_certificates() for p in paths]
        self.fps: List[List[bytes]] = [
            [cert.fingerprint() for cert in certs] for certs in self.certs
        ]
        self.sizes: List[List[int]] = [
            [cert.size_bytes() for cert in certs] for certs in self.certs
        ]
        flat: List[bytes] = []
        offsets = [0]
        for fps in self.fps:
            flat.extend(fps)
            offsets.append(len(flat))
        hits = list(probe.contains_batch(flat)) if flat else []
        depth, nbytes, nhits, supp_bytes, fp, unknown = [], [], [], [], [], []
        for p, (fps, sizes) in enumerate(zip(self.fps, self.sizes)):
            path_hits = hits[offsets[p] : offsets[p + 1]]
            depth.append(len(fps))
            nbytes.append(sum(sizes))
            nhits.append(sum(1 for h in path_hits if h))
            supp_bytes.append(sum(s for s, h in zip(sizes, path_hits) if h))
            fp.append(any(h and f not in known for f, h in zip(fps, path_hits)))
            unknown.append(sum(1 for f in fps if f not in known))

        def narrow(values: List[int]) -> np.ndarray:
            return np.array(values, dtype=column_dtype(max(values, default=0)))

        self.depth = narrow(depth)
        self.nbytes = narrow(nbytes)
        self.nhits = narrow(nhits)
        self.supp_bytes = narrow(supp_bytes)
        self.fp = np.array(fp, dtype=bool)
        self.unknown = narrow(unknown)


def _first_contact_mask(ranks: np.ndarray) -> np.ndarray:
    """True where a row (user) sees this rank for the first time.

    Stable row-wise argsort groups equal ranks while preserving slot
    order, so the first element of each sorted group is the earliest
    contact; scattering the group-head flags back yields the mask.
    """
    order = np.argsort(ranks, axis=1, kind="stable")
    sorted_ranks = np.take_along_axis(ranks, order, axis=1)
    first_sorted = np.ones(ranks.shape, dtype=bool)
    first_sorted[:, 1:] = sorted_ranks[:, 1:] != sorted_ranks[:, :-1]
    first = np.empty(ranks.shape, dtype=bool)
    np.put_along_axis(first, order, first_sorted, axis=1)
    return first


def first_contact_ranks(config: CohortConfig, user: int = 0) -> np.ndarray:
    """One cohort user's handshake destinations: the user's rank draws in
    slot order, with repeat destinations (session reuse) dropped."""
    ranks = destination_ranks(
        config,
        cohort_stream_keys(config.seed),
        cohortrng.block_counters(user, user + 1, config.handshakes_per_user),
    )
    return ranks[_first_contact_mask(ranks)]


@dataclass(frozen=True)
class _UserReplay:
    """Exact per-user accounting produced by the client-state replay."""

    retries: int
    icas_sent_first: int
    icas_sent_total: int
    ica_bytes_sent_first: int
    ica_bytes_sent_total: int
    learned_icas: int


#: LRU bound of each memo of :class:`_ClientStates` (states, probes,
#: transitions).  An evicted state is rebuilt from the preload by
#: replaying its at most ``handshakes_per_user`` learned batches, so the
#: bound caps memory without changing any result.
_STATE_MEMO_ENTRIES = 1024


@dataclass(frozen=True)
class _ClientState:
    """One divergent-user client state: the ordered path ordinals the
    client has learned (``()`` is the preload), the fingerprints those
    paths added beyond the preload, and the state's advertised filter as
    the server parses it, with the obs snapshots of building and parsing
    its payload (``None``/empty where the cohort never advertises it)."""

    key: Tuple[int, ...]
    learned: FrozenSet[bytes]
    advertised: Optional[AMQFilter]
    payload_snap: dict
    parse_snap: dict


class _ClientStates:
    """Memoized client-state machine of the divergent-user replay (keys,
    bound and metric replay: see the module docstring)."""

    def __init__(
        self, config: CohortConfig, hot: Sequence, facts: PathFacts
    ) -> None:
        self._config = config
        self._hot = hot
        self._facts = facts
        self._states = ContentCache("cohort_states", _STATE_MEMO_ENTRIES)
        self._probes = ContentCache("cohort_probes", _STATE_MEMO_ENTRIES)
        self._steps = ContentCache("cohort_steps", _STATE_MEMO_ENTRIES)
        self._start_snap: Optional[dict] = None
        self.base_known: FrozenSet[bytes] = frozenset()

    def _suppressor(self) -> ClientSuppressor:
        cfg = self._config
        return ClientSuppressor(
            preload=IntermediatePreload(self._hot),
            filter_kind=cfg.filter_kind,
            fpp=cfg.fpp,
            load_factor=cfg.load_factor,
            budget_bytes=None,
            seed=cfg.seed,
        )

    def _rebuild(self, key: Tuple[int, ...]) -> ClientSuppressor:
        """A fresh suppressor in state ``key``, built from the preload
        (unmetered: the replayed user never performs this work)."""
        with obs.scoped():
            suppressor = self._suppressor()
            for ordinal in key:
                suppressor.cache.add_many(self._facts.certs[ordinal])
        return suppressor

    def _make_state(
        self, key: Tuple[int, ...], suppressor: ClientSuppressor
    ) -> _ClientState:
        """Memoize state ``key`` from its suppressor, which must not have
        built a payload since it reached the state."""
        learned = frozenset(
            fp for ordinal in key for fp in self._facts.fps[ordinal]
        )
        advertised = None
        payload_snap = parse_snap = {}
        if not key or self._config.payload_refresh_every:
            with obs.scoped() as scope:
                payload = suppressor.extension_payload()
            payload_snap = scope.snapshot()
            with obs.scoped() as scope:
                advertised = parse_extension_payload(payload)
            parse_snap = scope.snapshot()
        state = _ClientState(key, learned, advertised, payload_snap, parse_snap)
        self._states.put(key, state)
        return state

    def _state(self, key: Tuple[int, ...]) -> _ClientState:
        state = self._states.get(key)
        if state is None:
            state = self._make_state(key, self._rebuild(key))
        return state

    def start(self) -> _ClientState:
        """A new replay user: the preload state, with the obs snapshot of
        building a suppressor, its payload and the parse merged."""
        if self._start_snap is None:
            with obs.scoped() as scope:
                suppressor = self._suppressor()
            self._start_snap = scope.snapshot()
            self.base_known = frozenset(suppressor.cache.fingerprints())
            self._make_state((), suppressor)
        root = self._state(())
        obs.merge(self._start_snap)
        obs.merge(root.payload_snap)
        obs.merge(root.parse_snap)
        return root

    def refresh(
        self, advertised: _ClientState, state: _ClientState
    ) -> _ClientState:
        """Re-capture the advertised payload at ``state``: like the
        suppressor's payload memo, it serialises only when the state
        changed since the last capture, and it always parses."""
        if advertised.key != state.key:
            obs.merge(state.payload_snap)
        obs.merge(state.parse_snap)
        return state

    def probe(self, advertised: _ClientState, ordinal: int) -> tuple:
        """Hits of path ``ordinal``'s fingerprints in the advertised
        filter."""
        return memoized(
            self._probes,
            (advertised.key, ordinal),
            lambda: tuple(
                advertised.advertised.contains_batch(self._facts.fps[ordinal])
            ),
        )

    def step(
        self, state: _ClientState, ordinal: int
    ) -> Tuple[int, _ClientState]:
        """Learn path ``ordinal``'s ICAs at ``state``: ``(ICAs new to the
        cache, next state)``."""
        key = (state.key, ordinal)
        cached = self._steps.get(key)
        if cached is None:
            suppressor = self._rebuild(state.key)
            with obs.scoped() as scope:
                added = suppressor.cache.add_many(self._facts.certs[ordinal])
            next_key = state.key + (ordinal,)
            cached = (added, next_key, scope.snapshot())
            self._steps.put(key, cached)
            if self._states.get(next_key) is None:
                self._make_state(next_key, suppressor)
        added, next_key, snap = cached
        obs.merge(snap)
        return added, self._state(next_key)


class CohortEngine:
    """Columnar cohort runner over a shared :class:`ICAPopulation`."""

    def __init__(
        self,
        config: CohortConfig = CohortConfig(),
        population: Optional[ICAPopulation] = None,
    ) -> None:
        self.config = config
        self.population = population or ICAPopulation(config.population)
        if config.max_rank > self.population.ranking.size:
            raise ConfigurationError(
                f"max_rank {config.max_rank} exceeds the ranking universe "
                f"({self.population.ranking.size})"
            )
        self._hot = self.population.hot_ica_certificates(config.hot_top_n)
        base = ClientSuppressor(
            preload=IntermediatePreload(self._hot),
            filter_kind=config.filter_kind,
            fpp=config.fpp,
            load_factor=config.load_factor,
            budget_bytes=None,
            seed=config.seed,
        )
        self.payload = base.extension_payload()
        self.facts = PathFacts(self.population, base)
        self._keys = cohort_stream_keys(config.seed)
        self._machine = _ClientStates(config, self._hot, self.facts)
        #: dtype of every per-user result column (:func:`column_dtypes`).
        self.dtypes = column_dtypes(
            config.handshakes_per_user,
            int(self.facts.depth.max(initial=0)),
            int(self.facts.nbytes.max(initial=0)),
        )

    # -- columnar fast path + replay slow path ---------------------------------

    def blocks(self) -> List[Tuple[int, int]]:
        """The ``[start, stop)`` user blocks of the cohort, in user order."""
        cfg = self.config
        return [
            (start, min(start + cfg.block_users, cfg.num_users))
            for start in range(0, cfg.num_users, cfg.block_users)
        ]

    def draw_block(self, block: Tuple[int, int]) -> BlockDraw:
        """The draws of one user block and the path ordinal of every
        cell (shared by the engine and per-handshake views)."""
        start, stop = block
        cfg = self.config
        counters = cohortrng.block_counters(start, stop, cfg.handshakes_per_user)
        # RTTs first: their two uniform columns are dead before the ranks
        # are drawn, and the counters before the path lookup.
        rtt = cohortrng.lognormal_rtt(
            cohortrng.uniforms(self._keys[cohortrng.RTT_A_STREAM], counters),
            cohortrng.uniforms(self._keys[cohortrng.RTT_B_STREAM], counters),
            cfg.rtt_median_s,
            cfg.rtt_sigma,
        )
        ranks = destination_ranks(cfg, self._keys, counters)
        del counters
        return BlockDraw(
            ranks=ranks,
            rtt_s=rtt,
            first=_first_contact_mask(ranks),
            ordinals=self.population.path_ordinals(ranks),
        )

    def _run_block(self, block: Tuple[int, int]) -> _BlockPart:
        start, stop = block
        cfg = self.config
        slots = cfg.handshakes_per_user
        draw = self.draw_block(block)
        ranks, rtt, first, ordinals = (
            draw.ranks, draw.rtt_s, draw.first, draw.ordinals
        )
        facts = self.facts
        depth = facts.depth[ordinals]
        nbytes = facts.nbytes[ordinals]
        nhits = facts.nhits[ordinals]
        supp_bytes = facts.supp_bytes[ordinals]
        fp_cell = first & facts.fp[ordinals]
        divergent = fp_cell.any(axis=1)

        dtypes = self.dtypes
        # State-independent columns (valid for every user: dedup, chain
        # composition and protocol refresh points don't depend on filter
        # state).
        handshakes = first.sum(axis=1, dtype=dtypes["handshakes"])
        encountered = np.where(first, depth, 0).sum(
            axis=1, dtype=dtypes["icas_encountered"]
        )
        bytes_total = np.where(first, nbytes, 0).sum(
            axis=1, dtype=dtypes["ica_bytes_total"]
        )
        refreshes = np.zeros(stop - start, dtype=dtypes["payload_refreshes"])
        if cfg.payload_refresh_every:
            refreshes[:] = (handshakes - 1) // cfg.payload_refresh_every

        # Base-state columns, valid only off the divergent rows.
        fast = first & ~divergent[:, None]
        sent_first_count = np.where(fast, depth - nhits, 0).sum(
            axis=1, dtype=dtypes["icas_sent_first"]
        )
        sent_first_bytes = np.where(fast, nbytes - supp_bytes, 0).sum(
            axis=1, dtype=dtypes["ica_bytes_sent_first"]
        )
        retries = np.zeros(stop - start, dtype=dtypes["retries"])
        learned = np.zeros(stop - start, dtype=dtypes["learned_icas"])
        sent_total_count = sent_first_count.astype(dtypes["icas_sent_total"])
        sent_total_bytes = sent_first_bytes.astype(dtypes["ica_bytes_sent_total"])

        # Divergent rows: exact replay through the client-state machine.
        for local in np.nonzero(divergent)[0]:
            replay = self._replay_user(ordinals[local], first[local])
            retries[local] = replay.retries
            learned[local] = replay.learned_icas
            sent_first_count[local] = replay.icas_sent_first
            sent_total_count[local] = replay.icas_sent_total
            sent_first_bytes[local] = replay.ica_bytes_sent_first
            sent_total_bytes[local] = replay.ica_bytes_sent_total

        columns = CohortColumns(
            handshakes=handshakes,
            retries=retries,
            icas_encountered=encountered,
            icas_sent_first=sent_first_count,
            icas_sent_total=sent_total_count,
            ica_bytes_total=bytes_total,
            ica_bytes_sent_first=sent_first_bytes,
            ica_bytes_sent_total=sent_total_bytes,
            learned_icas=learned,
            payload_refreshes=refreshes,
            divergent=divergent,
        )
        record_cohort_counters(
            columns, destinations=(stop - start) * slots
        )
        return _BlockPart(start=start, columns=columns, rtt_s=rtt[first])

    def _replay_user(
        self, ordinal_row: np.ndarray, first_row: np.ndarray
    ) -> _UserReplay:
        """Replay one FP-affected user through the engine's client-state
        machine: every probe, learned batch and payload refresh is a memo
        lookup whose obs snapshot is merged, so the user's filter
        evolution and counters match the scalar reference byte-for-byte."""
        cfg = self.config
        facts = self.facts
        machine = self._machine
        state = advertised = machine.start()
        base_known = machine.base_known
        refresh_every = cfg.payload_refresh_every
        handshake_index = 0
        retries = learned = 0
        sent_first_count = sent_total_count = 0
        sent_first_bytes = sent_total_bytes = 0
        for slot in range(cfg.handshakes_per_user):
            if not first_row[slot]:
                continue
            if (
                refresh_every
                and handshake_index > 0
                and handshake_index % refresh_every == 0
            ):
                advertised = machine.refresh(advertised, state)
            ordinal = int(ordinal_row[slot])
            fps = facts.fps[ordinal]
            sizes = facts.sizes[ordinal]
            hits = machine.probe(advertised, ordinal) if fps else ()
            suppressed = [i for i, hit in enumerate(hits) if hit]
            total_bytes = sum(sizes)
            supp_bytes = sum(sizes[i] for i in suppressed)
            sent_count = len(fps) - len(suppressed)
            sent_bytes = total_bytes - supp_bytes
            sent_first_count += sent_count
            sent_total_count += sent_count
            sent_first_bytes += sent_bytes
            sent_total_bytes += sent_bytes
            if any(
                fps[i] not in base_known and fps[i] not in state.learned
                for i in suppressed
            ):
                # False positive: the plain retry resends the full chain
                # and the client learns its ICAs.
                retries += 1
                sent_total_count += len(fps)
                sent_total_bytes += total_bytes
                added, state = machine.step(state, ordinal)
                learned += added
            handshake_index += 1
        return _UserReplay(
            retries=retries,
            icas_sent_first=sent_first_count,
            icas_sent_total=sent_total_count,
            ica_bytes_sent_first=sent_first_bytes,
            ica_bytes_sent_total=sent_total_bytes,
            learned_icas=learned,
        )

    # -- driving ---------------------------------------------------------------

    def run(self, jobs: Optional[int] = 1) -> CohortResult:
        """Run the cohort; ``jobs`` > 1 shards user blocks across forked
        worker processes that run this engine's own ``_run_block``
        (``None``/``0`` = all cores).  Blocks are independent and
        reductions are integer or whole-column, so every ``jobs`` and
        ``block_users`` value produces the identical result."""
        out = _CohortOutputs(self.config, self.dtypes)
        for part in parallel_imap(
            self._run_block, self.blocks(), jobs=jobs, metered=obs.enabled()
        ):
            out.write(part)
        return finalize_cohort(
            self.config, out.columns, out.rtt[: out.handshakes], len(self.payload)
        )


def run_cohort(
    config: CohortConfig = CohortConfig(),
    jobs: Optional[int] = 1,
    population: Optional[ICAPopulation] = None,
) -> CohortResult:
    """Convenience wrapper: build the engine and run the cohort."""
    return CohortEngine(config, population=population).run(jobs=jobs)


def record_cohort_counters(columns: CohortColumns, destinations: int) -> None:
    """Emit ``webmodel.cohort.*`` counters for one slice of users.

    Called once per block by the engine and once per run by the scalar
    reference; totals are sums of per-user ints, so any slicing (and any
    ``--jobs`` value, via the metered merge) yields identical counters.
    """
    reg = obs.registry()
    if reg is None:
        return
    handshakes = int(columns.handshakes.sum())
    retries = int(columns.retries.sum())
    reg.inc("webmodel.cohort.users", len(columns.handshakes))
    reg.inc("webmodel.cohort.handshakes", handshakes)
    reg.inc("webmodel.cohort.session_reuse", destinations - handshakes)
    reg.inc("webmodel.cohort.retries", retries, (("cause", "server-fp"),))
    reg.inc("webmodel.cohort.false_positives", retries)
    reg.inc(
        "webmodel.cohort.icas_encountered", int(columns.icas_encountered.sum())
    )
    reg.inc(
        "webmodel.cohort.icas_sent_total", int(columns.icas_sent_total.sum())
    )
    reg.inc(
        "webmodel.cohort.icas_suppressed_first",
        int((columns.icas_encountered - columns.icas_sent_first).sum()),
    )
    reg.inc(
        "webmodel.cohort.divergent_users", int(columns.divergent.sum())
    )
    reg.inc("webmodel.cohort.learned_icas", int(columns.learned_icas.sum()))
    reg.inc(
        "webmodel.cohort.payload_refreshes",
        int(columns.payload_refreshes.sum()),
    )


def _total(column: np.ndarray) -> int:
    return int(column.sum(dtype=np.int64))


def finalize_cohort(
    config: CohortConfig,
    columns: CohortColumns,
    rtt_s: np.ndarray,
    filter_payload_bytes: int,
) -> CohortResult:
    """Reduce a run's per-user columns and its RTT column (one entry per
    handshake, user-major slot-major order) to the result.

    The RTT sum is one ``np.sum`` over that contiguous column — the same
    array whatever the block size or jobs value, hence the same float.
    """
    users = len(columns.handshakes)
    destinations = users * config.handshakes_per_user
    handshakes = _total(columns.handshakes)
    retries = _total(columns.retries)
    encountered = _total(columns.icas_encountered)
    sent_first = _total(columns.icas_sent_first)
    sent_total = _total(columns.icas_sent_total)
    bytes_total = _total(columns.ica_bytes_total)
    bytes_first = _total(columns.ica_bytes_sent_first)
    bytes_sent = _total(columns.ica_bytes_sent_total)
    stats = CohortStats(
        users=users,
        destinations=destinations,
        handshakes=handshakes,
        session_reuse=destinations - handshakes,
        attempts=handshakes + retries,
        completed=handshakes - retries,
        completed_after_retry=retries,
        retries=retries,
        false_positives=retries,
        icas_encountered=encountered,
        icas_sent_first=sent_first,
        icas_sent_total=sent_total,
        icas_suppressed_first=encountered - sent_first,
        ica_bytes_total=bytes_total,
        ica_bytes_sent_first=bytes_first,
        ica_bytes_sent_total=bytes_sent,
        ica_bytes_suppressed_first=bytes_total - bytes_first,
        learned_icas=_total(columns.learned_icas),
        payload_refreshes=_total(columns.payload_refreshes),
        divergent_users=_total(columns.divergent),
        filter_payload_bytes=filter_payload_bytes,
        rtt_sum_s=float(np.sum(rtt_s)),
    )
    return CohortResult(config=config, columns=columns, rtt_s=rtt_s, stats=stats)


# -- reporting -----------------------------------------------------------------


def cohort_json_doc(result: CohortResult) -> dict:
    """Machine-readable cohort summary (``repro.cohort/v1``).

    Engine-agnostic by design: the columnar engine and the scalar
    reference produce byte-identical documents for the same config — the
    CI cohort-smoke job ``cmp``'s them.
    """
    config = result.config
    stats = result.stats
    per_algorithm = {}
    for algorithm in EXTRAPOLATED_ALGORITHMS:
        per_cert = get_signature_algorithm(algorithm).auth_bytes_per_certificate(
            DEFAULT_ATTRIBUTE_BYTES
        )
        plain = per_cert * stats.icas_encountered
        suppressed = per_cert * stats.icas_sent_total
        per_algorithm[algorithm] = {
            "ica_bytes_no_suppression": plain,
            "ica_bytes_with_suppression": suppressed,
            "savings_bytes": plain - suppressed,
        }
    return {
        "schema": COHORT_SCHEMA,
        "config": {
            "num_users": config.num_users,
            "handshakes_per_user": config.handshakes_per_user,
            "zipf_exponent": config.zipf_exponent,
            "max_rank": config.max_rank,
            "filter_kind": config.filter_kind,
            "fpp": config.fpp,
            "load_factor": config.load_factor,
            "payload_refresh_every": config.payload_refresh_every,
            "hot_top_n": config.hot_top_n,
            "rtt_median_s": config.rtt_median_s,
            "rtt_sigma": config.rtt_sigma,
            "at_time": config.at_time,
            "seed": config.seed,
            "population": {
                "algorithm": config.population.algorithm,
                "universe_icas": config.population.universe_icas,
                "num_roots": config.population.num_roots,
                "head_exponent": config.population.head_exponent,
                "tail_uniform_share": config.population.tail_uniform_share,
                "hot_rank_threshold": config.population.hot_rank_threshold,
                "month": config.population.month,
                "seed": config.population.seed,
            },
        },
        "stats": {
            "users": stats.users,
            "destinations": stats.destinations,
            "handshakes": stats.handshakes,
            "session_reuse": stats.session_reuse,
            "attempts": stats.attempts,
            "completed": stats.completed,
            "completed_after_retry": stats.completed_after_retry,
            "retries": stats.retries,
            "false_positives": stats.false_positives,
            "icas_encountered": stats.icas_encountered,
            "icas_sent_first": stats.icas_sent_first,
            "icas_sent_total": stats.icas_sent_total,
            "icas_suppressed_first": stats.icas_suppressed_first,
            "ica_bytes_total": stats.ica_bytes_total,
            "ica_bytes_sent_first": stats.ica_bytes_sent_first,
            "ica_bytes_sent_total": stats.ica_bytes_sent_total,
            "ica_bytes_suppressed_first": stats.ica_bytes_suppressed_first,
            "learned_icas": stats.learned_icas,
            "payload_refreshes": stats.payload_refreshes,
            "divergent_users": stats.divergent_users,
            "filter_payload_bytes": stats.filter_payload_bytes,
            "rtt_sum_s": stats.rtt_sum_s,
        },
        "derived": {
            "ica_reduction_ratio": stats.ica_reduction_ratio,
            "known_ica_rate": stats.known_ica_rate,
            "false_positive_rate": stats.false_positive_rate,
            "mean_rtt_s": stats.mean_rtt_s,
        },
        "per_algorithm": per_algorithm,
    }


def format_cohort(result: CohortResult) -> str:
    """Human-readable cohort summary for the CLI."""
    stats = result.stats
    lines = [
        f"cohort: {stats.users} users x "
        f"{result.config.handshakes_per_user} destination draws "
        f"({result.config.filter_kind}, fpp={result.config.fpp:g}, "
        f"month {result.config.population.month})",
        f"  handshakes          {stats.handshakes:>12}"
        f"   (session reuse {stats.session_reuse})",
        f"  completed           {stats.completed:>12}"
        f"   after retry {stats.completed_after_retry}",
        f"  false positives     {stats.false_positives:>12}"
        f"   rate {stats.false_positive_rate:.5f}"
        f"   divergent users {stats.divergent_users}",
        f"  ICAs encountered    {stats.icas_encountered:>12}"
        f"   suppressed first-flight {stats.icas_suppressed_first}"
        f"   (known-ICA rate {stats.known_ica_rate:.3f})",
        f"  ICA bytes           {stats.ica_bytes_total:>12}"
        f"   sent {stats.ica_bytes_sent_total}"
        f"   reduction {stats.ica_reduction_ratio:.3f}",
        f"  learned ICAs        {stats.learned_icas:>12}"
        f"   payload refreshes {stats.payload_refreshes}",
        f"  filter payload      {stats.filter_payload_bytes:>12} bytes"
        f"   mean RTT {stats.mean_rtt_s * 1e3:.2f} ms",
    ]
    return "\n".join(lines)
