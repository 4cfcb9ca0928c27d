"""Content-keyed caches for immutable PKI artifacts (the handshake fast path).

The per-handshake TLS machine re-derives the same immutable artifacts
thousands of times per experiment: certificates are re-parsed from
identical DER bytes on every handshake, chain signatures are re-verified
although neither the certificates nor the trust anchors changed, and
every simulator construction rebuilds an identical AMQ filter from the
same hot-ICA set. All of those
are pure functions of their inputs, so this module gives each one a
bounded, content-keyed cache with hit/miss counters.  It imports nothing
from the package but :mod:`repro.obs`, so every layer (``amq``, ``pki``,
``core``, the engines) may use it.

Design rules:

* **Content keys only.** Keys are derived from the bytes that define the
  artifact (DER images, fingerprints, canonical filter parameters), never
  from object identity — so a cache hit can never change an experiment's
  byte accounting, only skip recomputation.
* **Bounded.** Every cache is an LRU with a per-cache entry cap; the
  engine never grows without bound across long sweeps.
* **Observable.** ``stats()`` exposes hits/misses/size per cache, and the
  ``DER_ENCODE`` event counter tracks how many actual DER assemblies
  happened, so tests can assert a warm run performs zero redundant work.
* **Always on.** There is no pass-through mode; pool workers are forked,
  so they start with every entry the parent already holds.
* **Metrics replay.** Work memoized through :func:`memoized` stores the
  obs-counter deltas it recorded and replays them on every hit, so
  ``amq.*`` counters stay a pure function of the calls made, not of
  which process or cell happened to warm the cache first.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Iterable, Optional

from repro import obs


class EventCounter:
    """Hit/miss tally for work that is memoized outside a ContentCache
    (e.g. per-instance DER memos on frozen dataclasses)."""

    __slots__ = ("name", "hits", "misses")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0

    def record_hit(self) -> None:
        self.hits += 1

    def record_miss(self) -> None:
        self.misses += 1

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


class ContentCache:
    """A bounded LRU keyed by content-derived hashable keys."""

    def __init__(self, name: str, max_entries: int) -> None:
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}


_CACHES: Dict[str, ContentCache] = {}
_EVENTS: Dict[str, EventCounter] = {}


def _register(cache: ContentCache) -> ContentCache:
    _CACHES[cache.name] = cache
    return cache


def _register_event(counter: EventCounter) -> EventCounter:
    _EVENTS[counter.name] = counter
    return counter


#: DER bytes -> decoded Certificate (the client/server re-parse path).
CERT_DECODE = _register(ContentCache("cert_decode", max_entries=16384))
#: (algorithm, sha256(key || payload)) -> simulated signature bytes; hit on
#: both signing and verification of a previously expanded payload.
SIGNATURE_BYTES = _register(ContentCache("signature_bytes", max_entries=65536))
#: (chain digest, trust-store token) -> validated (not_before, not_after)
#: window; a hit inside the window skips full path validation.
VERIFIED_CHAINS = _register(ContentCache("verified_chains", max_entries=16384))
#: (kind, capacity, fpp, load_factor, seed, items digest) -> (serialized
#: filter image, obs snapshot): every AMQ build in the program, written
#: only by :func:`repro.amq.serialization.build_image` — plan builds,
#: delta publisher images and applier rebuilds, churn captures.
FILTER_BUILDS = _register(ContentCache("filter_builds", max_entries=256))
#: Length profile of a TBSCertificate -> solved attribute-padding length
#: (the fixed-point loop in ``build_tbs`` otherwise re-assembles the full
#: TBS several times per issued certificate).
TBS_PADS = _register(ContentCache("tbs_pads", max_entries=1024))
#: Small recurring DER fragments: ("name", cn) -> encoded Name,
#: ("alg", name) -> encoded AlgorithmIdentifier.
DER_FRAGMENTS = _register(ContentCache("der_fragments", max_entries=8192))
#: Flight-size probe memo (the TTFB loops would otherwise re-run one
#: handshake per sample).
FLIGHT_SIZES = _register(ContentCache("flight_sizes", max_entries=4096))

#: (payload digest, fingerprints digest) -> (hit tuple, obs snapshot):
#: the per-(generation, epoch) bulk membership probe of the columnar
#: churn engine.
CHURN_PROBES = _register(ContentCache("churn_probes", max_entries=4096))

#: Actual DER assemblies of Certificate objects (encode events, not cache
#: lookups): ``misses`` counts real encodes, ``hits`` counts memoized
#: returns. A warm run must not advance ``misses``.
DER_ENCODE = _register_event(EventCounter("der_encode"))


def items_digest(items: Iterable[bytes]) -> bytes:
    """SHA-256 of a byte-string sequence, each item length-prefixed, so
    the digest pins both the items and their order."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(len(item).to_bytes(4, "big"))
        digest.update(item)
    return digest.digest()


def memoized(cache: ContentCache, key: Hashable, compute: Callable[[], Any]) -> Any:
    """``compute()`` through ``cache``: a miss runs it in an obs scope and
    stores the value with the scope's snapshot; every call, hit or miss,
    merges that snapshot into the active registry."""
    cached = cache.get(key)
    if cached is None:
        with obs.scoped() as scope:
            value = compute()
        cached = (value, scope.snapshot())
        cache.put(key, cached)
    value, snapshot = cached
    obs.merge(snapshot)
    return value


def stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size snapshot of every cache and event counter."""
    out = {name: cache.snapshot() for name, cache in _CACHES.items()}
    for name, counter in _EVENTS.items():
        out[name] = counter.snapshot()
    return out


def reset_stats() -> None:
    for cache in _CACHES.values():
        cache.reset_stats()
    for counter in _EVENTS.values():
        counter.reset()


def clear() -> None:
    """Drop every cached entry (stats are reset too)."""
    for cache in _CACHES.values():
        cache.clear()
    reset_stats()

