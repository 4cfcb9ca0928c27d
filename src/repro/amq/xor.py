"""XOR filter (Graf & Lemire, 2020) — the static baseline.

Not one of the paper's candidates (it cannot be updated in place), but the
natural lower bound for the §6 "carefully curated and universal ICA
filters" deployment mode, where the advertised set changes rarely and
updates can be batched into rebuilds: an XOR filter stores ~1.23
fingerprints' worth of bits per item with an exact ``2^-f`` false-positive
rate — beating every dynamic structure on the wire.

Lookups XOR three table slots (one per table third) and compare with the
item's fingerprint. Construction peels the 3-uniform hypergraph: repeat
with a fresh construction seed on the (rare) non-peelable instance.

Mutation model: inserts buffer into an item list and mark the table
dirty; any query or serialization rebuilds first. ``supports_deletion``
is False — a deletion is a rebuild, exactly the cost the paper cites for
static structures, and exactly what :class:`~repro.core.manager.
FilterManager` meters when this filter is plugged into the pipeline.

The table is a preallocated ``uint64`` array; construction runs on the
array-native engine in :mod:`repro.amq.peel` — fused hashing and
degree/accumulator scatter are vectorized, while the peel decision loop
replays the original scalar queue's exact LIFO pop order over packed
records (the order determines the slot->item matching and with it the
wire image, so it is pinned exactly as the original implementation wrote
it; ``peel.peel_spec`` keeps that original as the executable spec).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro import obs
from repro.amq import bitpack, peel
from repro.amq.base import AMQFilter, FilterParams
from repro.amq.hashing import (
    VECTOR_MIN_BATCH,
    hash64,
    splitmix64,
    xor_hashes_np,
)
from repro.errors import FilterFullError, FilterSerializationError

_MAX_CONSTRUCTION_ATTEMPTS = 64


def xor_fingerprint_bits(fpp: float) -> int:
    """FPP of an XOR filter is exactly 2^-f."""
    return max(2, min(32, math.ceil(-math.log2(fpp))))


def xor_slot_count(capacity: int) -> int:
    """Graf-Lemire sizing: floor(1.23 * n) + 32, rounded to a multiple of
    3 (three equal table segments)."""
    slots = int(1.23 * max(1, capacity)) + 32
    return slots + (-slots) % 3


class XorFilter(AMQFilter):
    """Static 3-wise XOR filter with buffered construction."""

    name = "xor"
    supports_deletion = False

    def __init__(self, params: FilterParams) -> None:
        super().__init__(params)
        self._fp_bits = xor_fingerprint_bits(params.fpp)
        self._slots = xor_slot_count(params.capacity)
        self._table = np.zeros(self._slots, dtype=np.uint64)
        self._items: List[bytes] = []
        self._dirty = False
        self._construction_seed = 0

    # -- geometry ------------------------------------------------------------

    @property
    def fingerprint_bits(self) -> int:
        return self._fp_bits

    def slot_count(self) -> int:
        return self._slots

    def size_in_bytes(self) -> int:
        return (self._slots * self._fp_bits + 7) // 8

    def effective_fpp(self) -> float:
        """Exactly 2^-f, independent of occupancy (XOR of 3 slots)."""
        return 2.0 ** -self._fp_bits

    # -- hashing --------------------------------------------------------------

    def _hashes(self, item: bytes, construction_seed: int):
        """(h0, h1, h2, fingerprint) for the given construction seed."""
        base = hash64(item, self._params.seed ^ (construction_seed * 0x9E37))
        third = self._slots // 3
        h0 = base % third
        h1 = third + (splitmix64(base ^ 0xA5A5) % third)
        h2 = 2 * third + (splitmix64(base ^ 0x5A5A) % third)
        fp = splitmix64(base ^ 0xF0F0) & ((1 << self._fp_bits) - 1)
        return h0, h1, h2, fp

    # -- construction ------------------------------------------------------------

    def _rebuild(self) -> None:
        # Duplicate items would make the hypergraph unpeelable (identical
        # triples never reach degree 1); membership only needs the set.
        self._build_items = list(dict.fromkeys(self._items))
        for attempt in range(_MAX_CONSTRUCTION_ATTEMPTS):
            if self._try_build(attempt):
                self._construction_seed = attempt
                self._dirty = False
                self._record_construction_attempts(attempt + 1)
                return
        self._record_construction_attempts(_MAX_CONSTRUCTION_ATTEMPTS)
        raise FilterFullError(
            f"xor filter construction failed after "
            f"{_MAX_CONSTRUCTION_ATTEMPTS} attempts for {len(self._items)} items"
        )

    @staticmethod
    def _record_construction_attempts(attempts: int) -> None:
        # A seed-retry storm (attempts >> 1) is invisible in wall-clock
        # alone; the counter totals attempts across rebuilds and the
        # histogram shows their per-rebuild distribution in --metrics-out.
        reg = obs.registry()
        if reg is not None:
            reg.inc("amq.xor.construction_attempts", attempts)
            reg.observe("amq.xor.attempts_per_rebuild", attempts)

    def _try_build(self, construction_seed: int) -> bool:
        items = self._build_items
        if peel.scalar_spec_active() or len(items) < VECTOR_MIN_BATCH:
            triples = [self._hashes(item, construction_seed) for item in items]
            table = peel.peel_spec(triples, self._slots)
        else:
            h0, h1, h2, fp = xor_hashes_np(
                items,
                self._params.seed ^ (construction_seed * 0x9E37),
                self._slots // 3,
                self._fp_bits,
            )
            table = peel.peel_arrays(h0, h1, h2, fp, self._slots, self._fp_bits)
        if table is None:
            return False  # 2-core remained; retry with another seed
        self._table[:] = table
        return True

    # -- AMQFilter interface ---------------------------------------------------------

    def _insert(self, item: bytes) -> None:
        if len(self._items) >= self.capacity:
            raise FilterFullError(
                f"xor filter at provisioned capacity {self.capacity}"
            )
        self._items.append(item)
        self._count += 1
        self._dirty = True

    def _contains(self, item: bytes) -> bool:
        if self._dirty:
            self._rebuild()
        h0, h1, h2, fp = self._hashes(item, self._construction_seed)
        return int(self._table[h0]) ^ int(self._table[h1]) ^ int(
            self._table[h2]
        ) == fp

    def _delete(self, item: bytes) -> bool:
        raise self._deletion_unsupported()

    # -- batch overrides -------------------------------------------------------

    def _insert_batch(self, items: Sequence[bytes]) -> None:
        """Buffered bulk insert: one capacity check and one dirty mark for
        the whole batch; the (expensive) rebuild happens on first query."""
        allowed = self.capacity - len(self._items)
        accepted = items[:allowed] if allowed < len(items) else items
        if accepted:
            self._items.extend(accepted)
            self._count += len(accepted)
            self._dirty = True
        if allowed < len(items):
            raise FilterFullError(
                f"xor filter at provisioned capacity {self.capacity}",
                inserted_count=len(accepted),
            )

    def _contains_batch(self, items: Sequence[bytes]) -> List[bool]:
        if self._dirty:
            self._rebuild()
        if len(items) < VECTOR_MIN_BATCH:
            return super()._contains_batch(items)
        h0, h1, h2, fp = xor_hashes_np(
            items,
            self._params.seed ^ (self._construction_seed * 0x9E37),
            self._slots // 3,
            self._fp_bits,
        )
        table = self._table
        hit = (
            table[h0.astype(np.intp)]
            ^ table[h1.astype(np.intp)]
            ^ table[h2.astype(np.intp)]
        ) == fp
        return hit.tolist()

    def load_factor(self) -> float:
        return self._count / self.capacity if self.capacity else 0.0

    # -- producer path ---------------------------------------------------------

    @classmethod
    def build_from_fingerprints(
        cls, params: FilterParams, items: Sequence[bytes]
    ) -> "XorFilter":
        """Bulk-build with an **eager** construction: the peel runs inside
        the ``amq.build`` span instead of deferring to the first query, so
        filter plans and manager rebuilds meter the real build cost (and
        hand back a filter whose first probe is cheap)."""
        with obs.span("amq.build", (("backend", cls.name),)):
            filt = cls(params)
            if items:
                filt.insert_batch(
                    items if isinstance(items, (list, tuple)) else list(items)
                )
                filt._rebuild()
            return filt

    def attach_source_items(self, items: Sequence[bytes]) -> None:
        """Restore the item buffer of a deserialized filter.

        ``to_bytes`` does not transport items (the table is one-way), so
        a ``from_bytes`` copy is query-only: its first insert would
        trigger a rebuild over an empty buffer and silently lose the
        advertised set. Callers that still hold the original sequence
        reattach it here to make the copy fully mutable again.
        """
        items = [bytes(item) for item in items]
        if len(items) != self._count:
            raise FilterSerializationError(
                f"xor filter holds {self._count} items; cannot attach a "
                f"source sequence of {len(items)}"
            )
        self._items = items

    # -- serialization ---------------------------------------------------------------

    def to_bytes(self) -> bytes:
        if self._dirty:
            self._rebuild()
        header = self._construction_seed.to_bytes(1, "big") + self._count.to_bytes(
            4, "big"
        )
        return header + bitpack.pack_uniform(self._table, self._fp_bits)

    @classmethod
    def expected_payload_bytes(cls, params: FilterParams) -> int:
        slots = xor_slot_count(params.capacity)
        fp_bits = xor_fingerprint_bits(params.fpp)
        return 5 + (slots * fp_bits + 7) // 8

    @classmethod
    def from_bytes(cls, params: FilterParams, payload: bytes) -> "XorFilter":
        filt = cls(params)
        expected = 5 + filt.size_in_bytes()
        if len(payload) != expected:
            raise FilterSerializationError(
                f"xor payload is {len(payload)} bytes, expected {expected}"
            )
        construction_seed = payload[0]
        if construction_seed >= _MAX_CONSTRUCTION_ATTEMPTS:
            raise FilterSerializationError(
                f"xor construction seed {construction_seed} out of range "
                f"(< {_MAX_CONSTRUCTION_ATTEMPTS})"
            )
        count = int.from_bytes(payload[1:5], "big")
        if count > params.capacity:
            raise FilterSerializationError(
                f"xor stored count {count} exceeds capacity {params.capacity}"
            )
        filt._construction_seed = construction_seed
        filt._count = count
        try:
            table = bitpack.unpack_uniform(payload[5:], filt._slots, filt._fp_bits)
        except ValueError as exc:
            raise FilterSerializationError(str(exc)) from exc
        filt._table[:] = table
        filt._dirty = False
        # Items are not transported; a deserialized filter is query-only
        # in the sense that any insert triggers a from-scratch rebuild of
        # whatever items the new owner accumulates.
        return filt
