"""Bloom filter and counting Bloom filter.

The plain Bloom filter (Bloom, 1970) is the baseline AMQ structure the paper
mentions but rules out for deployment because "in its basic form, it does not
allow for element removal without having to rebuild the whole filter" (§4.1).
We implement it anyway — it anchors the space comparisons in the ablation
benchmarks — together with the 4-bit counting variant that restores deletion
at 4x the space.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.amq.base import AMQFilter, FilterParams
from repro.amq.hashing import (
    VECTOR_MIN_BATCH,
    double_hashes,
    double_hashes_np,
)
from repro.errors import FilterFullError, FilterSerializationError


def _optimal_geometry(capacity: int, fpp: float) -> "tuple[int, int]":
    """Return (bit count m, hash count k) minimizing space for the target
    false-positive probability: ``m = -n ln(eps) / ln(2)^2``,
    ``k = (m/n) ln 2``.
    """
    m = math.ceil(-capacity * math.log(fpp) / (math.log(2) ** 2))
    k = max(1, round(m / capacity * math.log(2)))
    return m, k


class BloomFilter(AMQFilter):
    """Classic k-hash Bloom filter over a flat bit array."""

    name = "bloom"
    supports_deletion = False

    def __init__(self, params: FilterParams) -> None:
        super().__init__(params)
        self._bits, self._k = _optimal_geometry(params.capacity, params.fpp)
        self._array = bytearray((self._bits + 7) // 8)
        self._refresh_view()

    def _refresh_view(self) -> None:
        # Persistent writable uint8 view over the backing bytearray; batch
        # kernels index it directly with zero per-call materialization.
        self._buf = np.frombuffer(self._array, dtype=np.uint8)

    # -- bit helpers ---------------------------------------------------------

    def _positions(self, item: bytes):
        for h in double_hashes(item, self._k, self._params.seed):
            yield h % self._bits

    def _get_bit(self, pos: int) -> bool:
        return bool(self._array[pos >> 3] & (1 << (pos & 7)))

    def _set_bit(self, pos: int) -> None:
        self._array[pos >> 3] |= 1 << (pos & 7)

    # -- AMQFilter interface --------------------------------------------------

    def _insert(self, item: bytes) -> None:
        if self._count >= self.capacity:
            raise FilterFullError(
                f"bloom filter at provisioned capacity {self.capacity}"
            )
        for pos in self._positions(item):
            self._set_bit(pos)
        self._count += 1

    def _contains(self, item: bytes) -> bool:
        return all(self._get_bit(pos) for pos in self._positions(item))

    def _delete(self, item: bytes) -> bool:
        raise self._deletion_unsupported()

    # -- batch overrides ------------------------------------------------------

    def _batch_positions(self, items: Sequence[bytes]):
        """(k, len(items)) matrix of bit positions, one row per hash —
        identical values to k runs of :func:`double_hashes` per item."""
        bits = np.uint64(self._bits)
        return [
            h % bits
            for h in double_hashes_np(items, self._k, self._params.seed)
        ]

    def _insert_batch(self, items: Sequence[bytes]) -> None:
        if len(items) < VECTOR_MIN_BATCH:
            return super()._insert_batch(items)
        allowed = self.capacity - self._count
        accepted = items[:allowed] if allowed < len(items) else items
        if accepted:
            buf = self._buf
            for pos in self._batch_positions(accepted):
                masks = np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8)
                np.bitwise_or.at(buf, (pos >> np.uint64(3)).astype(np.intp), masks)
            self._count += len(accepted)
        if allowed < len(items):
            raise FilterFullError(
                f"bloom filter at provisioned capacity {self.capacity}",
                inserted_count=len(accepted),
            )

    def _contains_batch(self, items: Sequence[bytes]) -> List[bool]:
        if len(items) < VECTOR_MIN_BATCH:
            return super()._contains_batch(items)
        buf = self._buf
        hit = np.ones(len(items), dtype=bool)
        for pos in self._batch_positions(items):
            bits = (buf[(pos >> np.uint64(3)).astype(np.intp)]
                    >> (pos & np.uint64(7)).astype(np.uint8))
            hit &= (bits & 1).astype(bool)
        return hit.tolist()

    def slot_count(self) -> int:
        return self._bits

    def load_factor(self) -> float:
        """For Bloom filters, report the fill ratio of set bits."""
        if not self._bits:
            return 0.0
        ones = sum(bin(b).count("1") for b in self._array)
        return ones / self._bits

    def size_in_bytes(self) -> int:
        return len(self._array)

    def current_fpp(self) -> float:
        """Analytic FPP estimate at current occupancy."""
        fill = self.load_factor()
        return fill**self._k

    def effective_fpp(self) -> float:
        return self.current_fpp()

    def to_bytes(self) -> bytes:
        return bytes(self._array)

    @classmethod
    def expected_payload_bytes(cls, params: FilterParams) -> int:
        bits, _ = _optimal_geometry(params.capacity, params.fpp)
        return (bits + 7) // 8

    @classmethod
    def from_bytes(cls, params: FilterParams, payload: bytes) -> "BloomFilter":
        filt = cls(params)
        if len(payload) != len(filt._array):
            raise FilterSerializationError(
                f"bloom payload is {len(payload)} bytes, expected "
                f"{len(filt._array)} for capacity={params.capacity} "
                f"fpp={params.fpp}"
            )
        filt._array = bytearray(payload)
        filt._refresh_view()
        # Item count is not recoverable from the bit array; estimate it from
        # the fill ratio (standard Bloom cardinality estimator).
        ones = sum(bin(b).count("1") for b in filt._array)
        if ones and ones < filt._bits:
            est = -filt._bits / filt._k * math.log(1 - ones / filt._bits)
            filt._count = min(params.capacity, round(est))
        elif ones:
            filt._count = params.capacity
        return filt


class CountingBloomFilter(AMQFilter):
    """Bloom filter with 4-bit saturating counters, enabling deletion."""

    name = "counting-bloom"
    supports_deletion = True

    _COUNTER_MAX = 0xF

    def __init__(self, params: FilterParams) -> None:
        super().__init__(params)
        self._cells, self._k = _optimal_geometry(params.capacity, params.fpp)
        # Two 4-bit counters per byte.
        self._array = bytearray((self._cells + 1) // 2)
        self._refresh_view()

    def _refresh_view(self) -> None:
        self._buf = np.frombuffer(self._array, dtype=np.uint8)

    def _positions(self, item: bytes):
        for h in double_hashes(item, self._k, self._params.seed):
            yield h % self._cells

    def _get(self, pos: int) -> int:
        byte = self._array[pos >> 1]
        return (byte >> 4) if pos & 1 else (byte & 0xF)

    def _set(self, pos: int, value: int) -> None:
        idx = pos >> 1
        if pos & 1:
            self._array[idx] = (self._array[idx] & 0x0F) | (value << 4)
        else:
            self._array[idx] = (self._array[idx] & 0xF0) | value

    def _insert(self, item: bytes) -> None:
        if self._count >= self.capacity:
            raise FilterFullError(
                f"counting bloom filter at provisioned capacity {self.capacity}"
            )
        for pos in self._positions(item):
            current = self._get(pos)
            if current < self._COUNTER_MAX:
                # Saturated counters are never decremented, preserving the
                # no-false-negative invariant at the cost of rare stuck cells.
                self._set(pos, current + 1)
        self._count += 1

    def _contains(self, item: bytes) -> bool:
        return all(self._get(pos) > 0 for pos in self._positions(item))

    # -- batch overrides ------------------------------------------------------

    def _batch_positions(self, items: Sequence[bytes]):
        cells = np.uint64(self._cells)
        return [
            h % cells
            for h in double_hashes_np(items, self._k, self._params.seed)
        ]

    def _insert_batch(self, items: Sequence[bytes]) -> None:
        if len(items) < VECTOR_MIN_BATCH:
            return super()._insert_batch(items)
        allowed = self.capacity - self._count
        accepted = items[:allowed] if allowed < len(items) else items
        if accepted:
            # Unpack nibble counters, accumulate, saturate, repack. A
            # sequence of saturating +1 increments from v is exactly
            # min(v + n, MAX) — the clip reproduces scalar semantics.
            buf = self._buf
            counters = np.empty(2 * len(buf), dtype=np.uint32)
            counters[0::2] = buf & 0xF
            counters[1::2] = buf >> 4
            for pos in self._batch_positions(accepted):
                np.add.at(counters, pos.astype(np.intp), 1)
            np.minimum(counters, self._COUNTER_MAX, out=counters)
            buf[:] = (counters[0::2] | (counters[1::2] << 4)).astype(np.uint8)
            self._count += len(accepted)
        if allowed < len(items):
            raise FilterFullError(
                f"counting bloom filter at provisioned capacity {self.capacity}",
                inserted_count=len(accepted),
            )

    def _contains_batch(self, items: Sequence[bytes]) -> List[bool]:
        if len(items) < VECTOR_MIN_BATCH:
            return super()._contains_batch(items)
        buf = self._buf
        hit = np.ones(len(items), dtype=bool)
        for pos in self._batch_positions(items):
            idx = pos.astype(np.intp)
            nibble = np.where(idx & 1, buf[idx >> 1] >> 4, buf[idx >> 1] & 0xF)
            hit &= nibble > 0
        return hit.tolist()

    # delete_batch stays on the generic scalar loop: consecutive deletes
    # are order-dependent (a delete observes the decrements of earlier
    # batch members), which vectorized accumulation cannot reproduce.

    def _delete(self, item: bytes) -> bool:
        positions = list(self._positions(item))
        if not all(self._get(pos) > 0 for pos in positions):
            return False
        for pos in positions:
            current = self._get(pos)
            if 0 < current < self._COUNTER_MAX:
                self._set(pos, current - 1)
        self._count = max(0, self._count - 1)
        return True

    def slot_count(self) -> int:
        return self._cells

    def load_factor(self) -> float:
        if not self._cells:
            return 0.0
        occupied = sum(1 for pos in range(self._cells) if self._get(pos) > 0)
        return occupied / self._cells

    def size_in_bytes(self) -> int:
        return len(self._array)

    def effective_fpp(self) -> float:
        return self.load_factor() ** self._k

    def to_bytes(self) -> bytes:
        return self._count.to_bytes(4, "big") + bytes(self._array)

    @classmethod
    def expected_payload_bytes(cls, params: FilterParams) -> int:
        cells, _ = _optimal_geometry(params.capacity, params.fpp)
        return 4 + (cells + 1) // 2

    @classmethod
    def from_bytes(
        cls, params: FilterParams, payload: bytes
    ) -> "CountingBloomFilter":
        if len(payload) < 4:
            raise FilterSerializationError("counting bloom payload too short")
        filt = cls(params)
        count = int.from_bytes(payload[:4], "big")
        if count > params.capacity:
            raise FilterSerializationError(
                f"counting bloom stored count {count} exceeds capacity "
                f"{params.capacity}"
            )
        body = payload[4:]
        if len(body) != len(filt._array):
            raise FilterSerializationError(
                f"counting bloom payload is {len(body)} bytes, expected "
                f"{len(filt._array)}"
            )
        filt._array = bytearray(body)
        filt._refresh_view()
        filt._count = count
        return filt
