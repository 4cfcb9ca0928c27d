"""Frozen pure-Python reference models of every AMQ backend.

These are verbatim copies of the list-backed scalar implementations as
they stood **before** the array-native storage engine rewrite (PR 4).
They define the semantics the vectorized engine must reproduce exactly:

* insert / contains / delete answers and exceptions,
* batch operations via the generic scalar loops of ``AMQFilter``,
* overflow prefix semantics and transactional kick-chain rollback,
* eviction-rng determinism (same seeds, same draw sequence),
* wire images byte-for-byte (``to_bytes`` including the semi-sort
  encoding, which is re-implemented here rather than imported so the
  production codec cannot silently drift together with the engine).

Do not "improve" this module. It is an executable specification; the
differential suite (``test_array_vs_reference.py``) runs it against the
production backends on identical operation sequences.
"""

from __future__ import annotations

import math
import random
from itertools import combinations_with_replacement
from typing import List, Sequence

from repro.amq.base import AMQFilter, FilterParams
from repro.amq.hashing import double_hashes, fingerprint, hash64, hash_int, splitmix64
from repro.amq.sizing import (
    cuckoo_geometry,
    fingerprint_bits_for_fpp,
    quotient_geometry,
    remainder_bits_for_fpp,
    vacuum_geometry,
)
from repro.errors import FilterFullError

# ---------------------------------------------------------------------------
# Frozen semi-sort codec (scalar; copied from repro.amq.semisort @ PR 3)
# ---------------------------------------------------------------------------

_SS_BUCKET_SIZE = 4
_SS_INDEX_BITS = 12
_SS_MIN_FP_BITS = 5
_SS_TUPLES = sorted(combinations_with_replacement(range(16), _SS_BUCKET_SIZE))
_SS_TUPLE_TO_INDEX = {t: i for i, t in enumerate(_SS_TUPLES)}


def _ss_encoded_bucket_bits(fp_bits: int) -> int:
    return _SS_INDEX_BITS + _SS_BUCKET_SIZE * (fp_bits - 4)


def _ss_packed_size_bytes(num_buckets: int, fp_bits: int) -> int:
    return (num_buckets * _ss_encoded_bucket_bits(fp_bits) + 7) // 8


def _ss_pack_table(table: Sequence[int], fp_bits: int) -> bytes:
    high_bits = fp_bits - 4
    acc = 0
    acc_bits = 0
    out = bytearray()

    def emit(value: int, bits: int) -> None:
        nonlocal acc, acc_bits
        acc |= value << acc_bits
        acc_bits += bits
        while acc_bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            acc_bits -= 8

    for start in range(0, len(table), _SS_BUCKET_SIZE):
        pairs = sorted(
            (fp & 0xF, fp >> 4) for fp in table[start : start + _SS_BUCKET_SIZE]
        )
        emit(_SS_TUPLE_TO_INDEX[tuple(p[0] for p in pairs)], _SS_INDEX_BITS)
        for _, high in pairs:
            emit(high, high_bits)
    if acc_bits:
        out.append(acc & 0xFF)
    return bytes(out)


def _pack_slots(table: Sequence[int], bits: int) -> bytes:
    """Flat LSB-first slot packing (the non-semi-sort wire layout)."""
    acc = 0
    acc_bits = 0
    out = bytearray()
    for fp in table:
        acc |= fp << acc_bits
        acc_bits += bits
        while acc_bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            acc_bits -= 8
    if acc_bits:
        out.append(acc & 0xFF)
    return bytes(out)


# ---------------------------------------------------------------------------
# Bloom / counting-Bloom references
# ---------------------------------------------------------------------------


def _optimal_geometry(capacity: int, fpp: float) -> "tuple[int, int]":
    m = math.ceil(-capacity * math.log(fpp) / (math.log(2) ** 2))
    k = max(1, round(m / capacity * math.log(2)))
    return m, k


class _SerializeOnly(AMQFilter):
    """Reference models only serialize: decoding is the production
    backends' job."""

    @classmethod
    def from_bytes(cls, params, payload):  # pragma: no cover
        raise NotImplementedError("reference models only serialize")

    @classmethod
    def expected_payload_bytes(cls, params):  # pragma: no cover
        raise NotImplementedError("reference models only serialize")


class ReferenceBloomFilter(_SerializeOnly):
    name = "bloom"
    supports_deletion = False

    def __init__(self, params: FilterParams) -> None:
        super().__init__(params)
        self._bits, self._k = _optimal_geometry(params.capacity, params.fpp)
        self._array = bytearray((self._bits + 7) // 8)

    def _positions(self, item: bytes):
        for h in double_hashes(item, self._k, self._params.seed):
            yield h % self._bits

    def _insert(self, item: bytes) -> None:
        if self._count >= self.capacity:
            raise FilterFullError(
                f"bloom filter at provisioned capacity {self.capacity}"
            )
        for pos in self._positions(item):
            self._array[pos >> 3] |= 1 << (pos & 7)
        self._count += 1

    def _contains(self, item: bytes) -> bool:
        return all(
            self._array[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(item)
        )

    def _delete(self, item: bytes) -> bool:
        raise self._deletion_unsupported()

    def slot_count(self) -> int:
        return self._bits

    def size_in_bytes(self) -> int:
        return len(self._array)

    def to_bytes(self) -> bytes:
        return bytes(self._array)


class ReferenceCountingBloomFilter(_SerializeOnly):
    name = "counting-bloom"
    supports_deletion = True

    _COUNTER_MAX = 0xF

    def __init__(self, params: FilterParams) -> None:
        super().__init__(params)
        self._cells, self._k = _optimal_geometry(params.capacity, params.fpp)
        self._array = bytearray((self._cells + 1) // 2)

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
                self._set(pos, current + 1)
        self._count += 1

    def _contains(self, item: bytes) -> bool:
        return all(self._get(pos) > 0 for pos in self._positions(item))

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

    def size_in_bytes(self) -> int:
        return len(self._array)

    def to_bytes(self) -> bytes:
        return self._count.to_bytes(4, "big") + bytes(self._array)


# ---------------------------------------------------------------------------
# Cuckoo / vacuum references (list-backed two-choice bucket tables)
# ---------------------------------------------------------------------------


class _ReferenceBucketTable(_SerializeOnly):
    """Shared scalar core of the cuckoo/vacuum references."""

    _BUCKET_SIZE = 4
    _MAX_KICKS = 500
    _RNG_SALT = 0

    supports_deletion = True

    def __init__(self, params: FilterParams) -> None:
        super().__init__(params)
        self._bucket_size = self._BUCKET_SIZE
        self._max_kicks = self._MAX_KICKS
        self._fp_bits = fingerprint_bits_for_fpp(params.fpp, self._bucket_size)
        self._semi_sort = self._fp_bits >= _SS_MIN_FP_BITS
        self._num_buckets = self._geometry(params)
        self._table = [0] * (self._num_buckets * self._bucket_size)
        self._rng = random.Random(params.seed ^ self._RNG_SALT)

    def _geometry(self, params: FilterParams) -> int:
        raise NotImplementedError

    def _alt_index(self, index: int, fp: int) -> int:
        raise NotImplementedError

    def _fingerprint(self, item: bytes) -> int:
        return fingerprint(item, self._fp_bits, self._params.seed)

    def _index1(self, item: bytes) -> int:
        return hash64(item, self._params.seed) % self._num_buckets

    def _bucket_insert(self, index: int, fp: int) -> bool:
        start = index * self._bucket_size
        for slot in range(start, start + self._bucket_size):
            if self._table[slot] == 0:
                self._table[slot] = fp
                return True
        return False

    def _insert(self, item: bytes) -> None:
        fp = self._fingerprint(item)
        i1 = self._index1(item)
        i2 = self._alt_index(i1, fp)
        if self._bucket_insert(i1, fp) or self._bucket_insert(i2, fp):
            self._count += 1
            return
        self._kick(fp, i1, i2)

    def _kick(self, fp: int, i1: int, i2: int) -> None:
        index = self._rng.choice((i1, i2))
        path: List[int] = []
        for _ in range(self._max_kicks):
            start = index * self._bucket_size
            victim_slot = start + self._rng.randrange(self._bucket_size)
            path.append(victim_slot)
            fp, self._table[victim_slot] = self._table[victim_slot], fp
            index = self._alt_index(index, fp)
            if self._bucket_insert(index, fp):
                self._count += 1
                return
        for slot in reversed(path):
            fp, self._table[slot] = self._table[slot], fp
        raise FilterFullError(
            f"{self.name} reference insert failed after {self._max_kicks} kicks"
        )

    def _contains(self, item: bytes) -> bool:
        fp = self._fingerprint(item)
        i1 = self._index1(item)
        start = i1 * self._bucket_size
        if fp in self._table[start : start + self._bucket_size]:
            return True
        i2 = self._alt_index(i1, fp)
        start = i2 * self._bucket_size
        return fp in self._table[start : start + self._bucket_size]

    def _delete(self, item: bytes) -> bool:
        fp = self._fingerprint(item)
        i1 = self._index1(item)
        for index in (i1, self._alt_index(i1, fp)):
            start = index * self._bucket_size
            for slot in range(start, start + self._bucket_size):
                if self._table[slot] == fp:
                    self._table[slot] = 0
                    self._count -= 1
                    return True
        return False

    def slot_count(self) -> int:
        return self._num_buckets * self._bucket_size

    def size_in_bytes(self) -> int:
        if self._semi_sort:
            return _ss_packed_size_bytes(self._num_buckets, self._fp_bits)
        return (self.slot_count() * self._fp_bits + 7) // 8

    def to_bytes(self) -> bytes:
        if self._semi_sort:
            return _ss_pack_table(self._table, self._fp_bits)
        return _pack_slots(self._table, self._fp_bits)


class ReferenceCuckooFilter(_ReferenceBucketTable):
    name = "cuckoo"
    _RNG_SALT = 0xC0C0

    def _geometry(self, params: FilterParams) -> int:
        return cuckoo_geometry(params.capacity, params.load_factor, self._bucket_size)

    def _alt_index(self, index: int, fp: int) -> int:
        return (index ^ hash_int(fp, self._params.seed)) % self._num_buckets


class ReferenceVacuumFilter(_ReferenceBucketTable):
    name = "vacuum"
    _RNG_SALT = 0x7ACC

    def _geometry(self, params: FilterParams) -> int:
        num_buckets, self._chunk_len = vacuum_geometry(
            params.capacity, params.load_factor, self._bucket_size
        )
        return num_buckets

    def _alt_index(self, index: int, fp: int) -> int:
        h = hash_int(fp, self._params.seed)
        if fp & 1 == 0:
            return (h - index) % self._num_buckets
        base = index - (index % self._chunk_len)
        return base + ((index - base) ^ (h % self._chunk_len))


# ---------------------------------------------------------------------------
# Quotient reference
# ---------------------------------------------------------------------------


class ReferenceQuotientFilter(_SerializeOnly):
    name = "quotient"
    supports_deletion = True

    def __init__(self, params: FilterParams) -> None:
        super().__init__(params)
        self._slots = quotient_geometry(params.capacity, params.load_factor)
        self._r_bits = remainder_bits_for_fpp(params.fpp)
        self._occ = [False] * self._slots
        self._cont = [False] * self._slots
        self._shift = [False] * self._slots
        self._rem = [0] * self._slots

    def _qr(self, item: bytes) -> "tuple[int, int]":
        h = hash64(item, self._params.seed)
        rem = h & ((1 << self._r_bits) - 1)
        quo = (h >> self._r_bits) & (self._slots - 1)
        return quo, rem

    def _slot_empty(self, pos: int) -> bool:
        return not (self._occ[pos] or self._cont[pos] or self._shift[pos])

    def _cluster_start(self, q: int) -> int:
        b = q
        while self._shift[b]:
            b = (b - 1) % self._slots
        return b

    def _run_start(self, q: int) -> int:
        b = self._cluster_start(q)
        s = b
        while b != q:
            s = (s + 1) % self._slots
            while self._cont[s]:
                s = (s + 1) % self._slots
            b = (b + 1) % self._slots
            while not self._occ[b]:
                b = (b + 1) % self._slots
        return s

    def _insert(self, item: bytes) -> None:
        if self._count >= self._slots - 1:
            raise FilterFullError(
                f"quotient reference full ({self._count}/{self._slots} slots)"
            )
        q, rem = self._qr(item)
        self._insert_qr(q, rem)
        self._count += 1

    def _insert_qr(self, q: int, rem: int) -> None:
        was_occupied = self._occ[q]
        if self._slot_empty(q) and not was_occupied:
            self._occ[q] = True
            self._rem[q] = rem
            return
        self._occ[q] = True
        start = self._run_start(q)
        pos = start
        at_run_start = True
        if was_occupied:
            while True:
                if rem <= self._rem[pos]:
                    break
                nxt = (pos + 1) % self._slots
                if not self._cont[nxt]:
                    pos = nxt
                    at_run_start = False
                    break
                pos = nxt
                at_run_start = False
        new_cont = was_occupied and not at_run_start
        displaced_start = was_occupied and at_run_start
        carry_rem = rem
        carry_cont = new_cont
        shifted_flag = pos != q
        first = True
        while True:
            if self._slot_empty(pos):
                self._rem[pos] = carry_rem
                self._cont[pos] = carry_cont
                self._shift[pos] = shifted_flag
                return
            occ_rem = self._rem[pos]
            occ_cont = self._cont[pos]
            self._rem[pos] = carry_rem
            self._cont[pos] = carry_cont
            self._shift[pos] = shifted_flag
            carry_rem = occ_rem
            carry_cont = occ_cont
            if first and displaced_start:
                carry_cont = True
            first = False
            pos = (pos + 1) % self._slots
            shifted_flag = True

    def _contains(self, item: bytes) -> bool:
        q, rem = self._qr(item)
        if not self._occ[q]:
            return False
        pos = self._run_start(q)
        while True:
            if self._rem[pos] == rem:
                return True
            if self._rem[pos] > rem:
                return False
            pos = (pos + 1) % self._slots
            if not self._cont[pos]:
                return False

    def _delete(self, item: bytes) -> bool:
        q, rem = self._qr(item)
        if not self._occ[q] or not self._contains(item):
            return False
        cs = self._cluster_start(q)
        cells = self._decode_cluster(cs)
        cells.remove((q, rem))
        self._clear_range(cs, len(cells) + 1)
        for cell_q, cell_rem in cells:
            self._insert_qr(cell_q, cell_rem)
        self._count -= 1
        return True

    def _decode_cluster(self, cs: int) -> "list[tuple[int, int]]":
        from collections import deque

        cells: "list[tuple[int, int]]" = []
        pending: "deque[int]" = deque()
        pos = cs
        cur_q = cs
        while True:
            if self._slot_empty(pos):
                break
            if pos != cs and not self._shift[pos]:
                break
            if self._occ[pos]:
                pending.append(pos)
            if not self._cont[pos]:
                cur_q = pending.popleft()
            cells.append((cur_q, self._rem[pos]))
            pos = (pos + 1) % self._slots
            if pos == cs:
                break
        return cells

    def _clear_range(self, start: int, length: int) -> None:
        for i in range(length):
            pos = (start + i) % self._slots
            self._occ[pos] = False
            self._cont[pos] = False
            self._shift[pos] = False
            self._rem[pos] = 0

    def slot_count(self) -> int:
        return self._slots

    def size_in_bytes(self) -> int:
        return self._slots * (self._r_bits + 3) // 8

    @staticmethod
    def _pack_bits(flags: "list[bool]") -> bytes:
        out = bytearray(len(flags) // 8)
        for i, flag in enumerate(flags):
            if flag:
                out[i >> 3] |= 1 << (i & 7)
        return bytes(out)

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += self._pack_bits(self._occ)
        out += self._pack_bits(self._cont)
        out += self._pack_bits(self._shift)
        out += _pack_slots(self._rem, self._r_bits)
        return bytes(out)


# ---------------------------------------------------------------------------
# XOR reference
# ---------------------------------------------------------------------------

_XOR_MAX_ATTEMPTS = 64


class ReferenceXorFilter(_SerializeOnly):
    name = "xor"
    supports_deletion = False

    def __init__(self, params: FilterParams) -> None:
        super().__init__(params)
        self._fp_bits = max(2, min(32, math.ceil(-math.log2(params.fpp))))
        slots = int(1.23 * max(1, params.capacity)) + 32
        self._slots = slots + (-slots) % 3
        self._table: List[int] = [0] * self._slots
        self._items: List[bytes] = []
        self._dirty = False
        self._construction_seed = 0

    def _hashes(self, item: bytes, construction_seed: int):
        base = hash64(item, self._params.seed ^ (construction_seed * 0x9E37))
        third = self._slots // 3
        h0 = base % third
        h1 = third + (splitmix64(base ^ 0xA5A5) % third)
        h2 = 2 * third + (splitmix64(base ^ 0x5A5A) % third)
        fp = splitmix64(base ^ 0xF0F0) & ((1 << self._fp_bits) - 1)
        return h0, h1, h2, fp

    def _rebuild(self) -> None:
        build_items = list(dict.fromkeys(self._items))
        for attempt in range(_XOR_MAX_ATTEMPTS):
            if self._try_build(build_items, attempt):
                self._construction_seed = attempt
                self._dirty = False
                return
        raise FilterFullError("xor reference construction failed")

    def _try_build(self, build_items: List[bytes], construction_seed: int) -> bool:
        slots = self._slots
        xor_of_items = [0] * slots
        degree = [0] * slots
        triples = []
        for idx, item in enumerate(build_items):
            h0, h1, h2, fp = self._hashes(item, construction_seed)
            triples.append((h0, h1, h2, fp))
            for h in (h0, h1, h2):
                xor_of_items[h] ^= idx
                degree[h] += 1
        stack = []
        queue = [s for s in range(slots) if degree[s] == 1]
        while queue:
            slot = queue.pop()
            if degree[slot] != 1:
                continue
            idx = xor_of_items[slot]
            stack.append((slot, idx))
            for h in triples[idx][:3]:
                xor_of_items[h] ^= idx
                degree[h] -= 1
                if degree[h] == 1:
                    queue.append(h)
        if len(stack) != len(build_items):
            return False
        table = [0] * slots
        for slot, idx in reversed(stack):
            h0, h1, h2, fp = triples[idx]
            table[slot] = fp ^ table[h0] ^ table[h1] ^ table[h2] ^ table[slot]
        self._table = table
        return True

    def _insert(self, item: bytes) -> None:
        if len(self._items) >= self.capacity:
            raise FilterFullError(
                f"xor reference at provisioned capacity {self.capacity}"
            )
        self._items.append(item)
        self._count += 1
        self._dirty = True

    def _contains(self, item: bytes) -> bool:
        if self._dirty:
            self._rebuild()
        h0, h1, h2, fp = self._hashes(item, self._construction_seed)
        return (self._table[h0] ^ self._table[h1] ^ self._table[h2]) == fp

    def _delete(self, item: bytes) -> bool:
        raise self._deletion_unsupported()

    def load_factor(self) -> float:
        return self._count / self.capacity if self.capacity else 0.0

    def slot_count(self) -> int:
        return self._slots

    def size_in_bytes(self) -> int:
        return (self._slots * self._fp_bits + 7) // 8

    def to_bytes(self) -> bytes:
        if self._dirty:
            self._rebuild()
        header = self._construction_seed.to_bytes(1, "big") + self._count.to_bytes(
            4, "big"
        )
        return bytes(header) + _pack_slots(self._table, self._fp_bits)


#: Production name -> frozen reference model.
REFERENCE_MODELS = {
    cls.name: cls
    for cls in (
        ReferenceBloomFilter,
        ReferenceCountingBloomFilter,
        ReferenceCuckooFilter,
        ReferenceVacuumFilter,
        ReferenceQuotientFilter,
        ReferenceXorFilter,
    )
}
