"""Array-native storage engine for the cuckoo-style bucket filters.

:class:`BucketTableFilter` is the shared core of
:class:`~repro.amq.cuckoo.CuckooFilter` and
:class:`~repro.amq.vacuum.VacuumFilter` — the two structures differ only
in their table geometry and alternate-index map, which subclasses supply
via ``_geometry``/``_alt_index``/``_alt_index_np``.

Storage contract
----------------

The table is a single preallocated ``uint64`` array of
``num_buckets * bucket_size`` slots (``0`` marks empty; fingerprints are
never 0), with a ``(num_buckets, bucket_size)`` reshaped *view* kept
alongside so batch kernels index buckets without any per-call
materialization. Scalar operations index the same array, so both paths
always observe one table.

Bulk insert
-----------

``_insert_batch`` places items chunk by chunk. Within a chunk, an item
is *safe* when its first-choice bucket appears exactly once among every
candidate bucket (``i1`` and ``i2``) of the whole chunk **and** that
bucket has a free slot: no other chunk item can touch the bucket, so all
safe items can be written in one vectorized scatter, order-free, into
each bucket's first empty slot — exactly where the scalar loop would
have put them. The remaining residue is placed by the scalar
first-empty-slot walk in batch order; a residue item's candidate
buckets never host a safe item (safe buckets are referenced exactly
once chunk-wide), so the walk observes exactly the state a scalar loop
would at that item's turn.

Evictions are where out-of-order placement could diverge from the
scalar loop: a kick chain roams arbitrary buckets, including buckets
holding a safe item from a *later* batch position that a scalar run
would not have inserted yet. ``_kick_chunk`` therefore runs the chain
against the scalar view: a bucket owning an early-placed safe item
beyond the current position is treated as having that slot free — the
chain ends there exactly as the scalar chain would, the displaced safe
item is *demoted* back into the ordered walk (re-inserted when the walk
reaches its position), and the rng consumes the same draws in the same
order as ``_kick``. A ``FilterFullError`` mid-chunk unwinds the failed
chain, removes the not-yet-legitimate early placements, and carries the
exact prefix ``inserted_count`` — the PR-1 rng-determinism and PR-3
transactional-rollback contracts hold byte-for-byte.
"""

from __future__ import annotations

import heapq
import random
from typing import ClassVar, List, Sequence

import numpy as np

from repro.amq import bitpack, semisort
from repro.amq.base import AMQFilter, FilterParams
from repro.amq.hashing import (
    VECTOR_MIN_BATCH,
    fingerprint,
    hash64,
    hash64_multi_np,
    hash_int,
)
from repro.amq.sizing import DEFAULT_BUCKET_SIZE, fingerprint_bits_for_fpp
from repro.errors import FilterFullError, FilterSerializationError

DEFAULT_MAX_KICKS = 500

#: Upper bound on the vectorized-placement chunk; chunks much larger
#: than the table raise the candidate-collision rate (fewer safe items),
#: much smaller ones pay the numpy call overhead per few items.
MAX_PLACEMENT_CHUNK = 4096


class BucketTableFilter(AMQFilter):
    """Two-choice bucket table over fingerprints (shared engine)."""

    #: XOR'd into ``params.seed`` for the eviction rng so cuckoo and
    #: vacuum twins built from one seed do not share kick sequences.
    _RNG_SALT: ClassVar[int] = 0

    supports_deletion = True

    def __init__(
        self,
        params: FilterParams,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
        max_kicks: int = DEFAULT_MAX_KICKS,
        semi_sort: bool = True,
    ) -> None:
        super().__init__(params)
        self._bucket_size = bucket_size
        self._max_kicks = max_kicks
        self._fp_bits = fingerprint_bits_for_fpp(params.fpp, bucket_size)
        self._semi_sort = semi_sort and self._semi_sortable(
            bucket_size, self._fp_bits
        )
        self._num_buckets = self._geometry(params, bucket_size)
        self._alloc_table()
        self._rng = random.Random(params.seed ^ self._RNG_SALT)
        # hash_int(fp, seed) memo for the alternate-index maps: the kick
        # loops rehash the same few-thousand distinct fingerprints
        # constantly, and the map is pure in (fp, seed).
        self._fp_hash_cache: "dict[int, int]" = {}

    def _alloc_table(self) -> None:
        slots = self._num_buckets * self._bucket_size
        # Flat table: 0 marks an empty slot (fingerprints are never 0).
        self._table = np.zeros(slots, dtype=np.uint64)
        self._bucket_view = self._table.reshape(self._num_buckets, self._bucket_size)

    # -- subclass hooks --------------------------------------------------------

    @classmethod
    def _geometry(cls, params: FilterParams, bucket_size: int) -> int:
        """Number of buckets for ``params`` (subclass-specific)."""
        raise NotImplementedError

    def _alt_index(self, index: int, fp: int) -> int:
        """Partner bucket of ``index`` for fingerprint ``fp``."""
        raise NotImplementedError

    def _alt_index_np(self, index, fp):
        """Vectorized :meth:`_alt_index` over uint64 arrays."""
        raise NotImplementedError

    # -- geometry accessors ----------------------------------------------------

    @property
    def bucket_size(self) -> int:
        return self._bucket_size

    @property
    def num_buckets(self) -> int:
        return self._num_buckets

    @property
    def fingerprint_bits(self) -> int:
        return self._fp_bits

    @property
    def semi_sort(self) -> bool:
        return self._semi_sort

    def _fingerprint(self, item: bytes) -> int:
        return fingerprint(item, self._fp_bits, self._params.seed)

    def _fp_hash(self, fp: int) -> int:
        """Memoized ``hash_int(fp, seed)`` for the alternate-index maps."""
        cache = self._fp_hash_cache
        h = cache.get(fp)
        if h is None:
            h = cache[fp] = hash_int(fp, self._params.seed)
        return h

    def _index1(self, item: bytes) -> int:
        return hash64(item, self._params.seed) % self._num_buckets

    # -- scalar bucket helpers -------------------------------------------------

    def _bucket_slice(self, index: int) -> "tuple[int, int]":
        start = index * self._bucket_size
        return start, start + self._bucket_size

    def _bucket_insert(self, index: int, fp: int) -> bool:
        start, end = self._bucket_slice(index)
        for slot in range(start, end):
            if self._table[slot] == 0:
                self._table[slot] = fp
                return True
        return False

    def _bucket_contains(self, index: int, fp: int) -> bool:
        start, end = self._bucket_slice(index)
        return fp in self._table[start:end]

    def _bucket_delete(self, index: int, fp: int) -> bool:
        start, end = self._bucket_slice(index)
        for slot in range(start, end):
            if self._table[slot] == fp:
                self._table[slot] = 0
                return True
        return False

    # -- AMQFilter interface ---------------------------------------------------

    def _insert(self, item: bytes) -> None:
        fp = self._fingerprint(item)
        i1 = self._index1(item)
        i2 = self._alt_index(i1, fp)
        self._insert_fp(fp, i1, i2)

    def _insert_fp(self, fp: int, i1: int, i2: int) -> None:
        """Place a precomputed fingerprint (shared by insert/insert_batch
        so both paths drive the eviction rng identically)."""
        if self._bucket_insert(i1, fp) or self._bucket_insert(i2, fp):
            self._count += 1
            return
        self._kick(fp, i1, i2)

    def _kick(self, fp: int, i1: int, i2: int) -> None:
        # Evict: pick one of the two candidate buckets and relocate.
        index = self._rng.choice((i1, i2))
        path: List[int] = []
        for _ in range(self._max_kicks):
            start, _ = self._bucket_slice(index)
            victim_slot = start + self._rng.randrange(self._bucket_size)
            path.append(victim_slot)
            victim_fp = int(self._table[victim_slot])
            self._table[victim_slot] = fp
            fp = victim_fp
            index = self._alt_index(index, fp)
            if self._bucket_insert(index, fp):
                self._count += 1
                return
        # Transactional failure: every kick step was a swap, so replaying
        # the swaps in reverse restores the table exactly — a failed
        # insert stores nothing and loses nothing (previously a stored
        # copy of some *other* item was silently dropped here, which the
        # stateful suite caught as a false negative).
        for slot in reversed(path):
            prior = int(self._table[slot])
            self._table[slot] = fp
            fp = prior
        raise FilterFullError(
            f"{self.name} filter insert failed after {self._max_kicks} kicks "
            f"(load factor {self.load_factor():.3f})"
        )

    def _contains(self, item: bytes) -> bool:
        fp = self._fingerprint(item)
        i1 = self._index1(item)
        if self._bucket_contains(i1, fp):
            return True
        return self._bucket_contains(self._alt_index(i1, fp), fp)

    def _delete(self, item: bytes) -> bool:
        fp = self._fingerprint(item)
        i1 = self._index1(item)
        if self._bucket_delete(i1, fp):
            self._count -= 1
            return True
        if self._bucket_delete(self._alt_index(i1, fp), fp):
            self._count -= 1
            return True
        return False

    # -- batch kernels ---------------------------------------------------------

    def _batch_candidates(self, items: Sequence[bytes]):
        """Vectorized (fingerprint, bucket1, bucket2) triples — identical
        values to the scalar ``_fingerprint``/``_index1``/``_alt_index``.
        The fingerprint and index hashes share one fused byte decode."""
        seed = self._params.seed
        fp_h, idx_h = hash64_multi_np(items, (seed ^ 0xF1A9, seed))
        fps = fp_h & np.uint64((1 << self._fp_bits) - 1)
        fps[fps == 0] = 1
        i1 = idx_h % np.uint64(self._num_buckets)
        return fps, i1, self._alt_index_np(i1, fps)

    def _insert_batch(self, items: Sequence[bytes]) -> None:
        if len(items) < VECTOR_MIN_BATCH:
            return super()._insert_batch(items)
        fps, i1s, i2s = self._batch_candidates(items)
        # Bucket indices fit in int63, so the uint64->int64 view is a free
        # reinterpretation that fancy indexing and bincount accept.
        i1v = i1s.view(np.int64)
        i2v = i2s.view(np.int64)
        n = len(items)
        chunk = max(VECTOR_MIN_BATCH, min(MAX_PLACEMENT_CHUNK, self._num_buckets))
        base = 0
        while base < n:
            end = min(n, base + chunk)
            self._insert_chunk(fps, i1v, i2v, base, end)
            base = end

    def _insert_chunk(self, fps, i1s, i2s, base, end) -> None:
        nb = self._num_buckets
        c_i1 = i1s[base:end]
        cat = np.concatenate((c_i1, i2s[base:end]))
        if 8 * cat.size >= nb:
            counts = np.bincount(cat, minlength=nb)
            unique_i1 = counts[c_i1] == 1
        else:
            # Sparse chunk over a huge table: duplicate detection by sort
            # beats zeroing a bucket-sized counts array.
            ordered = np.sort(cat)
            dups = ordered[1:][ordered[1:] == ordered[:-1]]
            unique_i1 = ~np.isin(c_i1, dups)
        rows = self._bucket_view[c_i1]
        empty = rows == 0
        safe = unique_i1 & empty.any(axis=1)
        safe_pos = np.flatnonzero(safe)
        if safe_pos.size:
            safe_buckets = c_i1[safe_pos]
            # First empty slot per bucket — the slot the scalar walk fills
            # (argmax finds the first True, so delete holes are reused).
            first_free = empty[safe_pos].argmax(axis=1)
            self._bucket_view[safe_buckets, first_free] = fps[base:end][safe_pos]
            self._count += int(safe_pos.size)
        else:
            safe_buckets = first_free = None
        residue = np.flatnonzero(~safe).tolist()
        if residue:
            self._place_residue(
                fps[base:end].tolist(),
                c_i1.tolist(),
                i2s[base:end].tolist(),
                base,
                residue,
                safe_pos,
                safe_buckets,
                first_free,
            )

    def _place_residue(
        self, c_fps, c_i1, c_i2, base, residue, safe_pos, safe_buckets, first_free
    ) -> None:
        """Walk the non-safe chunk items in batch order, placing each by
        the scalar first-empty-slot rule; safe items demoted by a kick
        chain re-enter the walk at their original position. The chunk's
        fingerprint/bucket values arrive as plain lists — the walk is
        scalar Python, so per-item numpy element access would dominate."""
        table = self._table
        bucket_size = self._bucket_size
        owners = None  # built lazily: {bucket: (position, slot-in-bucket)}
        pending: List[int] = []  # demoted safe positions (min-heap)
        res_iter = iter(residue)
        next_res = next(res_iter, None)
        while next_res is not None or pending:
            if pending and (next_res is None or pending[0] < next_res):
                pos = heapq.heappop(pending)
            else:
                pos = next_res
                next_res = next(res_iter, None)
            fp = c_fps[pos]
            placed = False
            for b in (c_i1[pos], c_i2[pos]):
                start = b * bucket_size
                for slot in range(start, start + bucket_size):
                    if not table[slot]:
                        table[slot] = fp
                        placed = True
                        break
                if placed:
                    break
            if placed:
                self._count += 1
                continue
            if owners is None:
                if safe_pos is not None and safe_pos.size:
                    owners = {
                        b: (p, s)
                        for b, p, s in zip(
                            safe_buckets.tolist(),
                            safe_pos.tolist(),
                            first_free.tolist(),
                        )
                    }
                else:
                    owners = {}
            try:
                demoted = self._kick_chunk(
                    fp, c_i1[pos], c_i2[pos], pos, owners
                )
            except FilterFullError as exc:
                # Early-placed safe items beyond the failing position are
                # placements a scalar run never made: remove them so the
                # table holds exactly the successfully-inserted prefix
                # (plus the failed chain's unwound swaps).
                stale = [
                    (b, s) for b, (p, s) in owners.items() if p > pos
                ]
                for b, s in stale:
                    table[b * bucket_size + s] = 0
                self._count -= len(stale)
                exc.inserted_count = base + pos
                raise
            self._count += 1
            if demoted is not None:
                heapq.heappush(pending, demoted)
                self._count -= 1

    def _kick_chunk(self, fp, i1, i2, frontier, owners):
        """:meth:`_kick` against the scalar view of a partially-scattered
        chunk: identical rng draws and swaps, except that a bucket owning
        an early-placed safe item from a position after ``frontier`` is
        seen as the scalar loop would — with that slot still free. The
        chain ends there, the safe item is demoted (its position is
        returned for re-insertion), and its slot takes the displaced
        fingerprint, exactly as the pure scalar execution."""
        table = self._table
        bucket_size = self._bucket_size
        rng = self._rng
        index = rng.choice((i1, i2))
        path: List[int] = []
        for _ in range(self._max_kicks):
            start = index * bucket_size
            victim_slot = start + rng.randrange(bucket_size)
            path.append(victim_slot)
            victim_fp = int(table[victim_slot])
            table[victim_slot] = fp
            fp = victim_fp
            index = self._alt_index(index, fp)
            entry = owners.get(index)
            if entry is not None and entry[0] > frontier:
                # Scalar state has this safe slot empty: the chain ends
                # here; the early-placed item yields it and re-queues.
                table[index * bucket_size + entry[1]] = fp
                del owners[index]
                return entry[0]
            if self._bucket_insert(index, fp):
                return None
        for slot in reversed(path):
            prior = int(table[slot])
            table[slot] = fp
            fp = prior
        raise FilterFullError(
            f"{self.name} filter insert failed after {self._max_kicks} kicks "
            f"(load factor {self.load_factor():.3f})"
        )

    def _contains_batch(self, items: Sequence[bytes]) -> List[bool]:
        if len(items) < VECTOR_MIN_BATCH:
            return super()._contains_batch(items)
        fps, i1, i2 = self._batch_candidates(items)
        buckets = self._bucket_view
        want = fps[:, None]
        hit = (buckets[i1.view(np.int64)] == want).any(axis=1)
        hit |= (buckets[i2.view(np.int64)] == want).any(axis=1)
        return hit.tolist()

    def _delete_batch(self, items: Sequence[bytes]) -> List[bool]:
        if len(items) < VECTOR_MIN_BATCH:
            return super()._delete_batch(items)
        # Deletions are order-dependent under duplicate fingerprints, so
        # placement stays scalar over the vectorized candidates.
        fps, i1s, i2s = self._batch_candidates(items)
        fps_l = fps.tolist()
        i1_l = i1s.tolist()
        i2_l = i2s.tolist()
        table = self._table
        bucket_size = self._bucket_size
        out: List[bool] = []
        for index in range(len(items)):
            fp = fps_l[index]
            removed = False
            for b in (i1_l[index], i2_l[index]):
                start = b * bucket_size
                for slot in range(start, start + bucket_size):
                    if table[slot] == fp:
                        table[slot] = 0
                        removed = True
                        break
                if removed:
                    break
            if removed:
                self._count -= 1
            out.append(removed)
        return out

    # -- sizing ----------------------------------------------------------------

    def slot_count(self) -> int:
        return self._num_buckets * self._bucket_size

    def effective_fpp(self) -> float:
        """A negative lookup probes 2 buckets (2b slots); each occupied
        slot matches with probability 2^-f, so at occupancy alpha the
        rate is ``1 - (1 - 2^-f)^(2 b alpha)``."""
        alpha = self.load_factor()
        per_slot = 2.0 ** -self._fp_bits
        return 1.0 - (1.0 - per_slot) ** (2 * self._bucket_size * alpha)

    @staticmethod
    def _semi_sortable(bucket_size: int, fp_bits: int) -> bool:
        return bucket_size == semisort.BUCKET_SIZE and fp_bits >= semisort.MIN_FP_BITS

    @staticmethod
    def _payload_bytes(
        num_buckets: int, bucket_size: int, fp_bits: int, semi_sort: bool
    ) -> int:
        if semi_sort:
            return semisort.packed_size_bytes(num_buckets, fp_bits)
        return (num_buckets * bucket_size * fp_bits + 7) // 8

    def size_in_bytes(self) -> int:
        return self._payload_bytes(
            self._num_buckets, self._bucket_size, self._fp_bits, self._semi_sort
        )

    @classmethod
    def expected_payload_bytes(cls, params: FilterParams) -> int:
        """Payload size of a default-configured filter, from geometry
        alone: a wire header may claim a table of gigabytes, so nothing
        is allocated before that claim is checked against the payload."""
        bucket_size = DEFAULT_BUCKET_SIZE
        fp_bits = fingerprint_bits_for_fpp(params.fpp, bucket_size)
        return cls._payload_bytes(
            cls._geometry(params, bucket_size),
            bucket_size,
            fp_bits,
            cls._semi_sortable(bucket_size, fp_bits),
        )

    # -- serialization ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Pack the table: semi-sorted bucket encoding when enabled,
        otherwise ``fingerprint_bits`` per slot, LSB-first. Both codecs
        read the table array directly (no per-slot Python loop)."""
        if self._semi_sort:
            return semisort.pack_table(self._table, self._fp_bits)
        return bitpack.pack_uniform(self._table, self._fp_bits)

    @classmethod
    def from_bytes(
        cls,
        params: FilterParams,
        payload: bytes,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
        max_kicks: int = DEFAULT_MAX_KICKS,
        semi_sort: bool = True,
    ) -> "BucketTableFilter":
        filt = cls(
            params, bucket_size=bucket_size, max_kicks=max_kicks, semi_sort=semi_sort
        )
        expected = filt.size_in_bytes()
        if len(payload) != expected:
            raise FilterSerializationError(
                f"{cls.name} payload is {len(payload)} bytes, expected {expected}"
            )
        total_slots = filt.slot_count()
        try:
            if filt._semi_sort:
                table = semisort.unpack_table_array(
                    payload, filt._num_buckets, filt._fp_bits
                )
            else:
                table = bitpack.unpack_uniform(payload, total_slots, filt._fp_bits)
        except ValueError as exc:
            raise FilterSerializationError(str(exc)) from exc
        filt._table[:] = table
        filt._count = int(np.count_nonzero(filt._table))
        return filt
