"""Quotient filter (Bender et al., Pandey et al. — SIGMOD 2017 "CQF").

The third dynamically-updatable AMQ candidate the paper evaluates. An item's
64-bit hash is split into a ``q``-bit *quotient* (its canonical slot) and an
``r``-bit *remainder* stored in the table. Collided remainders are kept in
sorted *runs* placed by linear probing, tracked with the classic three
metadata bits per slot:

``is_occupied``
    some stored item has this slot as its canonical slot;
``is_continuation``
    this slot's remainder continues the run started to its left;
``is_shifted``
    this slot's remainder is not in its canonical slot.

Duplicate remainders are permitted inside a run, which is what gives the
*counting* quotient filter its counting semantics: inserting the same item
``k`` times requires ``k`` deletes to clear it.

Deletion rebuilds the affected cluster (the maximal contiguous non-empty
slot range) from its decoded ``(quotient, remainder)`` cells. Clusters stay
short at practical load factors, so this keeps the implementation compact
and verifiably correct, which matters more here than constant-factor speed.

The layout is *history independent*: the table contents are a pure function
of the stored (quotient, remainder) multiset (each cluster stores its runs
in quotient order, each run sorted, packed by linear probing). The bulk
build exploits this: sorting the cells and solving the placement recurrence
``pos_i = max(q_i, pos_{i-1} + 1)`` with two vectorized max-scans produces
the exact table an insert loop would, without touching Python per cell.
"""

from __future__ import annotations

from collections import deque
from typing import List, Sequence, Tuple

import numpy as np

from repro.amq import bitpack
from repro.amq.base import AMQFilter, FilterParams
from repro.amq.hashing import VECTOR_MIN_BATCH, hash64, hash64_np
from repro.amq.sizing import quotient_geometry, remainder_bits_for_fpp
from repro.errors import FilterFullError, FilterSerializationError


class QuotientFilter(AMQFilter):
    """Counting quotient filter with three metadata bits per slot."""

    name = "quotient"
    supports_deletion = True

    def __init__(self, params: FilterParams) -> None:
        super().__init__(params)
        self._slots = quotient_geometry(params.capacity, params.load_factor)
        self._r_bits = remainder_bits_for_fpp(params.fpp)
        self._occ = np.zeros(self._slots, dtype=bool)
        self._cont = np.zeros(self._slots, dtype=bool)
        self._shift = np.zeros(self._slots, dtype=bool)
        self._rem = np.zeros(self._slots, dtype=np.uint64)

    # -- geometry ---------------------------------------------------------------

    @property
    def remainder_bits(self) -> int:
        return self._r_bits

    def slot_count(self) -> int:
        return self._slots

    def size_in_bytes(self) -> int:
        return self._slots * (self._r_bits + 3) // 8

    def effective_fpp(self) -> float:
        """Hard collision rate: ``alpha * 2^-r`` (Bender et al.)."""
        return self.load_factor() * 2.0 ** -self._r_bits

    # -- hashing ---------------------------------------------------------------

    def _qr(self, item: bytes) -> "tuple[int, int]":
        h = hash64(item, self._params.seed)
        rem = h & ((1 << self._r_bits) - 1)
        quo = (h >> self._r_bits) & (self._slots - 1)
        return quo, rem

    # -- slot helpers ------------------------------------------------------------

    def _slot_empty(self, pos: int) -> bool:
        return not (self._occ[pos] or self._cont[pos] or self._shift[pos])

    def _cluster_start(self, q: int) -> int:
        b = q
        while self._shift[b]:
            b = (b - 1) % self._slots
        return b

    def _run_start(self, q: int) -> int:
        """Position of the first remainder of quotient ``q``'s run.

        Requires ``self._occ[q]`` (set by the caller for insertions of a new
        quotient). Walks back to the cluster start, then forward skipping one
        run per occupied canonical slot between the cluster start and ``q``.
        """
        b = self._cluster_start(q)
        s = b
        while b != q:
            # Skip the run that starts at s.
            s = (s + 1) % self._slots
            while self._cont[s]:
                s = (s + 1) % self._slots
            # Advance b to the next occupied canonical slot.
            b = (b + 1) % self._slots
            while not self._occ[b]:
                b = (b + 1) % self._slots
        return s

    # -- core operations ------------------------------------------------------------

    def _insert(self, item: bytes) -> None:
        if self._count >= self._slots - 1:
            # Keep one slot free so probe scans always terminate.
            raise FilterFullError(
                f"quotient filter full ({self._count}/{self._slots} slots)"
            )
        q, rem = self._qr(item)
        self._insert_qr(q, rem)
        self._count += 1

    def _insert_qr(self, q: int, rem: int) -> None:
        was_occupied = bool(self._occ[q])
        if not was_occupied and self._slot_empty(q):
            self._occ[q] = True
            self._rem[q] = rem
            return
        self._occ[q] = True
        start = self._run_start(q)
        pos = start
        at_run_start = True
        if was_occupied:
            # Find the sorted position inside the existing run.
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
        self._shift_in(q, pos, rem, new_cont, displaced_start)

    def _shift_in(
        self,
        q: int,
        insert_pos: int,
        rem: int,
        new_cont: bool,
        displaced_start: bool,
    ) -> None:
        """Write the new cell at ``insert_pos``, rippling displaced cells
        right until an empty slot absorbs the carry."""
        carry_rem = rem
        carry_cont = new_cont
        pos = insert_pos
        shifted_flag = pos != q
        first = True
        while True:
            if self._slot_empty(pos):
                self._rem[pos] = carry_rem
                self._cont[pos] = carry_cont
                self._shift[pos] = shifted_flag
                return
            occ_rem = int(self._rem[pos])
            occ_cont = bool(self._cont[pos])
            self._rem[pos] = carry_rem
            self._cont[pos] = carry_cont
            self._shift[pos] = shifted_flag
            carry_rem = occ_rem
            carry_cont = occ_cont
            if first and displaced_start:
                # The old run head now continues the run our cell heads.
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
                return False  # runs are sorted
            pos = (pos + 1) % self._slots
            if not self._cont[pos]:
                return False

    # -- batch overrides ------------------------------------------------------

    def _qr_batch_np(self, items: Sequence[bytes]):
        """Vectorized :meth:`_qr` — (quotient, remainder) uint64 arrays."""
        h = hash64_np(items, self._params.seed)
        rem = h & np.uint64((1 << self._r_bits) - 1)
        quo = (h >> np.uint64(self._r_bits)) & np.uint64(self._slots - 1)
        return quo, rem

    def _qr_batch(self, items: Sequence[bytes]) -> "List[Tuple[int, int]]":
        """Vectorized :meth:`_qr` — one (quotient, remainder) per item."""
        quo, rem = self._qr_batch_np(items)
        return list(zip(quo.tolist(), rem.tolist()))

    def _insert_batch(self, items: Sequence[bytes]) -> None:
        if len(items) < VECTOR_MIN_BATCH:
            return super()._insert_batch(items)
        if self._count == 0:
            return self._bulk_build(items)
        limit = self._slots - 1
        for index, (q, rem) in enumerate(self._qr_batch(items)):
            if self._count >= limit:
                raise FilterFullError(
                    f"quotient filter full ({self._count}/{self._slots} slots)",
                    inserted_count=index,
                )
            self._insert_qr(q, rem)
            self._count += 1

    def _bulk_build(self, items: Sequence[bytes]) -> None:
        """Vectorized build into an empty table.

        The layout is history independent, so the cells can be placed in
        sorted (quotient, remainder) order: the placement recurrence
        ``pos_i = max(q_i, pos_{i-1} + 1)`` linearizes to a running max of
        ``q_i - i``, one ``np.maximum.accumulate`` pass. Cells pushed past
        the last slot wrap to positions ``0..w-1`` (they are consecutive:
        each is shifted, so each sits one past its predecessor), which in
        turn displaces the start of the table by ``w`` — a second
        max-scan pass with floor ``w``. The overflow count must agree
        between passes; the rare disagreement (wrap interacting with
        wrap) falls back to the scalar loop.
        """
        limit = self._slots - 1
        allowed = min(len(items), limit)
        quo, rem = self._qr_batch_np(items)
        q_all, r_all = quo, rem
        quo, rem = quo[:allowed], rem[:allowed]
        order = np.lexsort((rem, quo))
        q_s = quo[order].astype(np.int64)
        r_s = rem[order]
        n = allowed
        ar = np.arange(n, dtype=np.int64)
        base = np.maximum.accumulate(q_s - ar)
        pos = base + ar
        w = int(np.count_nonzero(pos >= self._slots))
        if w:
            pos = np.maximum(base, w) + ar
            if int(np.count_nonzero(pos >= self._slots)) != w:
                return self._bulk_build_fallback(q_all, r_all, allowed, len(items))
        posm = pos % self._slots
        first_of_run = np.empty(n, dtype=bool)
        first_of_run[0] = True
        first_of_run[1:] = q_s[1:] != q_s[:-1]
        self._occ[q_s] = True
        self._cont[posm] = ~first_of_run
        self._shift[posm] = pos != q_s
        self._rem[posm] = r_s
        self._count = n
        if allowed < len(items):
            raise FilterFullError(
                f"quotient filter full ({self._count}/{self._slots} slots)",
                inserted_count=allowed,
            )

    def _bulk_build_fallback(self, quo, rem, allowed: int, total: int) -> None:
        for index in range(allowed):
            self._insert_qr(int(quo[index]), int(rem[index]))
            self._count += 1
        if allowed < total:
            raise FilterFullError(
                f"quotient filter full ({self._count}/{self._slots} slots)",
                inserted_count=allowed,
            )

    def _contains_batch(self, items: Sequence[bytes]) -> List[bool]:
        if len(items) < VECTOR_MIN_BATCH:
            return super()._contains_batch(items)
        if len(items) >= max(VECTOR_MIN_BATCH, self._slots >> 6):
            return self._contains_batch_np(items)
        occ = self._occ
        cont = self._cont
        rems = self._rem
        slots = self._slots
        run_start = self._run_start
        out: List[bool] = []
        for q, rem in self._qr_batch(items):
            if not occ[q]:
                out.append(False)
                continue
            pos = run_start(q)
            hit = False
            while True:
                stored = rems[pos]
                if stored == rem:
                    hit = True
                    break
                if stored > rem:
                    break  # runs are sorted
                pos = (pos + 1) % slots
                if not cont[pos]:
                    break
            out.append(hit)
        return out

    def _contains_batch_np(self, items: Sequence[bytes]) -> List[bool]:
        """Fully vectorized membership: all queries walk their runs in
        lockstep over a linearized table.

        Positions are tracked on an unwrapped axis: queries probe their
        quotient's second period (``q + slots``), whose cluster start lies
        within the first, and whose run start lies at most ``slots`` cells
        further right — so the prefix scans (cluster starts, occupied
        canonicals, run heads) only span two table periods, and the run
        head position array is the single-period ``flatnonzero`` shifted
        into three. Slot *values* along the walk come from masked modular
        indexing (``pos & (slots - 1)``; the slot count is a power of
        two), which reads the same torus the insert path writes without
        materializing tiled copies. Per-query state advances one run cell
        per iteration (runs are short at any practical load factor), and
        the active set is compacted each step so late iterations touch
        only the few queries still inside a long run. Queries whose
        canonical slot is unoccupied never enter the walk, which also
        makes the empty-table probe (no run heads anywhere) a natural
        no-op instead of an out-of-bounds head gather.
        """
        slots = self._slots
        smask = slots - 1
        quo, rem = self._qr_batch_np(items)
        occ = self._occ
        cont = self._cont
        shift = self._shift
        stored_rem = self._rem
        q = quo.astype(np.intp)
        hits = np.zeros(len(items), dtype=bool)
        alive = np.flatnonzero(occ[q])
        if not alive.size:
            return hits.tolist()
        # Cluster start: nearest non-shifted slot at or left of q + slots.
        idx2 = np.arange(2 * slots, dtype=np.int64)
        shift2 = np.concatenate((shift, shift))
        cs_all = np.maximum.accumulate(np.where(shift2, -1, idx2))
        occ_cum = np.cumsum(np.concatenate((occ, occ)))
        # q's run is the k-th of its cluster, k = occupied canonicals in
        # (cs, q + slots]; run heads are non-continuation non-empty cells.
        heads = ~cont & (occ | cont | shift)
        head_cum = np.cumsum(np.concatenate((heads, heads)))
        head_pos1 = np.flatnonzero(heads)
        head_pos = np.concatenate(
            (head_pos1, head_pos1 + slots, head_pos1 + 2 * slots)
        )
        qd = q[alive] + slots
        cs = cs_all[qd]
        k = occ_cum[qd] - occ_cum[cs]
        pos = head_pos[head_cum[cs] - 1 + k]
        rem_a = rem[alive]
        while True:
            stored = stored_rem[pos & smask]
            eq = stored == rem_a
            if eq.any():
                hits[alive[eq]] = True
            walking = ~eq & (stored < rem_a)  # runs are sorted
            nxt = pos + 1
            walking &= cont[nxt & smask]
            if not walking.any():
                return hits.tolist()
            alive = alive[walking]
            pos = nxt[walking]
            rem_a = rem_a[walking]

    def count_of(self, item: bytes) -> int:
        """Number of stored occurrences of ``item``'s remainder in its run
        (the counting-filter query)."""
        q, rem = self._qr(item)
        if not self._occ[q]:
            return 0
        pos = self._run_start(q)
        hits = 0
        while True:
            if self._rem[pos] == rem:
                hits += 1
            elif self._rem[pos] > rem:
                break
            pos = (pos + 1) % self._slots
            if not self._cont[pos]:
                break
        return hits

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

    # -- cluster rebuild machinery ------------------------------------------------------

    def _decode_cluster(self, cs: int) -> "list[tuple[int, int]]":
        """Decode the cluster starting at ``cs`` into ordered
        (quotient, remainder) cells."""
        cells: "list[tuple[int, int]]" = []
        pending: "deque[int]" = deque()
        pos = cs
        cur_q = cs
        while True:
            if self._slot_empty(pos):
                break
            if pos != cs and not self._shift[pos]:
                break  # a new cluster head — not ours to touch
            if self._occ[pos]:
                pending.append(pos)
            if not self._cont[pos]:
                cur_q = pending.popleft()
            cells.append((cur_q, int(self._rem[pos])))
            pos = (pos + 1) % self._slots
            if pos == cs:
                break  # table fully cycled (pathological, guarded anyway)
        return cells

    def _clear_range(self, start: int, length: int) -> None:
        for i in range(length):
            pos = (start + i) % self._slots
            self._occ[pos] = False
            self._cont[pos] = False
            self._shift[pos] = False
            self._rem[pos] = 0

    # -- serialization -------------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += bitpack.pack_flags(self._occ)
        out += bitpack.pack_flags(self._cont)
        out += bitpack.pack_flags(self._shift)
        out += bitpack.pack_uniform(self._rem, self._r_bits)
        return bytes(out)

    @classmethod
    def expected_payload_bytes(cls, params: FilterParams) -> int:
        slots = quotient_geometry(params.capacity, params.load_factor)
        r_bits = remainder_bits_for_fpp(params.fpp)
        return 3 * (slots // 8) + (slots * r_bits + 7) // 8

    @classmethod
    def from_bytes(cls, params: FilterParams, payload: bytes) -> "QuotientFilter":
        filt = cls(params)
        bitmap_len = filt._slots // 8
        rem_len = (filt._slots * filt._r_bits + 7) // 8
        expected = 3 * bitmap_len + rem_len
        if len(payload) != expected:
            raise FilterSerializationError(
                f"quotient payload is {len(payload)} bytes, expected {expected}"
            )
        occ = bitpack.unpack_flags(payload[:bitmap_len], filt._slots)
        cont = bitpack.unpack_flags(payload[bitmap_len : 2 * bitmap_len], filt._slots)
        shift = bitpack.unpack_flags(
            payload[2 * bitmap_len : 3 * bitmap_len], filt._slots
        )
        try:
            rem = bitpack.unpack_uniform(
                payload[3 * bitmap_len :], filt._slots, filt._r_bits
            )
        except ValueError as exc:
            raise FilterSerializationError(str(exc)) from exc
        filt._occ[:] = occ
        filt._cont[:] = cont
        filt._shift[:] = shift
        filt._rem[:] = rem
        filt._count = int(np.count_nonzero(occ | cont | shift))
        return filt
