"""Vacuum filter (Wang, Zhou, Shi, Qian — VLDB 2019).

A cuckoo-filter variant that removes the power-of-two table-size
restriction, reclaiming the memory a cuckoo filter wastes when the item
count sits just above a power of two (e.g. the paper's 245-ICA working set).
Alternate-bucket candidates are confined to power-of-two *chunks* of the
table: for a bucket ``i`` in the chunk starting at ``base``, the partner is
``base + ((i - base) XOR (hash(fp) mod chunk_len))`` — an involution, so the
two candidate buckets of an item always map to each other, exactly like the
cuckoo filter's XOR trick but valid for any table size that is a multiple of
``chunk_len``.

Following the paper's multi-range design, fingerprints are split into two
classes: a chunk-local class using the XOR partner above, and a table-wide
class whose partner is the reflection ``(hash(fp) - B) mod m`` (also an
involution, valid for any ``m``). The roaming class is the load-balancing
safety valve that lets the table reach cuckoo-level occupancy despite the
tight, non-power-of-two sizing — the space win Figure 3 exercises. Buckets
are semi-sort compressed on the wire (see :mod:`repro.amq.semisort`) by
default, like the reference implementations.

Storage, batch kernels, and serialization live in the shared array-native
engine (:class:`repro.amq.bucketstore.BucketTableFilter`); this module
contributes only the chunked geometry and the two-class partner map.
"""

from __future__ import annotations

import numpy as np

from repro.amq.base import FilterParams
from repro.amq.bucketstore import (
    DEFAULT_BUCKET_SIZE,
    DEFAULT_MAX_KICKS,
    BucketTableFilter,
)
from repro.amq.hashing import hash_int_np
from repro.amq.sizing import vacuum_geometry

__all__ = ["VacuumFilter", "DEFAULT_BUCKET_SIZE", "DEFAULT_MAX_KICKS"]


class VacuumFilter(BucketTableFilter):
    """Chunked-alternate-range cuckoo table over fingerprints."""

    name = "vacuum"
    _RNG_SALT = 0x7ACC

    def __init__(
        self, params: FilterParams, bucket_size: int = DEFAULT_BUCKET_SIZE, **kwargs
    ) -> None:
        super().__init__(params, bucket_size, **kwargs)
        _, self._chunk_len = vacuum_geometry(
            params.capacity, params.load_factor, bucket_size
        )

    @classmethod
    def _geometry(cls, params: FilterParams, bucket_size: int) -> int:
        return vacuum_geometry(params.capacity, params.load_factor, bucket_size)[0]

    @property
    def chunk_len(self) -> int:
        return self._chunk_len

    def _alt_index(self, index: int, fp: int) -> int:
        """Partner bucket of ``index`` for fingerprint ``fp``.

        Fingerprint class 0 (half the items) relocates table-wide via the
        reflection ``(h - B) mod m`` — an involution valid for any table
        size — and acts as the load-balancing safety valve the vacuum
        paper obtains from its largest alternate range. Class 1 relocates
        within a power-of-two chunk via the XOR trick, providing the
        locality of the smaller ranges. Both maps are involutions, so an
        item's two candidate buckets always point at each other.
        """
        h = self._fp_hash(fp)
        if fp & 1 == 0:
            return (h - index) % self._num_buckets
        base = index - (index % self._chunk_len)
        return base + ((index - base) ^ (h % self._chunk_len))

    def _alt_index_np(self, index, fp):
        """Vectorized :meth:`_alt_index` (both fingerprint classes)."""
        u64 = np.uint64
        nb = u64(self._num_buckets)
        chunk = u64(self._chunk_len)
        h = hash_int_np(fp, self._params.seed)
        # Class 0: (h - index) % m, computed without signed underflow.
        reflect = (h % nb + nb - index) % nb
        # Class 1: XOR within the power-of-two chunk.
        base = index - (index % chunk)
        chunked = base + ((index - base) ^ (h % chunk))
        return np.where(fp & u64(1) == 0, reflect, chunked)
