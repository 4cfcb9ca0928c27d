"""Cuckoo filter (Fan, Andersen, Kaminsky, Mitzenmacher — CoNEXT 2014).

This is the structure the paper selects for its end-to-end experiments
("We utilize the Cuckoo filter with a 0.9 load factor, 0.1% FPP", §5.3).

Design points, following the original paper:

* Buckets of ``bucket_size`` (default 4) fingerprint slots; tables of a
  power-of-two number of buckets so partial-key cuckoo hashing's XOR
  alternate function stays closed: ``i2 = i1 XOR hash(fp)``.
* Fingerprint width chosen from the target FPP:
  ``f >= log2(2*bucket_size / fpp)``, so a lookup probing ``2b`` slots has
  false-positive probability about ``2b / 2^f <= fpp``.
* Insertion relocates up to ``max_kicks`` victims before declaring the
  table full (raising :class:`~repro.errors.FilterFullError`).
* Deletion removes one matching fingerprint from either candidate bucket —
  safe as long as the item was actually inserted, which is exactly the
  ICA-cache usage pattern of the paper.

Storage, batch kernels, and serialization live in the shared array-native
engine (:class:`repro.amq.bucketstore.BucketTableFilter`); this module
contributes only the power-of-two geometry and the XOR partner map.
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
from repro.amq.sizing import cuckoo_geometry

__all__ = ["CuckooFilter", "DEFAULT_BUCKET_SIZE", "DEFAULT_MAX_KICKS"]


class CuckooFilter(BucketTableFilter):
    """Partial-key cuckoo hash table over fingerprints."""

    name = "cuckoo"
    _RNG_SALT = 0xC0C0

    @classmethod
    def _geometry(cls, params: FilterParams, bucket_size: int) -> int:
        return cuckoo_geometry(params.capacity, params.load_factor, bucket_size)

    def _alt_index(self, index: int, fp: int) -> int:
        # hash the fingerprint (not the raw value) so sparse fingerprints
        # still spread over the whole table.
        return (index ^ self._fp_hash(fp)) % self._num_buckets

    def _alt_index_np(self, index, fp):
        return (index ^ hash_int_np(fp, self._params.seed)) % np.uint64(
            self._num_buckets
        )
