"""Approximate-membership-query (AMQ) filters.

Implements, from scratch, every probabilistic filter the paper evaluates
(Section 4.1 / Figure 3): the classic Bloom filter and its counting variant
as baselines, and the three dynamically-updatable structures — Cuckoo
(Fan et al., CoNEXT '14), Vacuum (Wang et al., VLDB '19) and the
(counting) Quotient filter (Bender et al. / Pandey et al., SIGMOD '17).

All filters share the :class:`~repro.amq.base.AMQFilter` interface:
``insert`` / ``contains`` / ``delete`` plus size and load-factor accounting,
and can be serialized to the compact wire format carried inside the
IC-suppression ClientHello extension (:mod:`repro.amq.serialization`).
"""

from repro.amq.base import AMQFilter, FilterParams
from repro.amq.hashing import VECTOR_MIN_BATCH
from repro.amq.bloom import BloomFilter, CountingBloomFilter
from repro.amq.cuckoo import CuckooFilter
from repro.amq.vacuum import VacuumFilter
from repro.amq.quotient import QuotientFilter
from repro.amq.xor import XorFilter
from repro.amq.serialization import (
    serialize_filter,
    deserialize_filter,
    filter_type_id,
    filter_class_for_name,
    canonical_params,
    FILTER_REGISTRY,
    size_bytes_for,
    max_capacity_within,
)
from repro.amq.delta import (
    DeltaApplier,
    DeltaPublisher,
    FilterDelta,
    FilterSnapshot,
    build_filter_at,
    delta_seed,
    deserialize_delta,
    serialize_delta,
)
from repro.amq.sizing import fingerprint_bits_for_fpp

__all__ = [
    "AMQFilter",
    "FilterParams",
    "VECTOR_MIN_BATCH",
    "BloomFilter",
    "CountingBloomFilter",
    "CuckooFilter",
    "VacuumFilter",
    "QuotientFilter",
    "XorFilter",
    "serialize_filter",
    "deserialize_filter",
    "filter_type_id",
    "filter_class_for_name",
    "canonical_params",
    "FILTER_REGISTRY",
    "DeltaApplier",
    "DeltaPublisher",
    "FilterDelta",
    "FilterSnapshot",
    "build_filter_at",
    "delta_seed",
    "deserialize_delta",
    "serialize_delta",
    "fingerprint_bits_for_fpp",
    "size_bytes_for",
    "max_capacity_within",
]
