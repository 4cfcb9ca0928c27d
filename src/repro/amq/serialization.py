"""Wire format for AMQ filters.

The IC-suppression extension carries the filter itself inside the
ClientHello (paper §4.2: the client specifies "the specific filter used
(e.g., Quotient, Cuckoo)"), so both endpoints must reconstruct an identical
structure from bytes. The format is deliberately small — every header byte
competes with filter payload for the ~550-byte ClientHello budget:

====== ======= ====================================================
offset  size    field
====== ======= ====================================================
0       2       magic ``0xA3 0x01`` (AMQ wire format v1)
2       1       filter type id (see :data:`FILTER_REGISTRY`)
3       4       capacity (uint32, big endian)
7       2       fpp exponent: fpp = 2 ** (-e / 256) (uint16)
9       1       load factor in 1/255 units
10      4       hash seed (uint32)
14      2       payload length (uint16)
16      n       type-specific payload (``AMQFilter.to_bytes``)
====== ======= ====================================================

The fpp/load-factor quantization is lossless for every value the planner
produces (it rounds through the same quantizer, see
:class:`repro.core.filter_config.FilterPlan`).
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Iterable, Type

from repro.amq.base import AMQFilter, FilterParams
from repro.amq.bloom import BloomFilter, CountingBloomFilter
from repro.amq.cuckoo import CuckooFilter
from repro.amq.quotient import QuotientFilter
from repro.amq.vacuum import VacuumFilter
from repro.amq.xor import XorFilter
from repro.errors import ConfigurationError, FilterSerializationError
from repro.runtime import artifacts

_MAGIC = b"\xa3\x01"
_HEADER = struct.Struct(">2sBIHBIH")

#: Stable wire ids for each filter class.
FILTER_REGISTRY: Dict[int, Type[AMQFilter]] = {
    1: BloomFilter,
    2: CountingBloomFilter,
    3: CuckooFilter,
    4: VacuumFilter,
    5: QuotientFilter,
    6: XorFilter,
}

_TYPE_IDS = {cls: type_id for type_id, cls in FILTER_REGISTRY.items()}
_NAME_TO_CLS = {cls.name: cls for cls in FILTER_REGISTRY.values()}


def filter_type_id(filt_or_cls) -> int:
    """Wire type id for a filter instance or class."""
    cls = filt_or_cls if isinstance(filt_or_cls, type) else type(filt_or_cls)
    try:
        return _TYPE_IDS[cls]
    except KeyError:
        raise FilterSerializationError(
            f"{cls.__name__} is not registered in the AMQ wire format"
        ) from None


def filter_class_for_name(name: str) -> Type[AMQFilter]:
    """Filter class from its stable short name ('cuckoo', 'vacuum', ...)."""
    try:
        return _NAME_TO_CLS[name]
    except KeyError:
        raise FilterSerializationError(
            f"unknown filter name {name!r}; expected one of {sorted(_NAME_TO_CLS)}"
        ) from None


def size_bytes_for(
    kind: str, capacity: int, fpp: float, load_factor: float = 0.95
) -> int:
    """Payload bytes of a ``kind`` filter built with these params.

    This is the family's own
    :meth:`~repro.amq.base.AMQFilter.expected_payload_bytes` — the size
    :func:`deserialize_filter` checks untrusted headers against — so the
    §5.2 planner, the Fig. 3/4 sweeps and the wire share one size model.
    The params are used as given; callers planning for the wire pass
    :func:`canonical_params` values.
    """
    try:
        cls = _NAME_TO_CLS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown filter kind {kind!r}; expected one of {sorted(_NAME_TO_CLS)}"
        ) from None
    return cls.expected_payload_bytes(
        FilterParams(capacity=capacity, fpp=fpp, load_factor=load_factor)
    )


def max_capacity_within(
    kind: str, budget_bytes: int, fpp: float, load_factor: float = 0.95
) -> int:
    """Largest capacity whose payload fits in ``budget_bytes``.

    This answers the paper's §5.2 planning question: how many ICAs fit in
    the ~550 bytes left in a PQ ClientHello? Returns 0 when even a single
    item does not fit.
    """
    if budget_bytes < 1:
        return 0
    if size_bytes_for(kind, 1, fpp, load_factor) > budget_bytes:
        return 0
    lo, hi = 1, 2
    while size_bytes_for(kind, hi, fpp, load_factor) <= budget_bytes:
        lo = hi
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if size_bytes_for(kind, mid, fpp, load_factor) <= budget_bytes:
            lo = mid
        else:
            hi = mid
    return lo


def quantize_fpp(fpp: float) -> int:
    """Encode fpp as a 16-bit exponent: fpp = 2**(-e/256)."""
    e = round(-math.log2(fpp) * 256)
    return max(1, min(0xFFFF, e))


def dequantize_fpp(encoded: int) -> float:
    return 2 ** (-encoded / 256)


def quantize_load_factor(lf: float) -> int:
    return max(1, min(255, round(lf * 255)))


def dequantize_load_factor(encoded: int) -> float:
    return encoded / 255


def canonical_params(params: FilterParams) -> FilterParams:
    """Round ``params`` through the wire quantizers.

    Filters built from canonical params survive serialize/deserialize with
    identical geometry *and* identical hashing: both endpoints derive
    fingerprint and table sizes from the exact same (quantized) fpp and
    load factor, and the hash seed is folded into the wire format's 32-bit
    field. A seed wider than 32 bits would otherwise survive locally but
    arrive truncated at the peer, turning every stored item into a false
    negative on the remote side.
    """
    return FilterParams(
        capacity=params.capacity,
        fpp=dequantize_fpp(quantize_fpp(params.fpp)),
        load_factor=dequantize_load_factor(quantize_load_factor(params.load_factor)),
        seed=params.seed & 0xFFFFFFFF,
    )


def serialize_filter(filt: AMQFilter) -> bytes:
    """Serialize ``filt`` (header + payload) for transport."""
    payload = filt.to_bytes()
    if len(payload) > 0xFFFF:
        raise FilterSerializationError(
            f"filter payload of {len(payload)} bytes exceeds the wire format "
            "maximum of 65535"
        )
    params = filt.params
    if params.seed != params.seed & 0xFFFFFFFF:
        # Refuse rather than truncate: the peer would rebuild the filter
        # with a different hash seed and lose every stored item. Callers
        # that plan through canonical_params never hit this.
        raise FilterSerializationError(
            f"filter hash seed {params.seed} does not fit the wire format's "
            "32-bit seed field; build the filter from canonical_params"
        )
    header = _HEADER.pack(
        _MAGIC,
        filter_type_id(filt),
        params.capacity,
        quantize_fpp(params.fpp),
        quantize_load_factor(params.load_factor),
        params.seed,
        len(payload),
    )
    return header + payload


def deserialize_filter(data: bytes) -> AMQFilter:
    """Parse a wire image back into a live filter."""
    if len(data) < _HEADER.size:
        raise FilterSerializationError(
            f"filter wire image is {len(data)} bytes; header needs {_HEADER.size}"
        )
    magic, type_id, capacity, fpp_enc, lf_enc, seed, payload_len = _HEADER.unpack(
        data[: _HEADER.size]
    )
    if magic != _MAGIC:
        raise FilterSerializationError(f"bad AMQ magic {magic!r}")
    try:
        cls = FILTER_REGISTRY[type_id]
    except KeyError:
        raise FilterSerializationError(f"unknown filter type id {type_id}") from None
    payload = data[_HEADER.size :]
    if len(payload) != payload_len:
        raise FilterSerializationError(
            f"filter payload is {len(payload)} bytes, header declares {payload_len}"
        )
    # The quantizers clamp to >= 1, so a zero exponent (fpp = 1.0) or a
    # zero load factor is an encoding the serializer can never emit;
    # reject it symmetrically instead of relying on downstream param
    # validation to happen to catch the decoded values.
    if fpp_enc == 0:
        raise FilterSerializationError(
            "wire image carries a zero fpp exponent (fpp = 1.0); the "
            "quantizer never emits values below 1"
        )
    if lf_enc == 0:
        raise FilterSerializationError(
            "wire image carries a zero load factor; the quantizer never "
            "emits values below 1/255"
        )
    try:
        params = FilterParams(
            capacity=capacity,
            fpp=dequantize_fpp(fpp_enc),
            load_factor=dequantize_load_factor(lf_enc),
            seed=seed,
        )
    except ConfigurationError as exc:
        raise FilterSerializationError(
            f"wire image carries invalid filter params: {exc}"
        ) from exc
    # The header's payload_len only proves the image is self-consistent; a
    # truncated-but-self-consistent image must also match the geometry the
    # decoded params imply, or from_bytes would build a mis-sized filter.
    expected = cls.expected_payload_bytes(params)
    if payload_len != expected:
        raise FilterSerializationError(
            f"{cls.name} payload of {payload_len} bytes does not match the "
            f"geometry derived from its parameters ({expected} bytes expected "
            f"for capacity={params.capacity})"
        )
    return cls.from_bytes(params, payload)


def build_image(
    filter_kind: str, params: FilterParams, items: Iterable[bytes]
) -> bytes:
    """Wire image of a ``filter_kind`` filter over ``items`` — the one
    memoized AMQ build.

    Builds are keyed by the kind, the canonical params and a digest of
    the ordered item sequence in :data:`artifacts.FILTER_BUILDS`, and
    every call replays the build's obs snapshot, so ``amq.*`` counters
    do not depend on which caller warmed the cache.  A hit is one lookup
    that returns the stored bytes.
    """
    params = canonical_params(params)
    items = [bytes(item) for item in items]
    key = (
        filter_kind,
        params.capacity,
        params.fpp,
        params.load_factor,
        params.seed,
        artifacts.items_digest(items),
    )
    cls = filter_class_for_name(filter_kind)
    return artifacts.memoized(
        artifacts.FILTER_BUILDS,
        key,
        lambda: serialize_filter(cls.build_from_fingerprints(params, items)),
    )


def build_filter(
    filter_kind: str, params: FilterParams, items: Iterable[bytes]
) -> AMQFilter:
    """A fresh, independently mutable filter over ``items``, rehydrated
    from :func:`build_image`.

    The cold path rehydrates too: a freshly built cuckoo filter has
    consumed eviction-rng draws that a rehydrated copy has not, so
    returning the original would make the first build of a key behave
    differently from every later one.
    """
    items = [bytes(item) for item in items]
    filt = deserialize_filter(build_image(filter_kind, params, items))
    # Static backends buffer items and reconstruct on mutation; the wire
    # image cannot carry the buffer, so reattach it — without this, a
    # rehydrated xor filter's first mirrored insert would rebuild from an
    # empty buffer and drop the preloaded set.
    filt.attach_source_items(items)
    return filt


def serialized_overhead_bytes() -> int:
    """Header bytes added on top of the raw filter payload."""
    return _HEADER.size
