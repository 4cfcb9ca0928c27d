"""Table geometry shared by the filter implementations.

Fingerprint/remainder widths and bucket/slot counts derived from
(capacity, fpp, load factor). The backends build their tables from
these, and each family's ``expected_payload_bytes`` turns them into the
one wire size that the §5.2 planner, the Fig. 3/4 sweeps and the
deserializer's header check all read
(:func:`repro.amq.serialization.size_bytes_for`).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

#: Slots per bucket used by the cuckoo-style structures (Fan et al. use 4).
DEFAULT_BUCKET_SIZE = 4


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    if n < 1:
        raise ConfigurationError(f"need n >= 1, got {n}")
    return 1 << (n - 1).bit_length()


def fingerprint_bits_for_fpp(fpp: float, bucket_size: int = DEFAULT_BUCKET_SIZE) -> int:
    """Fingerprint width for a cuckoo-style filter.

    A negative lookup probes ``2 * bucket_size`` slots, each matching a
    random fingerprint with probability ``2^-f``, so
    ``f = ceil(log2(2 * bucket_size / fpp))``.
    """
    if not 0.0 < fpp < 1.0:
        raise ConfigurationError(f"fpp must be in (0, 1), got {fpp}")
    bits = math.ceil(math.log2(2 * bucket_size / fpp))
    return max(2, min(32, bits))


def remainder_bits_for_fpp(fpp: float) -> int:
    """Remainder width for a quotient filter: ``r = ceil(log2(1/fpp))``
    (the quotient filter's FPP is about ``load_factor * 2^-r``)."""
    if not 0.0 < fpp < 1.0:
        raise ConfigurationError(f"fpp must be in (0, 1), got {fpp}")
    return max(2, min(32, math.ceil(-math.log2(fpp))))


def cuckoo_geometry(
    capacity: int,
    load_factor: float,
    bucket_size: int = DEFAULT_BUCKET_SIZE,
) -> int:
    """Number of buckets for a cuckoo filter (power of two)."""
    min_buckets = math.ceil(capacity / (bucket_size * load_factor))
    return next_power_of_two(max(1, min_buckets))


def vacuum_geometry(
    capacity: int,
    load_factor: float,
    bucket_size: int = DEFAULT_BUCKET_SIZE,
) -> "tuple[int, int]":
    """(num_buckets, chunk_len) for a vacuum filter.

    The vacuum filter's headline trick (Wang et al., VLDB '19) is that the
    table need not be a power of two: alternate-bucket candidates are
    confined to power-of-two *chunks*, so the table only has to be a
    multiple of the chunk length. We pick the chunk length near
    ``sqrt(num_buckets)``, which keeps both the rounding waste and the
    chunk-local collision pressure low.
    """
    min_buckets = max(1, math.ceil(capacity / (bucket_size * load_factor)))
    full_table = next_power_of_two(min_buckets)
    chunk = 8
    while chunk < full_table:
        num_buckets = math.ceil(min_buckets / chunk) * chunk
        n_chunks = num_buckets // chunk
        # Only the chunk-local fingerprint class (half the items) is
        # pinned to a chunk; class-0 items relocate table-wide and act as
        # the safety valve, as in the vacuum paper's multi-range design.
        expected_local = 0.5 * capacity / n_chunks
        chunk_slots = chunk * bucket_size
        # Load test (the vacuum paper's range-size selection): expected
        # chunk-local load plus a fluctuation margin must fit below the
        # occupancy a 4-slot-bucket cuckoo table reliably reaches. The
        # margin grows with the chunk count so the *whole-table* failure
        # probability stays bounded as tables scale up.
        sigmas = 2.5 + math.log10(max(1.0, n_chunks))
        margin = sigmas * math.sqrt(expected_local) + 3
        if expected_local + margin <= chunk_slots * 0.97:
            return num_buckets, chunk
        chunk *= 2
    # Degenerate case: a single power-of-two chunk (cuckoo geometry).
    return full_table, full_table


def quotient_geometry(capacity: int, load_factor: float) -> int:
    """Number of slots for a quotient filter (power of two, >= 8 so the
    metadata bitmaps pack to whole bytes)."""
    return next_power_of_two(max(8, math.ceil(capacity / load_factor)))
