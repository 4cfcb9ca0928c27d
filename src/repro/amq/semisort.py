"""Semi-sorting bucket compression (Fan et al., CoNEXT '14, §5.2).

A 4-slot bucket stores an unordered *set* of fingerprints, so slot order is
free to exploit. Sorting the four fingerprints by their low nibble turns the
four nibbles into a non-decreasing 4-tuple, of which there are only
C(16+4-1, 4) = 3876 — indexable in 12 bits instead of 16. The high
``f - 4`` bits of each fingerprint are stored raw in the same sorted order,
giving ``4f - 4`` bits per bucket: exactly the "one bit per item" saving
the cuckoo-filter paper reports, and the margin that keeps a ~300-ICA
filter under the paper's 550-byte ClientHello budget (§5.2, Fig. 3-right).

Empty slots participate as fingerprint 0 (fingerprints are never 0), so a
bucket's occupancy round-trips exactly.

The table codec runs vectorized over uint64 arrays
(:func:`pack_table` / :func:`unpack_table_array`). The per-bucket
:func:`encode_bucket` / :func:`decode_bucket` loops are its executable
spec: :func:`pack_table` runs them on a plain Python sequence,
:func:`unpack_table_py` is the decoding twin, and both serve high parts
wider than :data:`repro.amq.bitpack.MAX_FIELD_BITS`.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import List, Sequence

import numpy as np

from repro.amq import bitpack

BUCKET_SIZE = 4
INDEX_BITS = 12
#: Minimum fingerprint width for the encoding (needs >= 0 high bits and
#: a meaningful low nibble).
MIN_FP_BITS = 5

_TUPLES: "list[tuple[int, int, int, int]]" = sorted(
    combinations_with_replacement(range(16), BUCKET_SIZE)
)
_TUPLE_TO_INDEX = {t: i for i, t in enumerate(_TUPLES)}

assert len(_TUPLES) == 3876  # fits in 12 bits

# Lazily-built numpy companions of the tuple tables: _NP_TUPLES maps a
# multiset index to its four sorted nibbles; _NP_RANK maps the 16-bit
# nibble concatenation (n0<<12 | n1<<8 | n2<<4 | n3) of a *sorted* tuple
# back to its index.
_NP_TUPLES = None
_NP_RANK = None


def _np_tables():
    global _NP_TUPLES, _NP_RANK
    if _NP_TUPLES is None:
        _NP_TUPLES = np.array(_TUPLES, dtype=np.uint64)
        keys = (
            (_NP_TUPLES[:, 0] << np.uint64(12))
            | (_NP_TUPLES[:, 1] << np.uint64(8))
            | (_NP_TUPLES[:, 2] << np.uint64(4))
            | _NP_TUPLES[:, 3]
        )
        rank = np.zeros(1 << 16, dtype=np.uint64)
        rank[keys.astype(np.intp)] = np.arange(len(_TUPLES), dtype=np.uint64)
        _NP_RANK = rank
    return _NP_TUPLES, _NP_RANK


def encoded_bucket_bits(fp_bits: int) -> int:
    """Bits per semi-sorted bucket: 12 + 4*(f-4) = 4f - 4."""
    if fp_bits < MIN_FP_BITS:
        raise ValueError(
            f"semi-sorting needs fingerprints of >= {MIN_FP_BITS} bits, "
            f"got {fp_bits}"
        )
    return INDEX_BITS + BUCKET_SIZE * (fp_bits - 4)


def encode_bucket(fingerprints: Sequence[int], fp_bits: int) -> "tuple[int, list[int]]":
    """Encode one bucket: returns (nibble-multiset index, high parts in
    nibble-sorted order)."""
    if len(fingerprints) != BUCKET_SIZE:
        raise ValueError(f"bucket must have {BUCKET_SIZE} slots")
    pairs = sorted((fp & 0xF, fp >> 4) for fp in fingerprints)
    nibbles = tuple(p[0] for p in pairs)
    highs = [p[1] for p in pairs]
    return _TUPLE_TO_INDEX[nibbles], highs


def decode_bucket(index: int, highs: Sequence[int], fp_bits: int) -> List[int]:
    """Inverse of :func:`encode_bucket`."""
    if not 0 <= index < len(_TUPLES):
        raise ValueError(f"semi-sort index {index} out of range")
    nibbles = _TUPLES[index]
    return [(high << 4) | nib for nib, high in zip(nibbles, highs)]


def pack_table(table, fp_bits: int) -> bytes:
    """Semi-sort-encode a flat slot table (len divisible by 4).

    Accepts a Python sequence or a uint64 array; the vectorized path
    (sort the (nibble, high) pairs per bucket as composite keys, look the
    sorted nibbles up in a 64 K rank table, pack the five fields as
    interleaved records) emits the same bytes as the scalar
    ``encode_bucket`` loop.
    """
    high_bits = fp_bits - 4
    # The composite sort key stores the high part in 32 bits, so very wide
    # fingerprints (tiny fpp) use the scalar emit loop instead.
    if isinstance(table, np.ndarray) and high_bits <= bitpack.MAX_FIELD_BITS:
        u64 = np.uint64
        t = np.ascontiguousarray(table, dtype=u64).reshape(-1, BUCKET_SIZE)
        # Composite sort key: lexicographic (low nibble, high part), as
        # in ``sorted((fp & 0xF, fp >> 4) for fp in bucket)``.
        key = ((t & u64(0xF)) << u64(32)) | (t >> u64(4))
        key = np.sort(key, axis=1)
        lows = key >> u64(32)
        highs = key & u64(0xFFFFFFFF)
        nibble_key = (
            (lows[:, 0] << u64(12))
            | (lows[:, 1] << u64(8))
            | (lows[:, 2] << u64(4))
            | lows[:, 3]
        )
        _, rank = _np_tables()
        index = rank[nibble_key.astype(np.intp)]
        return bitpack.pack_records(
            [(index, INDEX_BITS)]
            + [(np.ascontiguousarray(highs[:, j]), high_bits) for j in range(4)]
        )
    if isinstance(table, np.ndarray):
        table = [int(fp) for fp in table]
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

    for start in range(0, len(table), BUCKET_SIZE):
        index, highs = encode_bucket(table[start : start + BUCKET_SIZE], fp_bits)
        emit(index, INDEX_BITS)
        for high in highs:
            emit(high, high_bits)
    if acc_bits:
        out.append(acc & 0xFF)
    return bytes(out)


def unpack_table(data: bytes, num_buckets: int, fp_bits: int) -> List[int]:
    """Inverse of :func:`pack_table` (always returns a list of ints; use
    :func:`unpack_table_array` on the array-native path)."""
    return [int(fp) for fp in unpack_table_array(data, num_buckets, fp_bits)]


def unpack_table_array(data: bytes, num_buckets: int, fp_bits: int):
    """Decode a semi-sorted payload into a flat slot table: a uint64
    array, or a list for high parts wider than
    :data:`bitpack.MAX_FIELD_BITS`."""
    high_bits = fp_bits - 4
    if high_bits > bitpack.MAX_FIELD_BITS:
        return unpack_table_py(data, num_buckets, fp_bits)
    if len(data) < packed_size_bytes(num_buckets, fp_bits):
        raise ValueError("semi-sorted payload truncated")
    fields = bitpack.unpack_records(
        data, num_buckets, [INDEX_BITS] + [high_bits] * BUCKET_SIZE
    )
    index = fields[0]
    if index.size and int(index.max()) >= len(_TUPLES):
        raise ValueError(f"semi-sort index {int(index.max())} out of range")
    tuples, _ = _np_tables()
    nibbles = tuples[index.astype(np.intp)]  # (num_buckets, 4)
    table = np.empty(num_buckets * BUCKET_SIZE, dtype=np.uint64)
    for j in range(BUCKET_SIZE):
        table[j::BUCKET_SIZE] = (fields[1 + j] << np.uint64(4)) | nibbles[:, j]
    return table


def unpack_table_py(data: bytes, num_buckets: int, fp_bits: int) -> List[int]:
    """Scalar take loop over :func:`decode_bucket` — the spec the
    vectorized :func:`unpack_table_array` matches, and its path for very
    wide fingerprints."""
    high_bits = fp_bits - 4
    acc = 0
    acc_bits = 0
    pos = 0

    def take(bits: int) -> int:
        nonlocal acc, acc_bits, pos
        while acc_bits < bits:
            if pos >= len(data):
                raise ValueError("semi-sorted payload truncated")
            acc |= data[pos] << acc_bits
            acc_bits += 8
            pos += 1
        value = acc & ((1 << bits) - 1)
        acc >>= bits
        acc_bits -= bits
        return value

    table: List[int] = []
    for _ in range(num_buckets):
        index = take(INDEX_BITS)
        highs = [take(high_bits) for _ in range(BUCKET_SIZE)]
        table.extend(decode_bucket(index, highs, fp_bits))
    return table


def packed_size_bytes(num_buckets: int, fp_bits: int) -> int:
    return (num_buckets * encoded_bucket_bits(fp_bits) + 7) // 8
