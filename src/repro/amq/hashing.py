"""64-bit hashing primitives shared by all AMQ filters.

Filters need fast, well-mixed, *stable* hashes (Python's builtin ``hash`` is
salted per process and therefore unusable for a wire-serialized filter that a
remote peer must query). We layer a splitmix64 finalizer on top of FNV-1a,
which empirically passes the avalanche needs of fingerprint extraction at the
scales this package operates on (hundreds to millions of keys).

All arithmetic is modulo 2**64. The scalar functions are the spec; the
``*_np`` kernels further down are their bit-identical batch forms over
numpy arrays.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

MASK64 = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Odd constants from the splitmix64 reference implementation.
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB


def fnv1a64(data: bytes, seed: int = 0) -> int:
    """Plain FNV-1a over ``data``, optionally perturbed by ``seed``."""
    h = (_FNV_OFFSET ^ (seed * _SM_GAMMA)) & MASK64
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer: a strong 64-bit bijective mixer."""
    x = (x + _SM_GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _SM_MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _SM_MIX2) & MASK64
    return x ^ (x >> 31)


def hash64(data: bytes, seed: int = 0) -> int:
    """Stable 64-bit hash of ``data`` for a given ``seed``."""
    return splitmix64(fnv1a64(data, seed))


def hash_int(value: int, seed: int = 0) -> int:
    """Stable 64-bit hash of a non-negative integer."""
    return splitmix64((value ^ (seed * _SM_GAMMA)) & MASK64)


def double_hashes(data: bytes, count: int, seed: int = 0) -> Iterator[int]:
    """Yield ``count`` derived 64-bit hashes via Kirsch-Mitzenmacher
    double hashing: ``g_i = h1 + i*h2 + i^2`` (the quadratic term avoids
    the classic degradation when ``h2`` is small modulo the table size).
    """
    h1 = hash64(data, seed)
    h2 = hash64(data, seed + 0x51ED)
    # Force h2 odd so it is invertible modulo any power-of-two table size.
    h2 |= 1
    for i in range(count):
        yield (h1 + i * h2 + i * i) & MASK64


# ---------------------------------------------------------------------------
# Vectorized batch kernels
#
# The batch API of :class:`repro.amq.base.AMQFilter` hashes every item of a
# batch in one pass: the FNV-1a byte loop runs as ``len(item)`` vector
# operations over the whole batch instead of ``len(batch) * len(item)``
# interpreter steps. All kernels produce bit-identical values to their
# scalar counterparts above — the wire image a remote peer queries must not
# depend on which code path built it.
# ---------------------------------------------------------------------------

#: Below this batch size the numpy round-trip costs more than it saves and
#: filters fall back to their scalar loops.
VECTOR_MIN_BATCH = 32


def _fnv1a64_multi_np(
    items: Sequence[bytes], seeds: Sequence[int], length: int
) -> "np.ndarray":
    """Vectorized FNV-1a over same-length items for several seeds at once
    (uint64, wrapping): shape ``(len(seeds), len(items))``.

    A seed only perturbs the initial state, so every seed shares one byte
    decode and one pass of the byte recurrence — the decode (join +
    transpose into byte-major order) is the expensive part at batch
    scale, and the filters all need two or three seeds per operation
    (fingerprint + index, or the xor filter's three slot hashes).
    """
    u64 = np.uint64
    n = len(items)
    buf = np.frombuffer(b"".join(items), dtype=np.uint8)
    # Byte-major (length, n) C-contiguous: step j of the FNV recurrence
    # streams one contiguous row instead of a stride-``length`` gather.
    # The bytes stay uint8 and widen through one reused scratch row per
    # step — cheaper than materializing the whole matrix as uint64.
    cols = np.ascontiguousarray(buf.reshape(n, length).T)
    h = np.empty((len(seeds), n), dtype=u64)
    for k, seed in enumerate(seeds):
        h[k] = u64((_FNV_OFFSET ^ (seed * _SM_GAMMA)) & MASK64)
    prime = u64(_FNV_PRIME)
    row = np.empty(n, dtype=u64)
    for j in range(length):
        np.copyto(row, cols[j], casting="unsafe")
        np.bitwise_xor(h, row, out=h)
        np.multiply(h, prime, out=h)
    return h


def splitmix64_np(x: "np.ndarray") -> "np.ndarray":
    """Vectorized :func:`splitmix64` over a uint64 array."""
    u64 = np.uint64
    x = x + u64(_SM_GAMMA)
    x = (x ^ (x >> u64(30))) * u64(_SM_MIX1)
    x = (x ^ (x >> u64(27))) * u64(_SM_MIX2)
    return x ^ (x >> u64(31))


def hash64_multi_np(items: Sequence[bytes], seeds: Sequence[int]) -> "np.ndarray":
    """Vectorized :func:`hash64` for several seeds over one byte decode:
    row ``k`` holds ``hash64(item, seeds[k])`` for every item, batch
    order. Mixed-length batches are hashed per length group (the hot
    paths only ever see uniform 32-byte fingerprints, so the grouping is
    free there).
    """
    n = len(items)
    if n == 0:
        return np.empty((len(seeds), 0), dtype=np.uint64)
    first_len = len(items[0])
    lens = np.fromiter(map(len, items), dtype=np.intp, count=n)
    if (lens == first_len).all():
        return splitmix64_np(_fnv1a64_multi_np(items, seeds, first_len))
    out = np.empty((len(seeds), n), dtype=np.uint64)
    by_length: "dict[int, list[int]]" = {}
    for idx, item in enumerate(items):
        by_length.setdefault(len(item), []).append(idx)
    for length, idxs in by_length.items():
        group = [items[i] for i in idxs]
        out[:, idxs] = splitmix64_np(_fnv1a64_multi_np(group, seeds, length))
    return out


def hash64_np(items: Sequence[bytes], seed: int = 0) -> "np.ndarray":
    """Vectorized :func:`hash64`: one uint64 per item, batch order."""
    return hash64_multi_np(items, (seed,))[0]


def xor_hashes_np(items: Sequence[bytes], seed: int, third: int, fp_bits: int):
    """Fused xor-filter hash derivation: one byte decode (via
    :func:`hash64_multi_np`'s shared FNV kernel) yields all four per-item
    values — the three slot indexes ``h0``/``h1``/``h2`` (one per table
    third) and the ``fp_bits``-wide fingerprint — as uint64 arrays,
    bit-identical to the scalar derivation in ``XorFilter._hashes``.
    ``seed`` is the already-combined filter/construction seed. Both the
    build engine (:mod:`repro.amq.peel`) and ``_contains_batch`` call
    this, so probe and construction can never drift apart.
    """
    u64 = np.uint64
    base = hash64_np(items, seed)
    t = u64(third)
    h0 = base % t
    h1 = t + splitmix64_np(base ^ u64(0xA5A5)) % t
    h2 = u64(2) * t + splitmix64_np(base ^ u64(0x5A5A)) % t
    fp = splitmix64_np(base ^ u64(0xF0F0)) & u64((1 << fp_bits) - 1)
    return h0, h1, h2, fp


def hash_int_np(values: "np.ndarray", seed: int = 0) -> "np.ndarray":
    """Vectorized :func:`hash_int` over a uint64 array."""
    return splitmix64_np(values ^ np.uint64((seed * _SM_GAMMA) & MASK64))


def double_hashes_np(items: Sequence[bytes], count: int, seed: int = 0):
    """Vectorized :func:`double_hashes`: a list of ``count`` uint64 arrays,
    array ``i`` holding hash ``g_i`` of every item (bit-identical to the
    scalar generator, modulo 2^64)."""
    u64 = np.uint64
    h1, h2 = hash64_multi_np(items, (seed, seed + 0x51ED))
    h2 = h2 | u64(1)
    return [h1 + u64(i) * h2 + u64(i * i) for i in range(count)]


def fingerprint(data: bytes, bits: int, seed: int = 0) -> int:
    """Extract a non-zero ``bits``-wide fingerprint of ``data``.

    Zero is reserved as the empty-slot marker in cuckoo-style tables, so a
    fingerprint that truncates to zero is remapped to 1 (a standard trick
    that biases epsilon negligibly).
    """
    if not 1 <= bits <= 32:
        raise ValueError(f"fingerprint width must be in [1, 32], got {bits}")
    fp = hash64(data, seed ^ 0xF1A9) & ((1 << bits) - 1)
    return fp if fp else 1
