"""Vectorized LSB-first bit-stream packing for AMQ wire images.

Every AMQ payload is a dense little-endian-bit stream: value ``i`` of
width ``w`` occupies bits ``[i*w, (i+1)*w)`` of the output, least
significant bit first within each byte. The scalar accumulator loop that
historically produced these streams is exact but costs a Python-level
iteration per slot; this module produces **byte-identical** streams with
a constant number of numpy passes.

The packing kernel scatters each value into the (up to five) output
bytes it straddles with fancy-indexed ``|=``. Fancy-index assignment is
only safe when the indices within one assignment are unique, so values
are processed in *stride phases*: with a stride of ``s`` values, two
packed values of the same phase start at least ``span`` bytes apart and
never touch the same byte. (``np.bitwise_or.at`` would allow duplicate
indices but is an order of magnitude slower.) Unpacking is a plain
gather and needs no phasing.

Field widths are limited to 32 bits: a value shifted by its intra-byte
offset then occupies at most 39 bits, comfortably inside uint64, and
spans at most 5 output bytes.

The scalar accumulator loops (the ``*_py`` functions) stay as the
executable spec and serve what the kernels cannot: plain Python
sequences handed to the packers, and fields wider than
:data:`MAX_FIELD_BITS`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: Widest field the vectorized kernels handle. Wider fields would
#: overflow the uint64 shift-and-scatter kernel, so they take the scalar
#: accumulator path (arbitrary widths, Python big ints).
MAX_FIELD_BITS = 32


def _check_width(width: int) -> None:
    if width < 1:
        raise ValueError(f"field width must be positive, got {width}")


def _span_bytes(width: int) -> int:
    # A value at intra-byte offset up to 7 covers ceil((width + 7) / 8)
    # bytes.
    return (width + 7 + 7) // 8


# ---------------------------------------------------------------------------
# Scalar accumulator loops (the spec; wide fields and plain sequences)
# ---------------------------------------------------------------------------


def pack_uniform_py(values: Sequence[int], width: int) -> bytes:
    _check_width(width)
    acc = 0
    acc_bits = 0
    out = bytearray()
    for value in values:
        acc |= int(value) << acc_bits
        acc_bits += width
        while acc_bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            acc_bits -= 8
    if acc_bits:
        out.append(acc & 0xFF)
    return bytes(out)


def unpack_uniform_py(data: bytes, count: int, width: int) -> List[int]:
    _check_width(width)
    mask = (1 << width) - 1
    out: List[int] = []
    acc = 0
    acc_bits = 0
    pos = 0
    while len(out) < count:
        while acc_bits < width:
            if pos >= len(data):
                raise ValueError(
                    f"bit stream truncated: decoded {len(out)} of {count} values"
                )
            acc |= data[pos] << acc_bits
            acc_bits += 8
            pos += 1
        out.append(acc & mask)
        acc >>= width
        acc_bits -= width
    return out


def pack_records_py(fields: Sequence[Tuple[Sequence[int], int]]) -> bytes:
    acc = 0
    acc_bits = 0
    out = bytearray()
    count = len(fields[0][0])
    for i in range(count):
        for values, width in fields:
            acc |= int(values[i]) << acc_bits
            acc_bits += width
            while acc_bits >= 8:
                out.append(acc & 0xFF)
                acc >>= 8
                acc_bits -= 8
    if acc_bits:
        out.append(acc & 0xFF)
    return bytes(out)


def unpack_records_py(
    data: bytes, count: int, widths: Sequence[int]
) -> List[List[int]]:
    out: List[List[int]] = [[] for _ in widths]
    acc = 0
    acc_bits = 0
    pos = 0
    for _ in range(count):
        for field, width in enumerate(widths):
            while acc_bits < width:
                if pos >= len(data):
                    raise ValueError("bit stream truncated")
                acc |= data[pos] << acc_bits
                acc_bits += 8
                pos += 1
            out[field].append(acc & ((1 << width) - 1))
            acc >>= width
            acc_bits -= width
    return out


# ---------------------------------------------------------------------------
# Vectorized kernels
# ---------------------------------------------------------------------------


def _scatter_or(out, values, bit_positions, width: int, stride_bits: int) -> None:
    """OR ``values`` (uint64) into byte buffer ``out`` at ``bit_positions``
    (LSB-first). Positions must be strictly increasing with a constant gap
    of ``stride_bits``; phasing makes same-pass byte indices unique."""
    u64 = np.uint64
    span = _span_bytes(width)
    phases = -(-span * 8 // stride_bits)
    byte0 = (bit_positions >> 3).astype(np.intp)
    shifted = values << (bit_positions & u64(7))
    for phase in range(phases):
        sel = slice(phase, None, phases)
        v = shifted[sel]
        b0 = byte0[sel]
        for b in range(span):
            out[b0 + b] |= ((v >> u64(8 * b)) & u64(0xFF)).astype(np.uint8)


def _gather(padded, bit_positions, width: int):
    """Inverse of :func:`_scatter_or`; ``padded`` must have >= span bytes
    of zero padding past the stream end."""
    u64 = np.uint64
    span = _span_bytes(width)
    byte0 = (bit_positions >> 3).astype(np.intp)
    acc = padded[byte0].astype(u64)
    for b in range(1, span):
        acc |= padded[byte0 + b].astype(u64) << u64(8 * b)
    return (acc >> (bit_positions & u64(7))) & u64((1 << width) - 1)


def pack_uniform(values, width: int) -> bytes:
    """Pack ``values`` at ``width`` bits each, LSB-first, final byte
    zero-padded — byte-identical to :func:`pack_uniform_py`."""
    _check_width(width)
    if not isinstance(values, np.ndarray) or width > MAX_FIELD_BITS:
        return pack_uniform_py(values, width)
    n = len(values)
    if n == 0:
        return b""
    vals = np.ascontiguousarray(values, dtype=np.uint64)
    nbytes = (n * width + 7) // 8
    out = np.zeros(nbytes + _span_bytes(width), dtype=np.uint8)
    positions = np.arange(n, dtype=np.uint64) * np.uint64(width)
    _scatter_or(out, vals, positions, width, width)
    return out[:nbytes].tobytes()


def unpack_uniform(data: bytes, count: int, width: int):
    """Decode ``count`` values of ``width`` bits from ``data``. Returns a
    uint64 array, or a list of ints for fields wider than
    :data:`MAX_FIELD_BITS`."""
    _check_width(width)
    if width > MAX_FIELD_BITS:
        return unpack_uniform_py(data, count, width)
    if (count * width + 7) // 8 > len(data):
        raise ValueError(
            f"bit stream truncated: {len(data)} bytes cannot hold "
            f"{count} x {width}-bit values"
        )
    span = _span_bytes(width)
    padded = np.zeros(len(data) + span, dtype=np.uint8)
    padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    positions = np.arange(count, dtype=np.uint64) * np.uint64(width)
    return _gather(padded, positions, width)


def pack_records(fields: Sequence[Tuple["object", int]]) -> bytes:
    """Pack parallel field columns as interleaved fixed-width records.

    ``fields`` is ``[(values, width), ...]``; record ``i`` is the
    concatenation of ``values[i]`` across fields, in order, LSB-first —
    byte-identical to the scalar per-record accumulator loop.
    """
    for _, width in fields:
        _check_width(width)
    if not all(isinstance(v, np.ndarray) for v, _ in fields) or any(
        width > MAX_FIELD_BITS for _, width in fields
    ):
        return pack_records_py(fields)
    record_bits = 0
    offsets = []
    for _, width in fields:
        offsets.append(record_bits)
        record_bits += width
    n = len(fields[0][0])
    if n == 0:
        return b""
    nbytes = (n * record_bits + 7) // 8
    out = np.zeros(nbytes + _span_bytes(MAX_FIELD_BITS), dtype=np.uint8)
    base = np.arange(n, dtype=np.uint64) * np.uint64(record_bits)
    for (values, width), offset in zip(fields, offsets):
        vals = np.ascontiguousarray(values, dtype=np.uint64)
        _scatter_or(out, vals, base + np.uint64(offset), width, record_bits)
    return out[:nbytes].tobytes()


def unpack_records(data: bytes, count: int, widths: Sequence[int]):
    """Decode ``count`` records of the given field ``widths``; returns one
    array (or list, for fields wider than :data:`MAX_FIELD_BITS`) per
    field."""
    for width in widths:
        _check_width(width)
    if any(width > MAX_FIELD_BITS for width in widths):
        return unpack_records_py(data, count, widths)
    record_bits = sum(widths)
    if (count * record_bits + 7) // 8 > len(data):
        raise ValueError(
            f"bit stream truncated: {len(data)} bytes cannot hold "
            f"{count} records of {record_bits} bits"
        )
    padded = np.zeros(len(data) + _span_bytes(MAX_FIELD_BITS), dtype=np.uint8)
    padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    base = np.arange(count, dtype=np.uint64) * np.uint64(record_bits)
    out = []
    offset = 0
    for width in widths:
        out.append(_gather(padded, base + np.uint64(offset), width))
        offset += width
    return out


def pack_flags(flags) -> bytes:
    """Pack booleans 8-per-byte, LSB-first (bit ``i`` of the stream is
    flag ``i``)."""
    arr = np.asarray(flags, dtype=bool)
    return np.packbits(arr, bitorder="little").tobytes()


def unpack_flags(data: bytes, count: int):
    """Inverse of :func:`pack_flags`; returns a bool array."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    return bits[:count].astype(bool)
