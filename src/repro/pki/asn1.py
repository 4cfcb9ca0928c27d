"""Minimal DER (Distinguished Encoding Rules) codec — ITU-T X.690.

The paper's Table 1 assumes certificates "in binary DER encoding", so our
synthetic certificates are genuinely DER-framed: sizes include the real
tag/length overhead, and the encoder/decoder round-trips bit-exactly.
Only the universal types X.509 structures need are implemented.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ASN1Error

# Universal tags.
TAG_BOOLEAN = 0x01
TAG_INTEGER = 0x02
TAG_BIT_STRING = 0x03
TAG_OCTET_STRING = 0x04
TAG_NULL = 0x05
TAG_OID = 0x06
TAG_UTF8_STRING = 0x0C
TAG_UTC_TIME = 0x17
TAG_GENERALIZED_TIME = 0x18
TAG_SEQUENCE = 0x30
TAG_SET = 0x31


def encode_length(length: int) -> bytes:
    """Definite-form DER length octets."""
    if length < 0:
        raise ASN1Error(f"negative length {length}")
    if length < 0x80:
        return bytes([length])
    body = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def decode_length(data: bytes, offset: int) -> Tuple[int, int]:
    """Return (length, offset after the length octets)."""
    if offset >= len(data):
        raise ASN1Error("truncated length")
    first = data[offset]
    offset += 1
    if first < 0x80:
        return first, offset
    num_octets = first & 0x7F
    if num_octets == 0:
        raise ASN1Error("indefinite lengths are not DER")
    if offset + num_octets > len(data):
        raise ASN1Error("truncated long-form length")
    length = int.from_bytes(data[offset : offset + num_octets], "big")
    if num_octets > 1 and data[offset] == 0:
        raise ASN1Error("non-minimal long-form length")
    if length < 0x80 and num_octets == 1:
        raise ASN1Error("non-minimal length encoding")
    return length, offset + num_octets


def encode_tlv(tag: int, content: bytes) -> bytes:
    return bytes([tag]) + encode_length(len(content)) + content


def decode_tlv(data: bytes, offset: int = 0) -> Tuple[int, bytes, int]:
    """Return (tag, content, offset after value)."""
    if offset >= len(data):
        raise ASN1Error("truncated TLV: no tag")
    tag = data[offset]
    length, body_start = decode_length(data, offset + 1)
    body_end = body_start + length
    if body_end > len(data):
        raise ASN1Error(
            f"truncated TLV: tag 0x{tag:02x} declares {length} bytes, "
            f"{len(data) - body_start} available"
        )
    return tag, data[body_start:body_end], body_end


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------


def encode_integer(value: int) -> bytes:
    if value == 0:
        return encode_tlv(TAG_INTEGER, b"\x00")
    negative = value < 0
    magnitude = -value if negative else value
    body = magnitude.to_bytes((magnitude.bit_length() + 8) // 8, "big")
    if negative:
        # Two's complement over len(body) bytes.
        value_tc = (1 << (8 * len(body))) + value
        body = value_tc.to_bytes(len(body), "big")
        if len(body) > 1 and body[0] == 0xFF and body[1] & 0x80:
            body = body[1:]
    else:
        while len(body) > 1 and body[0] == 0 and not body[1] & 0x80:
            body = body[1:]
    return encode_tlv(TAG_INTEGER, body)


def encode_boolean(value: bool) -> bytes:
    return encode_tlv(TAG_BOOLEAN, b"\xff" if value else b"\x00")


def encode_null() -> bytes:
    return encode_tlv(TAG_NULL, b"")


def encode_octet_string(value: bytes) -> bytes:
    return encode_tlv(TAG_OCTET_STRING, value)


def encode_bit_string(value: bytes, unused_bits: int = 0) -> bytes:
    if not 0 <= unused_bits <= 7:
        raise ASN1Error(f"unused_bits must be 0..7, got {unused_bits}")
    return encode_tlv(TAG_BIT_STRING, bytes([unused_bits]) + value)


def encode_utf8_string(value: str) -> bytes:
    return encode_tlv(TAG_UTF8_STRING, value.encode("utf-8"))


def _encode_arc(arc: int) -> bytes:
    chunk = [arc & 0x7F]
    arc >>= 7
    while arc:
        chunk.append(0x80 | (arc & 0x7F))
        arc >>= 7
    return bytes(reversed(chunk))


def encode_oid(dotted: str) -> bytes:
    parts = [int(p) for p in dotted.split(".")]
    if len(parts) < 2 or parts[0] > 2 or (parts[0] < 2 and parts[1] >= 40):
        raise ASN1Error(f"invalid OID {dotted!r}")
    if any(arc < 0 for arc in parts):
        raise ASN1Error(f"negative OID arc in {dotted!r}")
    # First two arcs combine into one base-128 subidentifier (X.690 §8.19).
    body = bytearray(_encode_arc(40 * parts[0] + parts[1]))
    for arc in parts[2:]:
        body.extend(_encode_arc(arc))
    return encode_tlv(TAG_OID, bytes(body))


def encode_generalized_time(epoch_seconds: int) -> bytes:
    """YYYYMMDDHHMMSSZ from unix epoch seconds (UTC, no leap handling)."""
    import time

    t = time.gmtime(epoch_seconds)
    text = (
        f"{t.tm_year:04d}{t.tm_mon:02d}{t.tm_mday:02d}"
        f"{t.tm_hour:02d}{t.tm_min:02d}{t.tm_sec:02d}Z"
    )
    return encode_tlv(TAG_GENERALIZED_TIME, text.encode("ascii"))


def encode_sequence(*parts: bytes) -> bytes:
    return encode_tlv(TAG_SEQUENCE, b"".join(parts))


def encode_set(*parts: bytes) -> bytes:
    return encode_tlv(TAG_SET, b"".join(parts))


def encode_context(number: int, content: bytes, constructed: bool = True) -> bytes:
    if not 0 <= number <= 30:
        raise ASN1Error(f"context tag {number} out of supported range")
    tag = 0x80 | number | (0x20 if constructed else 0)
    return encode_tlv(tag, content)


# ---------------------------------------------------------------------------
# Decoders
# ---------------------------------------------------------------------------


def decode_integer(tlv: bytes) -> int:
    tag, body, end = decode_tlv(tlv)
    if tag != TAG_INTEGER:
        raise ASN1Error(f"expected INTEGER, got tag 0x{tag:02x}")
    if end != len(tlv):
        raise ASN1Error("trailing bytes after INTEGER")
    if not body:
        raise ASN1Error("empty INTEGER body")
    return int.from_bytes(body, "big", signed=True)


def decode_oid(tlv: bytes) -> str:
    tag, body, end = decode_tlv(tlv)
    if tag != TAG_OID:
        raise ASN1Error(f"expected OID, got tag 0x{tag:02x}")
    if end != len(tlv) or not body:
        raise ASN1Error("malformed OID")
    if body[-1] & 0x80:
        raise ASN1Error("truncated OID arc")
    arcs = []
    arc = 0
    for byte in body:
        arc = (arc << 7) | (byte & 0x7F)
        if not byte & 0x80:
            arcs.append(arc)
            arc = 0
    first = arcs[0]
    if first < 80:
        parts = [first // 40, first % 40]
    else:
        parts = [2, first - 80]
    parts.extend(arcs[1:])
    return ".".join(str(p) for p in parts)


class DERNode:
    """A parsed DER element; constructed types expose ``children``."""

    __slots__ = ("tag", "content", "_children")

    def __init__(self, tag: int, content: bytes) -> None:
        self.tag = tag
        self.content = content
        self._children: Optional[List["DERNode"]] = None

    @property
    def constructed(self) -> bool:
        return bool(self.tag & 0x20)

    @property
    def children(self) -> List["DERNode"]:
        if not self.constructed:
            raise ASN1Error(f"tag 0x{self.tag:02x} is primitive")
        if self._children is None:
            self._children = parse_all(self.content)
        return self._children

    def encode(self) -> bytes:
        return encode_tlv(self.tag, self.content)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DERNode tag=0x{self.tag:02x} len={len(self.content)}>"


def parse(data: bytes) -> DERNode:
    """Parse exactly one DER element spanning all of ``data``."""
    tag, content, end = decode_tlv(data)
    if end != len(data):
        raise ASN1Error(f"{len(data) - end} trailing bytes after element")
    return DERNode(tag, content)


def parse_all(data: bytes) -> List[DERNode]:
    """Parse a concatenated sequence of DER elements."""
    nodes = []
    offset = 0
    while offset < len(data):
        tag, content, offset = decode_tlv(data, offset)
        nodes.append(DERNode(tag, content))
    return nodes


def sequence_children(data: bytes) -> List[DERNode]:
    """Parse ``data`` as a SEQUENCE and return its children."""
    node = parse(data)
    if node.tag != TAG_SEQUENCE:
        raise ASN1Error(f"expected SEQUENCE, got tag 0x{node.tag:02x}")
    return node.children
