"""Unit tests for the DER codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ASN1Error
from repro.pki import asn1


class TestLength:
    @pytest.mark.parametrize(
        "n,encoded",
        [
            (0, b"\x00"),
            (0x7F, b"\x7f"),
            (0x80, b"\x81\x80"),
            (0xFF, b"\x81\xff"),
            (0x100, b"\x82\x01\x00"),
            (0xFFFF, b"\x82\xff\xff"),
        ],
    )
    def test_known_encodings(self, n, encoded):
        assert asn1.encode_length(n) == encoded

    @given(st.integers(min_value=0, max_value=2**24))
    def test_roundtrip(self, n):
        data = asn1.encode_length(n) + b"\x00" * min(n, 4)
        length, offset = asn1.decode_length(data, 0)
        assert length == n

    def test_negative_rejected(self):
        with pytest.raises(ASN1Error):
            asn1.encode_length(-1)

    def test_indefinite_rejected(self):
        with pytest.raises(ASN1Error):
            asn1.decode_length(b"\x80", 0)

    def test_non_minimal_rejected(self):
        with pytest.raises(ASN1Error):
            asn1.decode_length(b"\x81\x05", 0)  # 5 fits short form


class TestInteger:
    @pytest.mark.parametrize(
        "value,body",
        [
            (0, b"\x00"),
            (1, b"\x01"),
            (127, b"\x7f"),
            (128, b"\x00\x80"),  # leading zero to keep it positive
            (256, b"\x01\x00"),
            (-1, b"\xff"),
            (-128, b"\x80"),
            (-129, b"\xff\x7f"),
        ],
    )
    def test_known_encodings(self, value, body):
        assert asn1.encode_integer(value) == bytes([0x02, len(body)]) + body

    @given(st.integers(min_value=-(2**127), max_value=2**127))
    def test_roundtrip(self, value):
        assert asn1.decode_integer(asn1.encode_integer(value)) == value

    def test_decode_rejects_wrong_tag(self):
        with pytest.raises(ASN1Error):
            asn1.decode_integer(asn1.encode_null())

    def test_decode_rejects_trailing(self):
        with pytest.raises(ASN1Error):
            asn1.decode_integer(asn1.encode_integer(5) + b"\x00")


class TestOID:
    @pytest.mark.parametrize(
        "dotted",
        [
            "2.5.4.3",
            "1.2.840.113549.1.1.11",
            "1.3.6.1.4.1.99999.1.1",
            "0.9.2342",
            "2.999.1",
        ],
    )
    def test_roundtrip(self, dotted):
        assert asn1.decode_oid(asn1.encode_oid(dotted)) == dotted

    def test_known_encoding(self):
        # id-at-commonName 2.5.4.3 -> 55 04 03
        assert asn1.encode_oid("2.5.4.3") == b"\x06\x03\x55\x04\x03"

    def test_large_arc(self):
        assert asn1.decode_oid(asn1.encode_oid("1.2.840")) == "1.2.840"

    def test_single_arc_rejected(self):
        with pytest.raises(ASN1Error):
            asn1.encode_oid("1")

    def test_bad_second_arc_rejected(self):
        with pytest.raises(ASN1Error):
            asn1.encode_oid("1.40.1")

    @pytest.mark.parametrize(
        "dotted", ["2.5.4.3", "1.2.840.113549.1.1.11", "2.999.1", "0.9.2342"]
    )
    def test_memoized_encoding_matches_the_uncached_one(self, dotted):
        first = asn1.encode_oid(dotted)
        hits = asn1.encode_oid.cache_info().hits
        assert asn1.encode_oid(dotted) is first
        assert asn1.encode_oid.cache_info().hits == hits + 1
        assert first == asn1.encode_oid.__wrapped__(dotted)

    @pytest.mark.parametrize("dotted", ["1", "1.40.1", "1.2.-3", "1.x.3"])
    def test_invalid_oid_raises_on_every_call(self, dotted):
        for _ in range(3):
            with pytest.raises((ASN1Error, ValueError)):
                asn1.encode_oid(dotted)


class TestStringsAndMisc:
    def test_boolean(self):
        assert asn1.encode_boolean(True) == b"\x01\x01\xff"
        assert asn1.encode_boolean(False) == b"\x01\x01\x00"

    def test_null(self):
        assert asn1.encode_null() == b"\x05\x00"

    def test_octet_string_roundtrip(self):
        tag, content, _ = asn1.decode_tlv(asn1.encode_octet_string(b"abc"))
        assert tag == asn1.TAG_OCTET_STRING and content == b"abc"

    def test_bit_string_prefixes_unused_count(self):
        tag, content, _ = asn1.decode_tlv(asn1.encode_bit_string(b"\xaa", 3))
        assert content == b"\x03\xaa"

    def test_bit_string_rejects_bad_unused(self):
        with pytest.raises(ASN1Error):
            asn1.encode_bit_string(b"", 8)

    def test_generalized_time_format(self):
        tag, content, _ = asn1.decode_tlv(asn1.encode_generalized_time(0))
        assert content == b"19700101000000Z"

    def test_utf8(self):
        tag, content, _ = asn1.decode_tlv(asn1.encode_utf8_string("héllo"))
        assert content.decode("utf-8") == "héllo"

    def test_context_tag(self):
        node = asn1.parse(asn1.encode_context(3, asn1.encode_integer(1)))
        assert node.tag == 0xA3
        assert node.constructed


class TestStructure:
    def test_sequence_children(self):
        seq = asn1.encode_sequence(
            asn1.encode_integer(1), asn1.encode_utf8_string("x")
        )
        children = asn1.sequence_children(seq)
        assert len(children) == 2
        assert children[0].tag == asn1.TAG_INTEGER

    def test_nested_parse(self):
        inner = asn1.encode_sequence(asn1.encode_integer(42))
        outer = asn1.encode_sequence(inner, asn1.encode_null())
        node = asn1.parse(outer)
        assert node.children[0].children[0].content == b"\x2a"

    def test_parse_rejects_trailing_garbage(self):
        with pytest.raises(ASN1Error):
            asn1.parse(asn1.encode_null() + b"\x00")

    def test_parse_rejects_truncation(self):
        seq = asn1.encode_sequence(asn1.encode_octet_string(b"x" * 50))
        with pytest.raises(ASN1Error):
            asn1.parse(seq[:-1])

    def test_primitive_children_raises(self):
        node = asn1.parse(asn1.encode_integer(5))
        with pytest.raises(ASN1Error):
            node.children

    def test_parse_all(self):
        data = asn1.encode_integer(1) + asn1.encode_integer(2)
        nodes = asn1.parse_all(data)
        assert [asn1.decode_integer(n.encode()) for n in nodes] == [1, 2]

    def test_node_encode_roundtrip(self):
        seq = asn1.encode_sequence(asn1.encode_integer(9))
        assert asn1.parse(seq).encode() == seq

    @given(st.binary(max_size=64))
    def test_decoder_never_crashes_unhandled(self, blob):
        """Fuzz: arbitrary bytes either parse or raise ASN1Error, never
        anything else."""
        try:
            asn1.parse(blob)
        except ASN1Error:
            pass
