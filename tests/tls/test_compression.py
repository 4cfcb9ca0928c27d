"""Tests for RFC 8879 certificate compression."""

import pytest

from repro.errors import DecodeError
from repro.tls.compression import (
    ALGORITHM_ZLIB,
    COMPRESSED_CERTIFICATE_TYPE,
    CompressedCertificate,
    certificate_message_for,
    compare_mechanisms,
    compress_certificate_message,
    decompress_certificate_message,
)
from repro.tls.messages import split_handshake_stream


@pytest.fixture(scope="module")
def chains():
    from repro.webmodel.flight_probe import micro_credential

    conventional, _ = micro_credential("ecdsa-p256", 2)
    pq, _ = micro_credential("dilithium3", 2)
    return conventional.chain, pq.chain


class TestRoundTrip:
    def test_compress_decompress(self, chains):
        conventional, _ = chains
        msg = certificate_message_for(conventional)
        compressed = compress_certificate_message(msg)
        assert decompress_certificate_message(compressed) == msg

    def test_wire_framing(self, chains):
        conventional, _ = chains
        msg = certificate_message_for(conventional)
        wire = compress_certificate_message(msg).encode()
        [(msg_type, body)] = split_handshake_stream(wire)
        assert msg_type == COMPRESSED_CERTIFICATE_TYPE
        decoded = CompressedCertificate.decode_body(body)
        assert decompress_certificate_message(decoded) == msg

    def test_suppressed_message_roundtrip(self, chains):
        _, pq = chains
        msg = certificate_message_for(pq, set(pq.ica_fingerprints()))
        compressed = compress_certificate_message(msg)
        assert decompress_certificate_message(compressed) == msg
        assert len(msg.entries) == 1


class TestGuards:
    def test_unknown_algorithm(self, chains):
        conventional, _ = chains
        c = compress_certificate_message(certificate_message_for(conventional))
        bad = CompressedCertificate(2, c.uncompressed_length, c.compressed)
        with pytest.raises(DecodeError):
            decompress_certificate_message(bad)

    def test_bomb_guard(self, chains):
        conventional, _ = chains
        c = compress_certificate_message(certificate_message_for(conventional))
        bomb = CompressedCertificate(ALGORITHM_ZLIB, 1 << 25, c.compressed)
        with pytest.raises(DecodeError):
            decompress_certificate_message(bomb)

    def test_corrupt_stream(self, chains):
        conventional, _ = chains
        c = compress_certificate_message(certificate_message_for(conventional))
        corrupt = CompressedCertificate(
            ALGORITHM_ZLIB, c.uncompressed_length, c.compressed[:-3] + b"\x00\x00\x00"
        )
        with pytest.raises(DecodeError):
            decompress_certificate_message(corrupt)

    def test_length_lie_detected(self, chains):
        conventional, _ = chains
        c = compress_certificate_message(certificate_message_for(conventional))
        liar = CompressedCertificate(
            ALGORITHM_ZLIB, c.uncompressed_length - 1, c.compressed
        )
        with pytest.raises(DecodeError):
            decompress_certificate_message(liar)

    def test_truncated_body(self):
        with pytest.raises(DecodeError):
            CompressedCertificate.decode_body(b"\x00\x01\x00")


class TestAsymmetry:
    """The experiment's core claim at unit scale."""

    def test_conventional_compresses_pq_does_not(self, chains):
        conventional, pq = chains
        conv = compare_mechanisms(conventional)
        pq_acc = compare_mechanisms(pq)
        assert conv.compression_ratio < 0.6
        assert pq_acc.compression_ratio > 0.85

    def test_suppression_is_entropy_blind(self, chains):
        conventional, pq = chains
        conv = compare_mechanisms(conventional)
        pq_acc = compare_mechanisms(pq)
        assert abs(conv.suppression_ratio - pq_acc.suppression_ratio) < 0.05

    def test_composition_dominates(self, chains):
        for chain in chains:
            acc = compare_mechanisms(chain)
            assert acc.combined_ratio <= min(
                acc.compression_ratio, acc.suppression_ratio
            ) + 1e-9
