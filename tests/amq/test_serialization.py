"""Tests for the AMQ wire format."""

import pytest

from repro.amq import (
    FILTER_REGISTRY,
    BloomFilter,
    CuckooFilter,
    FilterParams,
    QuotientFilter,
    VacuumFilter,
    canonical_params,
    deserialize_filter,
    filter_class_for_name,
    filter_type_id,
    serialize_filter,
)
from repro.amq.serialization import (
    dequantize_fpp,
    dequantize_load_factor,
    quantize_fpp,
    quantize_load_factor,
    serialized_overhead_bytes,
)
from repro.errors import FilterSerializationError
from tests.conftest import make_items


class TestQuantizers:
    @pytest.mark.parametrize("fpp", [0.5, 0.1, 0.01, 1e-3, 1e-4, 1e-5])
    def test_fpp_roundtrip_stable(self, fpp):
        """Quantize(dequantize(quantize(x))) == quantize(x): canonical
        values survive the wire exactly."""
        e = quantize_fpp(fpp)
        assert quantize_fpp(dequantize_fpp(e)) == e

    @pytest.mark.parametrize("fpp", [0.1, 0.01, 1e-3, 1e-4])
    def test_fpp_quantization_error_small(self, fpp):
        assert abs(dequantize_fpp(quantize_fpp(fpp)) - fpp) / fpp < 0.01

    @pytest.mark.parametrize("lf", [0.5, 0.75, 0.9, 0.95, 1.0])
    def test_load_factor_roundtrip_stable(self, lf):
        e = quantize_load_factor(lf)
        assert quantize_load_factor(dequantize_load_factor(e)) == e


class TestRegistry:
    def test_all_types_registered(self):
        names = {cls.name for cls in FILTER_REGISTRY.values()}
        assert names == {
            "bloom", "counting-bloom", "cuckoo", "vacuum", "quotient", "xor"
        }

    def test_type_ids_stable(self):
        assert filter_type_id(CuckooFilter) == 3
        assert filter_type_id(VacuumFilter) == 4
        assert filter_type_id(QuotientFilter) == 5

    def test_type_id_of_instance(self, paper_params):
        assert filter_type_id(BloomFilter(paper_params)) == 1

    def test_unregistered_class_rejected(self):
        class Fake:  # not an AMQFilter subclass at all
            pass

        with pytest.raises(FilterSerializationError):
            filter_type_id(Fake)

    def test_class_for_name(self):
        assert filter_class_for_name("cuckoo") is CuckooFilter

    def test_class_for_unknown_name(self):
        with pytest.raises(FilterSerializationError):
            filter_class_for_name("ribbon")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        ["bloom", "counting-bloom", "cuckoo", "vacuum", "quotient", "xor"],
    )
    def test_full_roundtrip(self, rng, name):
        cls = filter_class_for_name(name)
        params = canonical_params(
            FilterParams(capacity=245, fpp=1e-3, load_factor=0.9, seed=77)
        )
        f = cls(params)
        items = make_items(rng, 245)
        f.insert_all(items)
        g = deserialize_filter(serialize_filter(f))
        assert type(g) is cls
        assert all(g.contains(i) for i in items)
        assert g.params == params

    def test_header_overhead_is_modest(self, paper_params, items_245):
        f = CuckooFilter(paper_params)
        f.insert_all(items_245)
        wire = serialize_filter(f)
        assert len(wire) - f.size_in_bytes() == serialized_overhead_bytes()
        assert serialized_overhead_bytes() <= 20

    @pytest.mark.parametrize(
        "name",
        ["bloom", "counting-bloom", "cuckoo", "vacuum", "quotient", "xor"],
    )
    def test_batch_load_serializes_byte_identically(self, rng, name):
        """A batch-loaded filter and a scalar-loaded twin are the same
        filter on the wire: ``to_bytes`` (and hence the full serialized
        image) must match byte for byte, so either endpoint may use the
        vectorized path without breaking payload memoization or filter
        dedup keyed on the wire image."""
        cls = filter_class_for_name(name)
        params = canonical_params(
            FilterParams(capacity=245, fpp=1e-3, load_factor=0.9, seed=77)
        )
        items = make_items(rng, 245)
        batch_loaded = cls(params)
        batch_loaded.insert_batch(items)
        scalar_loaded = cls(params)
        for item in items:
            scalar_loaded.insert(item)
        assert batch_loaded.to_bytes() == scalar_loaded.to_bytes()
        assert serialize_filter(batch_loaded) == serialize_filter(scalar_loaded)

    def test_seed_preserved(self, items_245):
        params = canonical_params(
            FilterParams(capacity=245, fpp=1e-3, load_factor=0.9, seed=123456)
        )
        f = CuckooFilter(params)
        f.insert_all(items_245)
        g = deserialize_filter(serialize_filter(f))
        assert g.params.seed == 123456


class TestRejection:
    def test_truncated_header(self):
        with pytest.raises(FilterSerializationError):
            deserialize_filter(b"\xa3\x01\x03")

    def test_bad_magic(self, paper_params):
        wire = bytearray(serialize_filter(CuckooFilter(paper_params)))
        wire[0] ^= 0xFF
        with pytest.raises(FilterSerializationError):
            deserialize_filter(bytes(wire))

    def test_unknown_type_id(self, paper_params):
        wire = bytearray(serialize_filter(CuckooFilter(paper_params)))
        wire[2] = 200
        with pytest.raises(FilterSerializationError):
            deserialize_filter(bytes(wire))

    def test_length_mismatch(self, paper_params):
        wire = serialize_filter(CuckooFilter(paper_params))
        with pytest.raises(FilterSerializationError):
            deserialize_filter(wire + b"\x00")

    def test_truncated_payload(self, paper_params):
        wire = serialize_filter(CuckooFilter(paper_params))
        with pytest.raises(FilterSerializationError):
            deserialize_filter(wire[:-4])

    @staticmethod
    def _with_payload_len(wire: bytes, payload: bytes) -> bytes:
        """Swap in ``payload`` and fix the header's length field, producing
        a *self-consistent* image (header length matches the bytes present)
        that only the params-derived geometry check can reject."""
        header = bytearray(wire[: serialized_overhead_bytes()])
        header[14:16] = len(payload).to_bytes(2, "big")
        return bytes(header) + payload

    @pytest.mark.parametrize("name", sorted(cls.name for cls in FILTER_REGISTRY.values()))
    def test_self_consistent_truncation_rejected(self, rng, name):
        # A peer that trusts the header's payload_len alone would build a
        # mis-sized table from this image; the decoded params pin the
        # true geometry.
        cls = filter_class_for_name(name)
        params = canonical_params(FilterParams(capacity=64, fpp=1e-3, load_factor=0.9))
        filt = cls(params)
        filt.insert_all(make_items(rng, 32))
        wire = serialize_filter(filt)
        payload = wire[serialized_overhead_bytes():]
        truncated = self._with_payload_len(wire, payload[:-1])
        with pytest.raises(FilterSerializationError, match="geometry"):
            deserialize_filter(truncated)

    def test_self_consistent_padding_rejected(self, paper_params):
        wire = serialize_filter(CuckooFilter(paper_params))
        payload = wire[serialized_overhead_bytes():]
        padded = self._with_payload_len(wire, payload + b"\x00\x00")
        with pytest.raises(FilterSerializationError, match="geometry"):
            deserialize_filter(padded)

    def test_empty_payload_with_zeroed_length_rejected(self, paper_params):
        wire = serialize_filter(CuckooFilter(paper_params))
        stripped = self._with_payload_len(wire, b"")
        with pytest.raises(FilterSerializationError, match="geometry"):
            deserialize_filter(stripped)

    def test_invalid_decoded_capacity_rejected(self, paper_params):
        # capacity=0 fails FilterParams validation; the wire layer must
        # surface that as a serialization error, not a config error.
        wire = bytearray(serialize_filter(CuckooFilter(paper_params)))
        wire[3:7] = (0).to_bytes(4, "big")
        with pytest.raises(FilterSerializationError, match="invalid filter params"):
            deserialize_filter(bytes(wire))

    def test_zero_fpp_exponent_rejected(self, paper_params):
        # The quantizer clamps to >= 1, so a zero exponent (fpp = 1.0)
        # can only come from corruption or a foreign encoder; decoding
        # it would build a filter with degenerate hash geometry.
        wire = bytearray(serialize_filter(CuckooFilter(paper_params)))
        wire[7:9] = (0).to_bytes(2, "big")
        with pytest.raises(FilterSerializationError, match="fpp"):
            deserialize_filter(bytes(wire))

    def test_zero_load_factor_rejected(self, paper_params):
        # Likewise lf_enc = 0 would dequantize to a zero load factor and
        # an infinite table; reject at the wire layer, explicitly.
        wire = bytearray(serialize_filter(CuckooFilter(paper_params)))
        wire[9] = 0
        with pytest.raises(FilterSerializationError, match="load factor"):
            deserialize_filter(bytes(wire))

    def test_geometry_error_names_expectation(self, paper_params):
        wire = serialize_filter(CuckooFilter(paper_params))
        payload = wire[serialized_overhead_bytes():]
        expected = len(payload)
        bad = self._with_payload_len(wire, payload[: expected // 2])
        with pytest.raises(FilterSerializationError, match=str(expected)):
            deserialize_filter(bad)


class TestExpectedPayloadBytes:
    """``expected_payload_bytes`` derives the payload size from geometry
    without building the filter; it must agree with what a built filter
    actually serializes to."""

    @pytest.mark.parametrize("cls", list(FILTER_REGISTRY.values()),
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("capacity", [1, 245, 1000])
    @pytest.mark.parametrize("fpp", [0.9, 0.3, 1e-3, 1e-6])
    def test_matches_built_filter(self, cls, capacity, fpp):
        params = canonical_params(
            FilterParams(capacity=capacity, fpp=fpp, load_factor=0.9, seed=3)
        )
        assert cls.expected_payload_bytes(params) == len(cls(params).to_bytes())


class TestSeedWidth:
    """Regression: the wire header's seed field is 32 bits, and
    ``serialize_filter`` used to truncate wider seeds silently — the peer
    then rebuilt the filter with a *different* hash function and every
    stored item became a false negative on the remote side."""

    WIDE_SEED = 2343948629979923722  # a real derive_seed() output

    def test_serialize_refuses_lossy_seed(self):
        params = FilterParams(
            capacity=64, fpp=1e-3, load_factor=0.9, seed=self.WIDE_SEED
        )
        with pytest.raises(FilterSerializationError, match="seed"):
            serialize_filter(CuckooFilter(params))

    def test_canonical_params_fold_seed_into_wire_width(self):
        params = canonical_params(
            FilterParams(
                capacity=64, fpp=1e-3, load_factor=0.9, seed=self.WIDE_SEED
            )
        )
        assert params.seed == self.WIDE_SEED & 0xFFFFFFFF
        assert canonical_params(params) == params

    def test_canonical_wide_seed_roundtrips_membership(self):
        params = canonical_params(
            FilterParams(
                capacity=64, fpp=1e-3, load_factor=0.9, seed=self.WIDE_SEED
            )
        )
        filt = CuckooFilter(params)
        items = make_items(__import__("random").Random(5), 40)
        for item in items:
            filt.insert(item)
        restored = deserialize_filter(serialize_filter(filt))
        assert restored.params.seed == params.seed
        assert all(restored.contains(item) for item in items)
