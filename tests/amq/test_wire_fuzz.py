"""Fuzzing the wire layers: AMQ images and ``repro.delta/v1`` messages.

Two different hardness contracts, tested separately:

* **Delta messages carry an integrity check**, so the contract is total:
  *any* truncation, extension or single-bit flip anywhere in the message
  raises :class:`~repro.errors.FilterSerializationError`. The corpus
  walks every bit of a patch and a snapshot for every filter family.
* **AMQ images are checksum-free** (the format is frozen by the golden
  images), so a flip in a don't-care region — the seed field, payload
  bits — can decode into a *different but well-formed* filter. The
  contract is therefore: every corruption either raises
  ``FilterSerializationError`` or yields a filter whose declared
  geometry matches its payload; no foreign exception, no crash, ever.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.amq import (
    FILTER_REGISTRY,
    DeltaPublisher,
    FilterDelta,
    FilterSnapshot,
    build_filter_at,
    deserialize_delta,
    deserialize_filter,
    serialize_delta,
    serialize_filter,
)
from repro.amq.serialization import serialized_overhead_bytes
from repro.errors import FilterSerializationError
from tests.conftest import make_items

FAMILIES = sorted(cls.name for cls in FILTER_REGISTRY.values())


def _image(rng, name: str) -> bytes:
    filt = build_filter_at(name, 32, 1e-2, 0.9, 17, 0, make_items(rng, 20))
    return serialize_filter(filt)


def _delta_messages(rng, name: str):
    items = make_items(rng, 12)
    pub = DeltaPublisher(name, items, fpp=1e-2, seed=17)
    pub.publish(items[3:] + make_items(rng, 2))
    patch = pub.patch_message(0, 1)
    snapshot = pub.snapshot_message()
    return patch, snapshot


class TestDeltaMessageHardness:
    """Total rejection: the checksum makes every corruption loud."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_every_bit_flip_rejected(self, rng, name):
        for wire in _delta_messages(rng, name):
            for byte_index in range(len(wire)):
                for bit in range(8):
                    corrupt = bytearray(wire)
                    corrupt[byte_index] ^= 1 << bit
                    with pytest.raises(FilterSerializationError):
                        deserialize_delta(bytes(corrupt))

    @pytest.mark.parametrize("name", FAMILIES)
    def test_every_truncation_rejected(self, rng, name):
        for wire in _delta_messages(rng, name):
            for length in range(len(wire)):
                with pytest.raises(FilterSerializationError):
                    deserialize_delta(wire[:length])

    def test_every_extension_rejected(self, rng):
        patch, snapshot = _delta_messages(rng, "cuckoo")
        for wire in (patch, snapshot):
            for tail in (b"\x00", b"\xff" * 3):
                with pytest.raises(FilterSerializationError):
                    deserialize_delta(wire + tail)

    @given(blob=st.binary(max_size=160))
    @settings(max_examples=120, deadline=None)
    def test_random_blobs_never_raise_foreign_exceptions(self, blob):
        try:
            deserialize_delta(blob)
        except FilterSerializationError:
            pass

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_survives_for_arbitrary_patches(self, data):
        """Property round-trip: any *valid* patch serializes and decodes
        back to itself, whatever its field values."""
        name = data.draw(st.sampled_from(FAMILIES))
        item_len = data.draw(st.integers(1, 48))
        added = data.draw(
            st.lists(st.binary(min_size=item_len, max_size=item_len),
                     unique=True, max_size=6)
        )
        removed = data.draw(
            st.lists(st.integers(0, 0xFFFF), unique=True, max_size=6)
        )
        from_version = data.draw(st.integers(0, 2**40))
        patch = FilterDelta(
            filter_kind=name,
            from_version=from_version,
            to_version=from_version + data.draw(st.integers(1, 2**20)),
            capacity=data.draw(st.integers(1, 0xFFFFFFFF)),
            fpp=data.draw(st.sampled_from([0.1, 1e-2, 1e-3, 1e-5])),
            load_factor=data.draw(st.sampled_from([0.5, 0.9, 1.0])),
            seed=data.draw(st.integers(0, 0xFFFFFFFF)),
            added=tuple(added),
            removed_indices=tuple(sorted(removed)),
        )
        decoded = deserialize_delta(serialize_delta(patch))
        assert decoded.filter_kind == patch.filter_kind
        assert decoded.from_version == patch.from_version
        assert decoded.to_version == patch.to_version
        assert decoded.capacity == patch.capacity
        assert decoded.seed == patch.seed
        assert decoded.added == patch.added
        assert decoded.removed_indices == patch.removed_indices


class TestAMQImageHardness:
    """No foreign exceptions: a corrupt image either fails loudly as a
    serialization error or decodes into a geometry-consistent filter."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_header_bit_flips_contained(self, rng, name):
        wire = _image(rng, name)
        for byte_index in range(serialized_overhead_bytes()):
            for bit in range(8):
                corrupt = bytearray(wire)
                corrupt[byte_index] ^= 1 << bit
                try:
                    filt = deserialize_filter(bytes(corrupt))
                except FilterSerializationError:
                    continue
                # A surviving decode (seed bits, tolerated header slack)
                # must still be internally consistent.
                assert serialize_filter(filt)

    def test_header_bit_flips_fit_a_small_address_space(self, rng):
        """A header may claim a table of gigabytes while carrying a few
        bytes of payload. Geometry must be checked against the payload
        before anything is allocated, so every header bit flip of every
        family decodes or fails within a 512 MiB address space."""
        resource = pytest.importorskip("resource")
        limit = 512 * 1024 * 1024
        images = [_image(rng, name).hex() for name in FAMILIES]
        child = textwrap.dedent(
            """
            import json, sys
            from repro.amq import deserialize_filter, serialize_filter
            from repro.amq.serialization import serialized_overhead_bytes
            from repro.errors import FilterSerializationError

            memory_errors = 0
            for image in json.load(sys.stdin):
                wire = bytes.fromhex(image)
                for byte_index in range(serialized_overhead_bytes()):
                    for bit in range(8):
                        corrupt = bytearray(wire)
                        corrupt[byte_index] ^= 1 << bit
                        try:
                            serialize_filter(deserialize_filter(bytes(corrupt)))
                        except FilterSerializationError:
                            pass
                        except MemoryError:
                            memory_errors += 1
            print(memory_errors)
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            ),
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            input=json.dumps(images),
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)
            ),
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == 0, "header flips raised MemoryError"

    @pytest.mark.parametrize("name", FAMILIES)
    def test_payload_bit_flips_contained(self, rng, name):
        wire = _image(rng, name)
        payload_start = serialized_overhead_bytes()
        step = max(1, (len(wire) - payload_start) // 32)
        for byte_index in range(payload_start, len(wire), step):
            corrupt = bytearray(wire)
            corrupt[byte_index] ^= 0x80
            try:
                filt = deserialize_filter(bytes(corrupt))
            except FilterSerializationError:
                continue
            assert serialize_filter(filt)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_truncations_rejected(self, rng, name):
        wire = _image(rng, name)
        for length in range(0, len(wire), max(1, len(wire) // 48)):
            with pytest.raises(FilterSerializationError):
                deserialize_filter(wire[:length])

    @given(blob=st.binary(max_size=96))
    @settings(max_examples=120, deadline=None)
    def test_random_blobs_never_raise_foreign_exceptions(self, blob):
        try:
            deserialize_filter(blob)
        except FilterSerializationError:
            pass

    @pytest.mark.parametrize("name", FAMILIES)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_mutated_real_images_contained(self, name, data):
        # A fresh Random per example: @given re-runs the body, and a
        # function-scoped fixture would leak state across examples.
        wire = bytearray(_image(__import__("random").Random(23), name))
        for _ in range(data.draw(st.integers(1, 4))):
            index = data.draw(st.integers(0, len(wire) - 1))
            wire[index] = data.draw(st.integers(0, 255))
        try:
            filt = deserialize_filter(bytes(wire))
        except FilterSerializationError:
            return
        assert serialize_filter(filt)
