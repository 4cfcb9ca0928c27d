"""Tests for the ``repro.delta/v1`` versioned update protocol.

The load-bearing property is byte-identity: for every filter family,
applying the patch chain v0 -> vN (stepwise or epoch-merged) must yield
the same wire image as a fresh build at vN (:func:`build_filter_at`).
The Hypothesis suite drives random add/remove trajectories through the
publisher/applier pair and checks exactly that; the deterministic tests
pin the wire format, its rejection paths, and the all-or-nothing
application guarantees.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.amq import (
    FILTER_REGISTRY,
    DeltaApplier,
    DeltaPublisher,
    FilterDelta,
    FilterSnapshot,
    build_filter_at,
    delta_seed,
    deserialize_delta,
    deserialize_filter,
    serialize_delta,
    serialize_filter,
)
from repro.amq.delta import (
    _DELTA_HEADER,
    _DELTA_MAGIC,
    _KIND_FULL,
    _KIND_PATCH,
    _PATCH_HEADER,
    apply_diff,
    delta_overhead_bytes,
    diff_items,
    params_at,
)
from repro.errors import ConfigurationError, FilterSerializationError
from repro.runtime import artifacts

FAMILIES = sorted(cls.name for cls in FILTER_REGISTRY.values())


def _item(i: int, length: int = 32) -> bytes:
    """Deterministic unique fingerprint ``i`` (length <= 32)."""
    return hashlib.sha256(i.to_bytes(8, "big")).digest()[:length]


_UNIVERSE = [_item(i) for i in range(128)]


def _patch(**overrides) -> FilterDelta:
    base = dict(
        filter_kind="bloom",
        from_version=0,
        to_version=1,
        capacity=8,
        fpp=1e-3,
        load_factor=0.9,
        seed=7,
        added=(),
        removed_indices=(),
    )
    base.update(overrides)
    return FilterDelta(**base)


def _forge(kind: int, type_id: int, to_version: int, body: bytes) -> bytes:
    """Frame an arbitrary body with a *valid* integrity check, so the
    semantic rejection paths (not the checksum) are what gets exercised."""
    head = _DELTA_HEADER.pack(_DELTA_MAGIC, kind, type_id, to_version, b"\0\0\0\0")
    check = hashlib.sha256(head + body).digest()[:4]
    return _DELTA_HEADER.pack(_DELTA_MAGIC, kind, type_id, to_version, check) + body


def _forge_patch_body(
    from_version=0,
    capacity=8,
    fpp_enc=30,
    lf_enc=230,
    seed=7,
    item_len=32,
    added=(),
    removed=(),
) -> bytes:
    body = _PATCH_HEADER.pack(
        from_version, capacity, fpp_enc, lf_enc, seed, item_len,
        len(added), len(removed),
    )
    body += b"".join(added)
    body += b"".join(i.to_bytes(2, "big") for i in removed)
    return body


def _image_seed(name: str, base_seed: int, version: int) -> int:
    """The hash seed a family's canonical image at ``version`` carries
    on the wire."""
    filt = build_filter_at(name, 16, 1e-3, 0.9, base_seed, version, _UNIVERSE[:8])
    return deserialize_filter(serialize_filter(filt)).params.seed


class TestDeltaSeed:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_version_zero_is_base_seed(self, name):
        assert delta_seed(12345, 0) == 12345
        assert _image_seed(name, 12345, 0) == 12345

    @pytest.mark.parametrize("name", FAMILIES)
    def test_wide_base_seed_masked_to_wire_width(self, name):
        wide = 2343948629979923722
        assert delta_seed(wide, 0) == wide & 0xFFFFFFFF
        assert _image_seed(name, wide, 0) == wide & 0xFFFFFFFF

    @pytest.mark.parametrize("name", FAMILIES)
    def test_rebuild_families_rotate_seed_per_version(self, name):
        # Every family rebuilds per version: the base seed at v0, the
        # version folded into the seed at every v >= 1.
        seeds = [_image_seed(name, 99, v) for v in range(6)]
        assert seeds == [delta_seed(99, v) for v in range(6)]
        assert seeds[0] == 99
        assert len(set(seeds)) == 6  # distinct per version, incl. the base
        assert all(0 <= s <= 0xFFFFFFFF for s in seeds)

    def test_params_at_folds_version_into_seed(self):
        p = params_at(64, 1e-3, 0.9, 42, 3)
        assert p.seed == delta_seed(42, 3)
        assert p.capacity == 64


class TestDiffAlgebra:
    def test_pure_addition(self):
        old = _UNIVERSE[:3]
        new = old + [_UNIVERSE[5]]
        assert diff_items(old, new) == ((), (_UNIVERSE[5],))

    def test_pure_removal(self):
        old = _UNIVERSE[:4]
        new = [old[0], old[2]]
        assert diff_items(old, new) == ((1, 3), ())

    def test_remove_then_readd_ships_as_both(self):
        # An item that left and re-entered sits at the *end* of the new
        # list; the index encoding can only express that as remove+add.
        old = _UNIVERSE[:3]
        new = [old[1], old[2], old[0]]
        removed, added = diff_items(old, new)
        assert removed == (0,)
        assert added == (old[0],)
        assert apply_diff(old, removed, added) == new

    @given(
        st.lists(st.integers(0, 127), unique=True, max_size=24),
        st.lists(st.integers(0, 127), unique=True, max_size=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_diff_inverts_diff_items(self, old_ids, new_ids):
        """diff/apply round-trip for *arbitrary* unique item lists — not
        just trajectories the publisher would produce."""
        old = [_UNIVERSE[i] for i in old_ids]
        new = [_UNIVERSE[i] for i in new_ids]
        removed, added = diff_items(old, new)
        assert apply_diff(old, removed, added) == new
        assert all(0 <= i < len(old) for i in removed)
        assert all(a <= b for a, b in zip(removed, removed[1:]))


class TestWireRoundTrip:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_patch_roundtrip(self, name):
        patch = _patch(
            filter_kind=name,
            from_version=2,
            to_version=5,
            capacity=32,
            added=tuple(_UNIVERSE[:3]),
            removed_indices=(0, 4, 9),
        )
        wire = serialize_delta(patch)
        decoded = deserialize_delta(wire)
        assert isinstance(decoded, FilterDelta)
        assert decoded.filter_kind == name
        assert decoded.from_version == 2
        assert decoded.to_version == 5
        assert decoded.capacity == 32
        assert decoded.seed == patch.seed
        assert decoded.added == patch.added
        assert decoded.removed_indices == (0, 4, 9)
        assert decoded.spans_epochs
        assert len(wire) == delta_overhead_bytes() + _PATCH_HEADER.size + 3 * 32 + 3 * 2

    def test_empty_patch_roundtrip(self):
        decoded = deserialize_delta(serialize_delta(_patch()))
        assert decoded.added == ()
        assert decoded.removed_indices == ()
        assert not decoded.spans_epochs

    @pytest.mark.parametrize("name", FAMILIES)
    def test_snapshot_roundtrip(self, name):
        filt = build_filter_at(name, 16, 1e-3, 0.9, 7, 3, _UNIVERSE[:8])
        image = serialize_filter(filt)
        wire = serialize_delta(
            FilterSnapshot(filter_kind=name, version=3, image=image)
        )
        decoded = deserialize_delta(wire)
        assert isinstance(decoded, FilterSnapshot)
        assert decoded.filter_kind == name
        assert decoded.version == 3
        assert decoded.image == image
        assert len(wire) == len(image) + delta_overhead_bytes()

    def test_overheads_agree(self):
        assert delta_overhead_bytes() == _DELTA_HEADER.size == 16


class TestSerializeRejection:
    def test_non_monotonic_versions(self):
        with pytest.raises(FilterSerializationError, match="monotonic"):
            serialize_delta(_patch(from_version=3, to_version=3))

    def test_version_overflow(self):
        with pytest.raises(FilterSerializationError, match="uint64"):
            serialize_delta(_patch(to_version=1 << 64))

    @pytest.mark.parametrize("capacity", [0, 1 << 32])
    def test_capacity_out_of_range(self, capacity):
        with pytest.raises(FilterSerializationError, match="capacity"):
            serialize_delta(_patch(capacity=capacity))

    def test_remove_count_overflow(self):
        with pytest.raises(FilterSerializationError, match="uint16 counts"):
            serialize_delta(_patch(removed_indices=tuple(range(0x10001))))

    def test_removed_index_overflow(self):
        with pytest.raises(FilterSerializationError, match="uint16"):
            serialize_delta(_patch(removed_indices=(0x10000,)))

    @pytest.mark.parametrize("bad", [b"", b"x" * 256])
    def test_item_length_out_of_range(self, bad):
        with pytest.raises(FilterSerializationError, match="item length"):
            serialize_delta(_patch(added=(bad,)))

    def test_mixed_item_lengths(self):
        with pytest.raises(FilterSerializationError, match="one length"):
            serialize_delta(_patch(added=(b"aa", b"bbb")))

    def test_duplicate_adds(self):
        with pytest.raises(FilterSerializationError, match="duplicates"):
            serialize_delta(_patch(added=(b"aa", b"aa")))

    def test_non_increasing_removes(self):
        with pytest.raises(FilterSerializationError, match="increasing"):
            serialize_delta(_patch(removed_indices=(4, 4)))

    def test_snapshot_version_overflow(self):
        with pytest.raises(FilterSerializationError, match="uint64"):
            serialize_delta(
                FilterSnapshot(filter_kind="bloom", version=1 << 64, image=b"xxx")
            )

    def test_snapshot_image_too_short_for_type(self):
        with pytest.raises(FilterSerializationError, match="type id"):
            serialize_delta(
                FilterSnapshot(filter_kind="bloom", version=1, image=b"\xa3")
            )

    def test_snapshot_image_type_mismatch(self):
        image = serialize_filter(
            build_filter_at("cuckoo", 8, 1e-3, 0.9, 7, 0, _UNIVERSE[:4])
        )
        with pytest.raises(FilterSerializationError, match="type"):
            serialize_delta(
                FilterSnapshot(filter_kind="bloom", version=1, image=image)
            )


class TestDeserializeRejection:
    def test_short_header(self):
        with pytest.raises(FilterSerializationError, match="header"):
            deserialize_delta(b"\xd5\x01\x02")

    def test_bad_magic(self):
        wire = bytearray(serialize_delta(_patch()))
        wire[0] ^= 0xFF
        with pytest.raises(FilterSerializationError, match="magic"):
            deserialize_delta(bytes(wire))

    @pytest.mark.parametrize("offset", [2, 8, 20, -1])
    def test_bit_flip_fails_integrity_check(self, offset):
        wire = bytearray(serialize_delta(_patch(added=tuple(_UNIVERSE[:2]))))
        wire[offset] ^= 0x01
        with pytest.raises(FilterSerializationError):
            deserialize_delta(bytes(wire))

    def test_truncation_fails_integrity_check(self):
        wire = serialize_delta(_patch(added=tuple(_UNIVERSE[:2])))
        with pytest.raises(FilterSerializationError):
            deserialize_delta(wire[:-1])

    def test_extension_fails_integrity_check(self):
        wire = serialize_delta(_patch())
        with pytest.raises(FilterSerializationError):
            deserialize_delta(wire + b"\x00")

    def test_unknown_type_id(self):
        wire = _forge(_KIND_PATCH, 200, 1, _forge_patch_body())
        with pytest.raises(FilterSerializationError, match="type id"):
            deserialize_delta(wire)

    def test_unknown_kind(self):
        wire = _forge(3, 1, 1, _forge_patch_body())
        with pytest.raises(FilterSerializationError, match="kind"):
            deserialize_delta(wire)

    def test_short_patch_body(self):
        wire = _forge(_KIND_PATCH, 1, 1, b"\x00" * 8)
        with pytest.raises(FilterSerializationError, match="header"):
            deserialize_delta(wire)

    def test_zero_fpp_exponent(self):
        wire = _forge(_KIND_PATCH, 1, 1, _forge_patch_body(fpp_enc=0))
        with pytest.raises(FilterSerializationError, match="fpp"):
            deserialize_delta(wire)

    def test_zero_load_factor(self):
        wire = _forge(_KIND_PATCH, 1, 1, _forge_patch_body(lf_enc=0))
        with pytest.raises(FilterSerializationError, match="load factor"):
            deserialize_delta(wire)

    def test_zero_capacity(self):
        wire = _forge(_KIND_PATCH, 1, 1, _forge_patch_body(capacity=0))
        with pytest.raises(FilterSerializationError, match="capacity"):
            deserialize_delta(wire)

    def test_zero_item_length(self):
        wire = _forge(_KIND_PATCH, 1, 1, _forge_patch_body(item_len=0))
        with pytest.raises(FilterSerializationError, match="item length"):
            deserialize_delta(wire)

    def test_body_length_count_mismatch(self):
        body = _forge_patch_body(added=(_UNIVERSE[0],)) + b"\x00"
        wire = _forge(_KIND_PATCH, 1, 1, body)
        with pytest.raises(FilterSerializationError, match="counts imply"):
            deserialize_delta(wire)

    def test_decoded_versions_must_be_monotonic(self):
        wire = _forge(_KIND_PATCH, 1, 3, _forge_patch_body(from_version=5))
        with pytest.raises(FilterSerializationError, match="monotonic"):
            deserialize_delta(wire)

    def test_decoded_duplicate_adds(self):
        body = _forge_patch_body(added=(_UNIVERSE[0], _UNIVERSE[0]))
        wire = _forge(_KIND_PATCH, 1, 1, body)
        with pytest.raises(FilterSerializationError, match="duplicates"):
            deserialize_delta(wire)

    def test_decoded_non_increasing_removes(self):
        body = _forge_patch_body(removed=(9, 3))
        wire = _forge(_KIND_PATCH, 1, 1, body)
        with pytest.raises(FilterSerializationError, match="increasing"):
            deserialize_delta(wire)

    def test_snapshot_with_garbage_image(self):
        wire = _forge(_KIND_FULL, 1, 1, b"\x00" * 40)
        with pytest.raises(FilterSerializationError):
            deserialize_delta(wire)

    def test_snapshot_header_image_type_disagreement(self):
        image = serialize_filter(
            build_filter_at("cuckoo", 8, 1e-3, 0.9, 7, 0, _UNIVERSE[:4])
        )
        # Header claims bloom (type 1) while the image decodes as cuckoo.
        wire = _forge(_KIND_FULL, 1, 1, image)
        with pytest.raises(FilterSerializationError, match="decodes as"):
            deserialize_delta(wire)


class TestPublisher:
    def test_publish_bumps_version_monotonically(self):
        pub = DeltaPublisher("bloom", _UNIVERSE[:4], seed=7)
        assert pub.version == 0
        assert pub.publish(_UNIVERSE[:5]) == 1
        assert pub.publish(_UNIVERSE[:5]) == 2  # unchanged set still bumps
        assert pub.items_at(1) == pub.items_at(2)

    def test_items_are_canonicalized(self):
        pub = DeltaPublisher(
            "bloom", [_UNIVERSE[1], _UNIVERSE[0], _UNIVERSE[1]], seed=7
        )
        assert pub.items == (_UNIVERSE[1], _UNIVERSE[0])

    def test_capacity_grows_only_on_overflow(self):
        pub = DeltaPublisher("bloom", _UNIVERSE[:4], seed=7, headroom=2.0)
        assert pub.capacity_at(0) == 8
        pub.publish(_UNIVERSE[:6])  # fits the standing table
        assert pub.capacity_at(1) == 8
        pub.publish(_UNIVERSE[:9])  # overflows: re-planned with headroom
        assert pub.capacity_at(2) == 18
        pub.publish(_UNIVERSE[:2])  # shrink never reclaims
        assert pub.capacity_at(3) == 18

    def test_mixed_item_lengths_rejected(self):
        with pytest.raises(ConfigurationError, match="uniform"):
            DeltaPublisher("bloom", [b"aa", b"bbb"], seed=7)

    def test_unknown_family_rejected(self):
        with pytest.raises(FilterSerializationError):
            DeltaPublisher("ribbon", [], seed=7)

    def test_bad_headroom_rejected(self):
        with pytest.raises(ConfigurationError, match="headroom"):
            DeltaPublisher("bloom", [], headroom=0.5)

    def test_patch_message_range_checks(self):
        pub = DeltaPublisher("bloom", _UNIVERSE[:4], seed=7)
        pub.publish(_UNIVERSE[:5])
        with pytest.raises(ConfigurationError, match="cannot patch"):
            pub.patch_message(1, 1)
        with pytest.raises(ConfigurationError, match="cannot patch"):
            pub.patch_message(0, 2)

    def test_update_since_requires_stale_client(self):
        pub = DeltaPublisher("bloom", _UNIVERSE[:4], seed=7)
        with pytest.raises(ConfigurationError, match="not behind"):
            pub.update_since(0)

    def test_image_memoized(self):
        pub = DeltaPublisher("bloom", _UNIVERSE[:4], seed=7)
        assert pub.image_at(0) is pub.image_at(0)

    def test_snapshot_message_frames_head_image(self):
        pub = DeltaPublisher("cuckoo", _UNIVERSE[:4], seed=7)
        pub.publish(_UNIVERSE[:5])
        decoded = deserialize_delta(pub.snapshot_message())
        assert isinstance(decoded, FilterSnapshot)
        assert decoded.version == 1
        assert decoded.image == pub.image_at(1)

    def test_update_since_prefers_smaller_message(self):
        # Large filter, one-item change: the patch must win...
        pub = DeltaPublisher("bloom", _UNIVERSE[:100], seed=7)
        pub.publish(list(pub.items) + [_UNIVERSE[100]])
        with obs.scoped() as reg:
            update = pub.update_since(0)
        assert isinstance(deserialize_delta(update), FilterDelta)
        assert len(update) < len(pub.snapshot_message())
        assert reg.counter("amq.delta.patch_messages") == 1
        assert reg.counter("amq.delta.bytes_saved") == (
            len(pub.snapshot_message()) - len(update)
        )
        # ...while a full turnover of a tiny filter ships the snapshot.
        pub2 = DeltaPublisher("bloom", _UNIVERSE[:2], fpp=1e-2, seed=7)
        pub2.publish(_UNIVERSE[64:72])
        with obs.scoped() as reg:
            update2 = pub2.update_since(0)
        assert isinstance(deserialize_delta(update2), FilterSnapshot)
        assert reg.counter("amq.delta.full_messages") == 1


class TestSnapshotFallbackReasons:
    """Every snapshot answer of ``update_since`` names why no patch went
    out, next to the unchanged ``amq.delta.full_messages`` count."""

    @staticmethod
    def _reasons(pub):
        with obs.scoped() as reg:
            update = pub.update_since(0)
        reasons = reg.counters_with_name("amq.delta.snapshot_fallbacks")
        if isinstance(deserialize_delta(update), FilterSnapshot):
            assert reg.counter("amq.delta.full_messages") == 1
        return reasons

    def test_patch_answer_counts_no_fallback(self):
        pub = DeltaPublisher("bloom", _UNIVERSE[:100], seed=7)
        pub.publish(list(pub.items) + [_UNIVERSE[100]])
        assert self._reasons(pub) == {}

    def test_patch_larger(self):
        # Full turnover of a tiny filter: the patch encodes but loses.
        pub = DeltaPublisher("bloom", _UNIVERSE[:2], fpp=1e-2, seed=7)
        pub.publish(_UNIVERSE[64:72])
        assert self._reasons(pub) == {(("reason", "patch_larger"),): 1}

    def test_base_too_wide(self):
        # 65,537 base items: removals past index 65,535 have no uint16.
        # (A loose fpp keeps the grow-only head image under the wire cap.)
        wide = [_item(i) for i in range(0x10001)]
        pub = DeltaPublisher("bloom", wide, fpp=0.5, seed=7)
        pub.publish(wide[:2])
        assert self._reasons(pub) == {(("reason", "base_too_wide"),): 1}

    def test_unpatchable(self):
        # 256-byte items overflow the patch's one-byte item length.
        items = [bytes([i]) * 256 for i in range(3)]
        pub = DeltaPublisher("bloom", items[:2], seed=7)
        pub.publish(items)
        with pytest.raises(FilterSerializationError, match="item length"):
            pub.patch_message(0)
        assert self._reasons(pub) == {(("reason", "unpatchable"),): 1}


class TestApplier:
    def _pair(self, name="counting-bloom", count=6, **kw):
        items = _UNIVERSE[:count]
        pub = DeltaPublisher(name, items, seed=7, **kw)
        app = DeltaApplier(
            name, items, capacity=pub.capacity_at(0), seed=7, **kw
        )
        return pub, app

    def test_patch_advances_version_and_items(self):
        pub, app = self._pair()
        pub.publish(list(pub.items[1:]) + [_UNIVERSE[10]])
        app.apply(pub.patch_message(0, 1))
        assert app.version == 1
        assert app.items == pub.items
        assert app.image() == pub.image_at(1)

    def test_image_memoized_between_updates(self):
        _, app = self._pair()
        assert app.image() is app.image()

    @pytest.mark.parametrize("name", FAMILIES)
    def test_patched_image_is_the_build_image(self, name, monkeypatch):
        # A successful patch keeps the bytes its rebuild produced: the
        # applier never parses them back into a live filter.
        pub, app = self._pair(name)
        pub.publish(list(pub.items[1:]) + [_UNIVERSE[10]])
        monkeypatch.setattr(
            "repro.amq.delta.deserialize_filter",
            lambda image: pytest.fail("the applier parsed its new image"),
        )
        app.apply(pub.patch_message(0, 1))
        assert app.image() == pub.image_at(1)

    def test_wrong_family_rejected(self):
        _, app = self._pair()
        patch = _patch(filter_kind="bloom", seed=7)
        with pytest.raises(FilterSerializationError, match="targets"):
            app.apply(patch)

    def test_wrong_base_version_rejected(self):
        _, app = self._pair()
        patch = _patch(filter_kind="counting-bloom", from_version=2,
                       to_version=3, seed=7)
        with pytest.raises(FilterSerializationError, match="base version"):
            app.apply(patch)
        assert app.version == 0

    def test_wrong_base_params_rejected(self):
        _, app = self._pair()
        patch = _patch(filter_kind="counting-bloom", seed=8)
        with pytest.raises(FilterSerializationError, match="parameters"):
            app.apply(patch)

    def test_out_of_range_removal_rejected(self):
        _, app = self._pair(count=4)
        patch = _patch(filter_kind="counting-bloom", seed=7,
                       capacity=8, removed_indices=(4,))
        with pytest.raises(FilterSerializationError, match="4-item list"):
            app.apply(patch)

    def test_adding_present_item_rejected(self):
        _, app = self._pair(count=4)
        patch = _patch(filter_kind="counting-bloom", seed=7, capacity=8,
                       added=(_UNIVERSE[2],))
        with pytest.raises(FilterSerializationError, match="already holds"):
            app.apply(patch)

    def test_remove_and_readd_in_one_patch_is_legal(self):
        pub, app = self._pair(count=4)
        # v1 drops item 0; v2 re-learns it. The merged patch 0 -> 2 both
        # removes index 0 and re-adds the item — not a duplicate add.
        pub.publish(_UNIVERSE[1:4])
        pub.publish(_UNIVERSE[1:4] + [_UNIVERSE[0]])
        app.apply(pub.patch_message(0, 2))
        assert app.items == pub.items
        assert app.image() == pub.image_at(2)

    def test_wrong_add_length_rejected(self):
        _, app = self._pair(count=4)
        patch = _patch(filter_kind="counting-bloom", seed=7, capacity=8,
                       added=(b"\x01\x02",))
        with pytest.raises(FilterSerializationError, match="byte"):
            app.apply(patch)

    def test_snapshot_requires_items(self):
        pub, app = self._pair()
        pub.publish(_UNIVERSE[10:20])
        with pytest.raises(FilterSerializationError, match="snapshot_items"):
            app.apply(
                deserialize_delta(pub.snapshot_message()), snapshot_items=None
            )
        assert app.version == 0

    def test_snapshot_must_advance_version(self):
        pub, app = self._pair()
        with pytest.raises(FilterSerializationError, match="advance"):
            app.apply(
                deserialize_delta(pub.snapshot_message(0)),
                snapshot_items=pub.items_at(0),
            )

    def test_snapshot_wrong_family_rejected(self):
        _, app = self._pair()
        other = DeltaPublisher("bloom", _UNIVERSE[:6], seed=7)
        other.publish(_UNIVERSE[:7])
        with pytest.raises(FilterSerializationError, match="targets"):
            app.apply(
                deserialize_delta(other.snapshot_message()),
                snapshot_items=other.items,
            )

    def test_snapshot_with_misderived_seed_rejected(self):
        # A v3 cuckoo image must carry delta_seed(seed, 3); an image
        # built at the base seed is a replay/confusion and is refused.
        pub, app = self._pair("cuckoo")
        stale = serialize_filter(
            build_filter_at("cuckoo", 12, 1e-3, 0.9, 7, 0, _UNIVERSE[:6])
        )
        snap = FilterSnapshot(filter_kind="cuckoo", version=3, image=stale)
        with pytest.raises(FilterSerializationError, match="derivation"):
            app.apply(snap, snapshot_items=_UNIVERSE[:6])
        assert app.version == 0

    def test_snapshot_resync_applies(self):
        pub, app = self._pair("cuckoo")
        pub.publish(_UNIVERSE[20:30])
        pub.publish(_UNIVERSE[30:44])
        snap = deserialize_delta(pub.snapshot_message())
        app.apply(snap, snapshot_items=pub.items_at(snap.version))
        assert app.version == pub.version
        assert app.items == pub.items
        assert app.image() == pub.image_at(pub.version)

    def test_wire_resync_parses_the_image_once(self, monkeypatch):
        import repro.amq.delta as delta_module

        pub, app = self._pair("cuckoo")
        pub.publish(_UNIVERSE[20:30])
        message = pub.snapshot_message()
        parse = delta_module.deserialize_filter
        calls = []

        def counting_parse(data):
            calls.append(len(data))
            return parse(data)

        monkeypatch.setattr(delta_module, "deserialize_filter", counting_parse)
        app.apply(message, snapshot_items=pub.items)
        assert len(calls) == 1
        assert app.version == pub.version
        assert app.image() == pub.image_at(pub.version)

    def test_failed_patch_leaves_filter_untouched(self):
        pub, app = self._pair("bloom")
        before = app.image()
        patch = _patch(filter_kind="bloom", seed=8)  # param mismatch
        with pytest.raises(FilterSerializationError):
            app.apply(patch)
        assert app.version == 0
        assert app.image() == before

    @pytest.mark.parametrize("name", FAMILIES)
    def test_overflowing_patch_leaves_state_unchanged(self, name):
        # A patch claiming a capacity of 4 but adding 40 items overflows
        # the rebuild; every family surfaces the same typed error and
        # keeps its version, items and image.
        app = DeltaApplier(name, _UNIVERSE[:3], capacity=4, seed=7)
        before = app.image()
        patch = _patch(
            filter_kind=name, seed=7, capacity=4,
            added=tuple(_UNIVERSE[50:90]),
        )
        with pytest.raises(
            FilterSerializationError, match="overflows the filter's capacity"
        ):
            app.apply(patch)
        assert app.version == 0
        assert app.items == tuple(_UNIVERSE[:3])
        assert app.image() == before


def _run_trajectory(name, n0, steps, *, stepwise=True):
    """Drive a publisher through ``steps`` and an applier through the
    matching patch chain; returns (publisher, applier)."""
    items = _UNIVERSE[:n0]
    pub = DeltaPublisher(name, items, seed=9)
    app = DeltaApplier(name, items, capacity=pub.capacity_at(0), seed=9)
    fresh_cursor = n0
    for removes, adds in steps:
        cur = list(pub.items)
        dropped = {r % len(cur) for r in removes} if cur else set()
        survivors = [it for j, it in enumerate(cur) if j not in dropped]
        new = survivors + _UNIVERSE[fresh_cursor : fresh_cursor + adds]
        fresh_cursor += adds
        pub.publish(new)
        if stepwise:
            app.apply(pub.patch_message(app.version, pub.version))
    if not stepwise:
        update = deserialize_delta(pub.update_since(app.version))
        if isinstance(update, FilterSnapshot):
            app.apply(update, snapshot_items=pub.items_at(update.version))
        else:
            app.apply(update)
    return pub, app


@st.composite
def _trajectories(draw):
    n0 = draw(st.integers(min_value=1, max_value=8))
    steps = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 31), max_size=4),  # removal picks
                st.integers(0, 3),  # fresh adds
            ),
            min_size=1,
            max_size=4,
        )
    )
    return n0, steps


class TestEquivalence:
    """The guarantee the module is named for: patches v0 -> vN land on
    the byte-identical wire image of a fresh build at vN.  The fresh
    build bypasses the artifact caches, so it is an independent
    construction rather than a lookup of the image the chain stored."""

    @pytest.mark.parametrize("name", FAMILIES)
    @given(trajectory=_trajectories())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_stepwise_chain_matches_fresh_build(
        self, name, trajectory, bypass_artifact_caches
    ):
        n0, steps = trajectory
        pub, app = _run_trajectory(name, n0, steps, stepwise=True)
        head = pub.version
        with bypass_artifact_caches():
            fresh = build_filter_at(
                name, pub.capacity_at(head), pub.fpp, pub.load_factor,
                pub.seed, head, list(pub.items),
            )
        assert app.version == head
        assert app.items == pub.items
        assert app.image() == serialize_filter(fresh) == pub.image_at(head)

    @pytest.mark.parametrize("name", FAMILIES)
    @given(trajectory=_trajectories())
    @settings(max_examples=12, deadline=None)
    def test_merged_update_matches_stepwise_chain(self, name, trajectory):
        n0, steps = trajectory
        _, stepwise = _run_trajectory(name, n0, steps, stepwise=True)
        pub, merged = _run_trajectory(name, n0, steps, stepwise=False)
        assert merged.version == stepwise.version == pub.version
        assert merged.items == stepwise.items
        assert merged.image() == stepwise.image()

    @pytest.mark.parametrize("name", FAMILIES)
    def test_readd_trajectory_pinned(self, name, bypass_artifact_caches):
        # The remove-then-re-add shape, deterministically, per family.
        steps = [([0], 1), ([], 0), ([1], 2)]
        pub, app = _run_trajectory(name, 4, steps, stepwise=True)
        with bypass_artifact_caches():
            fresh = build_filter_at(
                name, pub.capacity_at(3), pub.fpp, pub.load_factor,
                pub.seed, 3, list(pub.items),
            )
        assert app.image() == serialize_filter(fresh)


class TestSharedBuild:
    def test_publisher_image_and_applier_rebuild_share_one_entry(self):
        # Both sides build a version through build_image, so the
        # publisher's image of v1 is a hit on the applier's rebuild.
        cache = artifacts.FILTER_BUILDS
        cache.clear()
        cache.reset_stats()
        pub = DeltaPublisher("bloom", _UNIVERSE[:4], seed=7)
        app = DeltaApplier(
            "bloom", _UNIVERSE[:4], capacity=pub.capacity_at(0), seed=7
        )
        pub.publish(_UNIVERSE[:5])
        app.apply(pub.patch_message(0, 1))
        # Entries: the applier's base build at v0 and its rebuild at v1.
        assert (len(cache), cache.hits, cache.misses) == (2, 0, 2)
        assert pub.image_at(1) == app.image()
        assert (len(cache), cache.hits, cache.misses) == (2, 1, 2)


class TestObsCounters:
    def test_patch_flow_counters(self):
        with obs.scoped() as reg:
            pub, app = TestApplier()._pair("counting-bloom", count=6)
            pub.publish(list(pub.items[1:]) + [_UNIVERSE[40]])
            pub.publish(list(pub.items) + [_UNIVERSE[41]])
            app.apply(pub.patch_message(0, 2))  # one epoch-merged patch
        assert reg.counter("amq.delta.publishes") == 2
        assert reg.counter("amq.delta.patches_applied") == 1
        assert reg.counter("amq.delta.epoch_merges") == 1
        assert reg.counter("amq.delta.items_added") == 2
        assert reg.counter("amq.delta.items_removed") == 1

    def test_rebuild_and_resync_counters(self):
        with obs.scoped() as reg:
            pub, app = TestApplier()._pair("bloom", count=6)
            pub.publish(list(pub.items[2:]))
            app.apply(pub.patch_message(0, 1))
            pub.publish(_UNIVERSE[60:80])
            snap = deserialize_delta(pub.snapshot_message())
            app.apply(snap, snapshot_items=pub.items_at(snap.version))
        assert reg.counter("amq.delta.patches_applied") == 1
        assert reg.counter("amq.delta.epoch_merges") == 0
        assert reg.counter("amq.delta.resyncs") == 1
