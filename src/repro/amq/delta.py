"""Versioned delta distribution of AMQ filters (the CRLite pattern).

The churn experiments show suppression decaying with advertised-payload
staleness; the fix at scale is not re-shipping the full filter on every
refresh but versioned incremental updates, the way CRLite ships revocation
filters.  This module layers a monotonic update protocol on top of the AMQ
wire format (:mod:`repro.amq.serialization`):

* A :class:`DeltaPublisher` tracks the canonical *ordered* item list of
  every published version and emits ``repro.delta/v1`` messages: full
  snapshots (a framed AMQ wire image) and patches (add/remove sets
  against a base version).
* A :class:`DeltaApplier` replays those messages client-side.  Every
  family applies a patch the same way, an **epoch-merged rebuild**: one
  reconstruction from the patched item list per applied update, however
  many versions the update spans, with the target version id folded into
  the hash seed (:func:`delta_seed`).

**The equivalence guarantee.**  For every filter family, applying the
patch chain v0 → vN yields a filter whose wire image is byte-identical
to a fresh build at vN (:func:`build_filter_at`).  It holds by
construction: publisher snapshots, applier rebuilds and the equivalence
suite's fresh build call the same pure build function,
:func:`~repro.amq.serialization.build_image`, whose content-keyed memo
also lets a publisher image and an applier rebuild of one version share
one build.  Nothing rests on
a table being history-independent, so cuckoo and vacuum tables (whose
bucket choices and kick chains remember insertion order) get the same
guarantee as counting-Bloom and quotient filters.

``repro.delta/v1`` message layout (big endian)::

    offset  size  field
    0       2     magic 0xD5 0x01
    2       1     message kind (1 = full snapshot, 2 = patch)
    3       1     filter type id (serialization.FILTER_REGISTRY)
    4       8     to_version (uint64)
    12      4     integrity check: SHA-256 of the message with this
                  field zeroed, first 4 bytes
    16      n     body

A *full* body is an AMQ wire image (``serialize_filter`` output).  A
*patch* body is::

    offset  size  field
    0       8     from_version (uint64, < to_version)
    8       4     capacity at to_version (uint32, >= 1)
    12      2     fpp exponent (uint16, >= 1; same quantizer as AMQ v1)
    14      1     load factor in 1/255 units (>= 1)
    15      4     base hash seed (uint32)
    19      1     item length in bytes (uint8, >= 1)
    20      2     add count (uint16)
    22      2     remove count (uint16)
    24      ...   added items (add_count * item_len bytes, no duplicates)
    ...     ...   removed indices (remove_count * uint16, strictly
                  increasing positions into the from_version item list)

Removals ship as **indices** into the base version's canonical item list
rather than as items: the applier tracks that list anyway (every
rebuild needs it), and two bytes per removal instead of a 32-byte
fingerprint is what keeps a patch decisively under the full image on the
wire.  A patch may span several versions (``to_version - from_version >
1``): the publisher merges intermediate patches server-side, so a client
refreshing every k-th epoch downloads one message and performs one
rebuild — the epoch-merge rule.

The integrity field makes the wire layer *hardened* in the fuzzing
sense: any truncation or bit flip anywhere in a delta message raises
:class:`~repro.errors.FilterSerializationError`; a corrupt update can
never decode into a mis-built patch.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.amq.base import AMQFilter, FilterParams
from repro.amq.hashing import MASK64, splitmix64
from repro.amq.serialization import (
    FILTER_REGISTRY,
    build_filter,
    build_image,
    canonical_params,
    dequantize_fpp,
    dequantize_load_factor,
    deserialize_filter,
    filter_class_for_name,
    filter_type_id,
    quantize_fpp,
    quantize_load_factor,
)
from repro.errors import (
    ConfigurationError,
    FilterFullError,
    FilterSerializationError,
)

_DELTA_MAGIC = b"\xd5\x01"
_KIND_FULL = 1
_KIND_PATCH = 2
#: magic(2) kind(1) type_id(1) to_version(8) check(4)
_DELTA_HEADER = struct.Struct(">2sBBQ4s")
#: from_version(8) capacity(4) fpp_enc(2) lf_enc(1) seed(4) item_len(1)
#: add_count(2) remove_count(2)
_PATCH_HEADER = struct.Struct(">QIHBIBHH")

_MAX_VERSION = (1 << 64) - 1


def delta_seed(base_seed: int, version: int) -> int:
    """Hash seed of a filter at ``version``.

    The version id folds into the 32-bit wire seed, so two epochs of one
    deployment never share hash geometry (the CRLite salt rotation);
    version 0 is the plain base build.
    """
    base = base_seed & 0xFFFFFFFF
    if version == 0:
        return base
    return splitmix64(splitmix64(version & MASK64) ^ base) & 0xFFFFFFFF


def params_at(
    capacity: int,
    fpp: float,
    load_factor: float,
    base_seed: int,
    version: int,
) -> FilterParams:
    """Canonical (wire-quantized) params of a version's filter."""
    return canonical_params(
        FilterParams(
            capacity=capacity,
            fpp=fpp,
            load_factor=load_factor,
            seed=delta_seed(base_seed, version),
        )
    )


def build_filter_at(
    filter_kind: str,
    capacity: int,
    fpp: float,
    load_factor: float,
    base_seed: int,
    version: int,
    items: Sequence[bytes],
) -> AMQFilter:
    """The canonical filter of ``version``: one pure function shared by
    publisher snapshots, applier rebuilds and the equivalence suite's
    "fresh build at vN" — which is what makes byte-identity achievable
    rather than aspirational."""
    params = params_at(capacity, fpp, load_factor, base_seed, version)
    return build_filter(filter_kind, params, items)


# -- messages ----------------------------------------------------------------


@dataclass(frozen=True)
class FilterDelta:
    """A patch: transform the ``from_version`` item list into the
    ``to_version`` list by dropping ``removed_indices`` (positions into
    the base list) and appending ``added``."""

    filter_kind: str
    from_version: int
    to_version: int
    capacity: int
    fpp: float
    load_factor: float
    seed: int
    added: Tuple[bytes, ...]
    removed_indices: Tuple[int, ...]

    @property
    def spans_epochs(self) -> bool:
        """True when this patch is an epoch merge of several versions."""
        return self.to_version - self.from_version > 1


@dataclass(frozen=True)
class FilterSnapshot:
    """A full filter image at ``version`` (the resync message).

    ``params`` are the image's parameters when a decoder has already
    parsed it (:func:`deserialize_delta` does), so an applier need not
    parse the image a second time; they take no part in equality."""

    filter_kind: str
    version: int
    image: bytes
    params: Optional[FilterParams] = field(default=None, compare=False, repr=False)


DeltaMessage = Union[FilterDelta, FilterSnapshot]


def _checked_message(kind: int, type_id: int, to_version: int, body: bytes) -> bytes:
    head = _DELTA_HEADER.pack(_DELTA_MAGIC, kind, type_id, to_version, b"\0\0\0\0")
    check = hashlib.sha256(head + body).digest()[:4]
    return _DELTA_HEADER.pack(_DELTA_MAGIC, kind, type_id, to_version, check) + body


def _validate_patch_fields(patch: FilterDelta) -> None:
    if patch.to_version > _MAX_VERSION or patch.from_version < 0:
        raise FilterSerializationError(
            f"delta version {patch.to_version} out of the uint64 range"
        )
    if patch.from_version >= patch.to_version:
        raise FilterSerializationError(
            f"delta versions must be monotonic: from_version "
            f"{patch.from_version} >= to_version {patch.to_version}"
        )
    if patch.capacity < 1 or patch.capacity > 0xFFFFFFFF:
        raise FilterSerializationError(
            f"delta capacity {patch.capacity} out of range [1, 2^32)"
        )
    if len(patch.added) > 0xFFFF or len(patch.removed_indices) > 0xFFFF:
        raise FilterSerializationError(
            f"delta patch sets of {len(patch.added)} adds / "
            f"{len(patch.removed_indices)} removes exceed the uint16 counts"
        )
    if patch.added:
        item_len = len(patch.added[0])
        if item_len < 1 or item_len > 0xFF:
            raise FilterSerializationError(
                f"delta item length {item_len} out of range [1, 255]"
            )
        if any(len(item) != item_len for item in patch.added):
            raise FilterSerializationError(
                "delta added items must share one length"
            )
        if len(set(patch.added)) != len(patch.added):
            raise FilterSerializationError("delta added items contain duplicates")
    for prev, cur in zip(patch.removed_indices, patch.removed_indices[1:]):
        if cur <= prev:
            raise FilterSerializationError(
                "delta removed indices must be strictly increasing"
            )
    if patch.removed_indices:
        first, last = patch.removed_indices[0], patch.removed_indices[-1]
        if first < 0 or last > 0xFFFF:
            raise FilterSerializationError(
                f"delta removed index {last if last > 0xFFFF else first} "
                "out of the uint16 range"
            )


def serialize_delta(message: DeltaMessage) -> bytes:
    """Serialize a snapshot or patch into a ``repro.delta/v1`` message."""
    if isinstance(message, FilterSnapshot):
        if not 0 <= message.version <= _MAX_VERSION:
            raise FilterSerializationError(
                f"delta version {message.version} out of the uint64 range"
            )
        image_type = _image_type_id(message.image)
        cls = filter_class_for_name(message.filter_kind)
        if image_type != filter_type_id(cls):
            raise FilterSerializationError(
                f"snapshot image carries filter type {image_type}, "
                f"not {message.filter_kind!r}"
            )
        return _checked_message(
            _KIND_FULL, image_type, message.version, message.image
        )
    _validate_patch_fields(message)
    type_id = filter_type_id(filter_class_for_name(message.filter_kind))
    item_len = len(message.added[0]) if message.added else 1
    body = _PATCH_HEADER.pack(
        message.from_version,
        message.capacity,
        quantize_fpp(message.fpp),
        quantize_load_factor(message.load_factor),
        message.seed & 0xFFFFFFFF,
        item_len,
        len(message.added),
        len(message.removed_indices),
    )
    body += b"".join(message.added)
    body += b"".join(
        index.to_bytes(2, "big") for index in message.removed_indices
    )
    return _checked_message(_KIND_PATCH, type_id, message.to_version, body)


def _image_type_id(image: bytes) -> int:
    if len(image) < 3:
        raise FilterSerializationError(
            f"AMQ image of {len(image)} bytes cannot carry a type id"
        )
    return image[2]


def deserialize_delta(data: bytes) -> DeltaMessage:
    """Parse a ``repro.delta/v1`` message; any corruption — truncation,
    bit flip, inconsistent counts — raises FilterSerializationError."""
    if len(data) < _DELTA_HEADER.size:
        raise FilterSerializationError(
            f"delta message is {len(data)} bytes; header needs "
            f"{_DELTA_HEADER.size}"
        )
    magic, kind, type_id, to_version, check = _DELTA_HEADER.unpack(
        data[: _DELTA_HEADER.size]
    )
    if magic != _DELTA_MAGIC:
        raise FilterSerializationError(f"bad delta magic {magic!r}")
    body = data[_DELTA_HEADER.size :]
    expected = hashlib.sha256(
        _DELTA_HEADER.pack(_DELTA_MAGIC, kind, type_id, to_version, b"\0\0\0\0")
        + body
    ).digest()[:4]
    if check != expected:
        raise FilterSerializationError(
            "delta integrity check failed; the message is corrupt"
        )
    try:
        cls = FILTER_REGISTRY[type_id]
    except KeyError:
        raise FilterSerializationError(
            f"unknown filter type id {type_id} in delta header"
        ) from None
    if kind == _KIND_FULL:
        # The embedded image must itself decode; parse eagerly so a
        # corrupt snapshot fails here, not at first use.
        filt = deserialize_filter(body)
        if filter_type_id(filt) != type_id:
            raise FilterSerializationError(
                f"snapshot header claims type {type_id} but the image "
                f"decodes as {filt.name!r}"
            )
        return FilterSnapshot(
            filter_kind=cls.name, version=to_version, image=body, params=filt.params
        )
    if kind != _KIND_PATCH:
        raise FilterSerializationError(f"unknown delta message kind {kind}")
    if len(body) < _PATCH_HEADER.size:
        raise FilterSerializationError(
            f"delta patch body is {len(body)} bytes; header needs "
            f"{_PATCH_HEADER.size}"
        )
    (
        from_version,
        capacity,
        fpp_enc,
        lf_enc,
        seed,
        item_len,
        add_count,
        remove_count,
    ) = _PATCH_HEADER.unpack(body[: _PATCH_HEADER.size])
    if fpp_enc == 0:
        raise FilterSerializationError(
            "delta patch carries a zero fpp exponent (fpp = 1.0)"
        )
    if lf_enc == 0:
        raise FilterSerializationError("delta patch carries a zero load factor")
    if capacity < 1:
        raise FilterSerializationError("delta patch carries zero capacity")
    if item_len < 1:
        raise FilterSerializationError("delta patch carries zero item length")
    expected_len = (
        _PATCH_HEADER.size + add_count * item_len + remove_count * 2
    )
    if len(body) != expected_len:
        raise FilterSerializationError(
            f"delta patch body is {len(body)} bytes, counts imply "
            f"{expected_len}"
        )
    offset = _PATCH_HEADER.size
    added = tuple(
        bytes(body[offset + i * item_len : offset + (i + 1) * item_len])
        for i in range(add_count)
    )
    offset += add_count * item_len
    removed = tuple(
        int.from_bytes(body[offset + i * 2 : offset + (i + 1) * 2], "big")
        for i in range(remove_count)
    )
    patch = FilterDelta(
        filter_kind=cls.name,
        from_version=from_version,
        to_version=to_version,
        capacity=capacity,
        fpp=dequantize_fpp(fpp_enc),
        load_factor=dequantize_load_factor(lf_enc),
        seed=seed,
        added=added,
        removed_indices=removed,
    )
    _validate_patch_fields(patch)
    return patch


def delta_overhead_bytes() -> int:
    """Framing bytes a snapshot message adds on top of the AMQ image."""
    return _DELTA_HEADER.size


# -- canonical list algebra ---------------------------------------------------


def _canonical_items(items: Sequence[bytes]) -> Tuple[bytes, ...]:
    out = tuple(dict.fromkeys(bytes(item) for item in items))
    if out and any(len(i) != len(out[0]) for i in out):
        raise ConfigurationError(
            "delta item lists must hold uniform-length items"
        )
    return out


def diff_items(
    old: Sequence[bytes], new: Sequence[bytes]
) -> Tuple[Tuple[int, ...], Tuple[bytes, ...]]:
    """(removed indices into ``old``, items to append) transforming the
    ordered list ``old`` into ``new``.

    The survivor prefix of ``new`` must be an order-preserving sublist of
    ``old``; anything past the longest such prefix ships as an add.  An
    item that left and re-entered the list (removed at one version,
    re-learned later — it re-enters at the *end*) therefore ships as a
    remove of its old position plus a re-add, which is the only shape the
    index-based patch encoding can express.
    """
    positions: Dict[bytes, int] = {item: i for i, item in enumerate(old)}
    split = 0
    last = -1
    for item in new:
        pos = positions.get(item, -1)
        if pos <= last:
            break
        last = pos
        split += 1
    survivors = frozenset(new[:split])
    removed = tuple(
        i for i, item in enumerate(old) if item not in survivors
    )
    return removed, tuple(new[split:])


def apply_diff(
    old: Sequence[bytes],
    removed_indices: Sequence[int],
    added: Sequence[bytes],
) -> List[bytes]:
    """Replay a diff: drop the removed positions, append the adds."""
    dropped = set(removed_indices)
    out = [item for i, item in enumerate(old) if i not in dropped]
    out.extend(added)
    return out


# -- publisher ----------------------------------------------------------------


class DeltaPublisher:
    """Server side of the protocol: the canonical item trajectory.

    Every :meth:`publish` freezes one version: the canonicalized ordered
    item list plus the capacity in force.  Capacity is grow-only,
    re-planned with ``headroom`` only when the count overflows the
    current table, so quiet versions keep one patch geometry: every
    client rebuild lands on the same table size, and the snapshot a
    patch competes against keeps its size.  :meth:`update_since` then
    serves any client: one epoch-merged patch from its version to the
    head, or the framed full snapshot when that is the smaller message —
    whichever costs fewer bytes is what goes on the wire, CRLite-style.
    """

    def __init__(
        self,
        filter_kind: str,
        initial_items: Sequence[bytes],
        fpp: float = 1e-3,
        load_factor: float = 0.9,
        seed: int = 0,
        headroom: float = 2.0,
    ) -> None:
        if headroom < 1.0:
            raise ConfigurationError(
                f"headroom must be >= 1.0, got {headroom}"
            )
        # Resolve the name early so a typo fails at construction.
        filter_class_for_name(filter_kind)
        self.filter_kind = filter_kind
        self.headroom = headroom
        base = canonical_params(
            FilterParams(
                capacity=1, fpp=fpp, load_factor=load_factor, seed=seed
            )
        )
        self.fpp = base.fpp
        self.load_factor = base.load_factor
        self.seed = base.seed
        items = _canonical_items(initial_items)
        #: Per-version (ordered items, capacity).
        self._history: List[Tuple[Tuple[bytes, ...], int]] = [
            (items, self._planned_capacity(len(items)))
        ]

    def _planned_capacity(self, count: int) -> int:
        return max(1, round(count * self.headroom))

    @property
    def version(self) -> int:
        return len(self._history) - 1

    @property
    def items(self) -> Tuple[bytes, ...]:
        return self._history[-1][0]

    def items_at(self, version: int) -> Tuple[bytes, ...]:
        return self._history[version][0]

    def capacity_at(self, version: int) -> int:
        return self._history[version][1]

    def publish(self, items: Sequence[bytes]) -> int:
        """Freeze the next version from the current canonical item set;
        returns the new version id."""
        if self.version >= _MAX_VERSION:
            raise ConfigurationError("delta version space exhausted")
        new_items = _canonical_items(items)
        capacity = self._history[-1][1]
        if len(new_items) > capacity:
            capacity = self._planned_capacity(len(new_items))
        self._history.append((new_items, capacity))
        obs.inc("amq.delta.publishes")
        return self.version

    def image_at(self, version: int) -> bytes:
        """Canonical wire image of a version, from the shared memoized
        build (:func:`~repro.amq.serialization.build_image`)."""
        items, capacity = self._history[version]
        return build_image(
            self.filter_kind,
            params_at(capacity, self.fpp, self.load_factor, self.seed, version),
            items,
        )

    def snapshot_message(self, version: Optional[int] = None) -> bytes:
        """Framed full snapshot of ``version`` (default: head)."""
        version = self.version if version is None else version
        return serialize_delta(
            FilterSnapshot(
                filter_kind=self.filter_kind,
                version=version,
                image=self.image_at(version),
            )
        )

    def patch_message(
        self, from_version: int, to_version: Optional[int] = None
    ) -> bytes:
        """One epoch-merged patch ``from_version -> to_version``."""
        to_version = self.version if to_version is None else to_version
        if not 0 <= from_version < to_version <= self.version:
            raise ConfigurationError(
                f"cannot patch from version {from_version} to "
                f"{to_version} at head {self.version}"
            )
        old = self._history[from_version][0]
        new, capacity = self._history[to_version]
        removed, added = diff_items(old, new)
        return serialize_delta(
            FilterDelta(
                filter_kind=self.filter_kind,
                from_version=from_version,
                to_version=to_version,
                capacity=capacity,
                fpp=self.fpp,
                load_factor=self.load_factor,
                seed=self.seed,
                added=added,
                removed_indices=removed,
            )
        )

    def update_since(self, from_version: int) -> bytes:
        """The cheapest valid update for a client at ``from_version``:
        the merged patch or the full snapshot, whichever is smaller on
        the wire (byte savings are metered either way).  Every snapshot
        answer counts one ``amq.delta.snapshot_fallbacks`` with its
        ``reason``: ``base_too_wide`` (the base list overflows the uint16
        removal indices), ``unpatchable`` (the patch cannot be encoded)
        or ``patch_larger``."""
        if from_version >= self.version:
            raise ConfigurationError(
                f"client version {from_version} is not behind head "
                f"{self.version}"
            )
        snapshot = self.snapshot_message()
        old = self._history[from_version][0]
        if len(old) > 0x10000:
            reason = "base_too_wide"
        else:
            try:
                patch = self.patch_message(from_version)
            except FilterSerializationError:
                reason = "unpatchable"
            else:
                if len(patch) < len(snapshot):
                    obs.inc("amq.delta.patch_messages")
                    obs.inc("amq.delta.bytes_saved", len(snapshot) - len(patch))
                    return patch
                reason = "patch_larger"
        obs.inc("amq.delta.full_messages")
        obs.inc("amq.delta.snapshot_fallbacks", labels=(("reason", reason),))
        return snapshot


# -- applier ------------------------------------------------------------------


class DeltaApplier:
    """Client side: a versioned filter image plus the ordered item list
    behind it, advanced by ``repro.delta/v1`` messages.

    Every update is all-or-nothing: validation happens before the
    rebuild, and the new image replaces the old one only once it is
    built — a malformed or overflowing patch raises
    :class:`~repro.errors.FilterSerializationError` and leaves version,
    items and image unchanged.
    """

    def __init__(
        self,
        filter_kind: str,
        initial_items: Sequence[bytes],
        capacity: Optional[int] = None,
        fpp: float = 1e-3,
        load_factor: float = 0.9,
        seed: int = 0,
    ) -> None:
        filter_class_for_name(filter_kind)
        self.filter_kind = filter_kind
        base = canonical_params(
            FilterParams(capacity=1, fpp=fpp, load_factor=load_factor, seed=seed)
        )
        self.fpp = base.fpp
        self.load_factor = base.load_factor
        self.seed = base.seed
        self._items = list(_canonical_items(initial_items))
        self._capacity = (
            capacity if capacity is not None else max(1, len(self._items))
        )
        self._version = 0
        self._image = self._build(self._capacity, 0, self._items)

    def _build(self, capacity: int, version: int, items: Sequence[bytes]) -> bytes:
        """The canonical wire image of ``version`` (:func:`build_filter_at`'s
        build)."""
        params = params_at(capacity, self.fpp, self.load_factor, self.seed, version)
        return build_image(self.filter_kind, params, items)

    @property
    def version(self) -> int:
        return self._version

    @property
    def items(self) -> Tuple[bytes, ...]:
        return tuple(self._items)

    def image(self) -> bytes:
        """Current advertised wire image."""
        return self._image

    # -- validation ----------------------------------------------------------

    def _check_patch(self, patch: FilterDelta) -> None:
        if patch.filter_kind != self.filter_kind:
            raise FilterSerializationError(
                f"patch targets {patch.filter_kind!r}, applier holds "
                f"{self.filter_kind!r}"
            )
        if patch.from_version != self._version:
            raise FilterSerializationError(
                f"patch base version {patch.from_version} does not match "
                f"applier version {self._version}"
            )
        if (
            quantize_fpp(patch.fpp) != quantize_fpp(self.fpp)
            or quantize_load_factor(patch.load_factor)
            != quantize_load_factor(self.load_factor)
            or patch.seed != self.seed
        ):
            raise FilterSerializationError(
                "patch base parameters do not match the applier's"
            )
        if patch.removed_indices and patch.removed_indices[-1] >= len(
            self._items
        ):
            raise FilterSerializationError(
                f"patch removes index {patch.removed_indices[-1]} of a "
                f"{len(self._items)}-item list"
            )
        if patch.added:
            if self._items and len(patch.added[0]) != len(self._items[0]):
                raise FilterSerializationError(
                    f"patch adds {len(patch.added[0])}-byte items to a "
                    f"{len(self._items[0])}-byte-item list"
                )
            dropped = set(patch.removed_indices)
            survivors = {
                item
                for i, item in enumerate(self._items)
                if i not in dropped
            }
            for item in patch.added:
                if item in survivors:
                    raise FilterSerializationError(
                        "patch adds an item the filter already holds"
                    )

    # -- application ----------------------------------------------------------

    def apply(
        self,
        update: Union[bytes, DeltaMessage],
        snapshot_items: Optional[Sequence[bytes]] = None,
    ) -> None:
        """Apply one update message (wire bytes or a decoded message).

        Snapshots need ``snapshot_items``: the image cannot transport the
        ordered item list, and without it later patches could not be
        applied (clients resync from local knowledge — here, the same
        canonical cache the filter describes).
        """
        if isinstance(update, (bytes, bytearray)):
            update = deserialize_delta(bytes(update))
        if isinstance(update, FilterSnapshot):
            self._apply_snapshot(update, snapshot_items)
        else:
            self._apply_patch(update)

    def _apply_snapshot(
        self,
        snapshot: FilterSnapshot,
        snapshot_items: Optional[Sequence[bytes]],
    ) -> None:
        if snapshot.filter_kind != self.filter_kind:
            raise FilterSerializationError(
                f"snapshot targets {snapshot.filter_kind!r}, applier "
                f"holds {self.filter_kind!r}"
            )
        if snapshot.version <= self._version:
            raise FilterSerializationError(
                f"snapshot version {snapshot.version} does not advance "
                f"applier version {self._version}"
            )
        if snapshot_items is None:
            raise FilterSerializationError(
                "a snapshot resync needs the ordered item list "
                "(snapshot_items)"
            )
        params = snapshot.params or deserialize_filter(snapshot.image).params
        expected_seed = delta_seed(self.seed, snapshot.version)
        if (
            params.seed != expected_seed
            or quantize_fpp(params.fpp) != quantize_fpp(self.fpp)
            or quantize_load_factor(params.load_factor)
            != quantize_load_factor(self.load_factor)
        ):
            raise FilterSerializationError(
                "snapshot image parameters do not match the applier's "
                "derivation for its version"
            )
        self._items = list(_canonical_items(snapshot_items))
        self._capacity = params.capacity
        self._version = snapshot.version
        self._image = snapshot.image
        obs.inc("amq.delta.resyncs")

    def _apply_patch(self, patch: FilterDelta) -> None:
        self._check_patch(patch)
        new_items = apply_diff(self._items, patch.removed_indices, patch.added)
        try:
            image = self._build(patch.capacity, patch.to_version, new_items)
        except FilterFullError as exc:
            raise FilterSerializationError(
                f"patch overflows the filter's capacity {patch.capacity}: "
                f"{exc}"
            ) from exc
        self._image = image
        self._items = new_items
        self._capacity = patch.capacity
        self._version = patch.to_version
        obs.inc("amq.delta.patches_applied")
        obs.inc("amq.delta.items_added", len(patch.added))
        obs.inc("amq.delta.items_removed", len(patch.removed_indices))
        if patch.spans_epochs:
            obs.inc("amq.delta.epoch_merges")


__all__ = [
    "FilterDelta",
    "FilterSnapshot",
    "DeltaApplier",
    "DeltaPublisher",
    "apply_diff",
    "build_filter_at",
    "delta_overhead_bytes",
    "delta_seed",
    "deserialize_delta",
    "diff_items",
    "params_at",
    "serialize_delta",
]
