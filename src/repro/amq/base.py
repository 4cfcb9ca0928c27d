"""Common interface for approximate-membership-query filters.

The paper treats the filter as a pluggable component ("the client can
advertise ... the specific filter used (e.g., Quotient, Cuckoo)", §4.2), so
every structure in :mod:`repro.amq` implements this single abstract base:
items are arbitrary byte strings (we use the SHA-256 of the ICA certificate's
DER encoding, see :mod:`repro.core.cache`), insertions may fail with
:class:`~repro.errors.FilterFullError`, and deletions are supported by every
dynamically-updatable structure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Iterable, List, Sequence

from repro import obs
from repro.errors import (
    ConfigurationError,
    DeletionUnsupportedError,
    FilterFullError,
)


@dataclass(frozen=True)
class FilterParams:
    """Construction parameters shared by all filter types.

    Attributes:
        capacity: Number of items the filter is provisioned to hold at the
            target load factor.
        fpp: Target false-positive probability (epsilon in the paper).
        load_factor: Target occupancy at which ``capacity`` items fit; this
            is the x-axis of Figure 3-left.
        seed: Hash seed; both endpoints of a handshake must agree on it, so
            it is carried in the serialized wire image.
    """

    capacity: int
    fpp: float = 1e-3
    load_factor: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {self.capacity}")
        if not 0.0 < self.fpp < 1.0:
            raise ConfigurationError(f"fpp must be in (0, 1), got {self.fpp}")
        if not 0.0 < self.load_factor <= 1.0:
            raise ConfigurationError(
                f"load_factor must be in (0, 1], got {self.load_factor}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")


class AMQFilter(ABC):
    """Abstract approximate-membership-query filter.

    Implementations guarantee **no false negatives**: after ``insert(x)``
    succeeds (and until ``delete(x)``), ``contains(x)`` is True. A
    ``contains`` hit for an item never inserted happens with probability at
    most roughly ``params.fpp`` at the target load factor.

    The public operations (``insert``/``contains``/``delete`` and their
    batch forms) are concrete template methods: they record ``amq.*``
    metrics when :mod:`repro.obs` is enabled, then delegate to the
    underscore-prefixed implementation hooks subclasses provide. Counters
    count *attempted* operations (recorded on entry), so a batch call and
    the equivalent scalar loop always account identically, including on
    mid-batch overflow.
    """

    #: Short stable name used in wire images and experiment tables.
    name: ClassVar[str] = "abstract"
    #: Whether delete() is supported (all paper candidates support it).
    supports_deletion: ClassVar[bool] = True

    def __init__(self, params: FilterParams) -> None:
        self._params = params
        self._count = 0
        # Label tuples precomputed once so the enabled hot path does no
        # allocation beyond the counter bump itself.
        self._obs_labels = {
            op: (("backend", self.name), ("op", op))
            for op in ("insert", "contains", "delete")
        }

    # -- public API (instrumented template methods) -------------------------

    def insert(self, item: bytes) -> None:
        """Add ``item``; raises FilterFullError when it cannot be placed."""
        reg = obs.registry()
        if reg is not None:
            reg.inc("amq.ops", 1, self._obs_labels["insert"])
        self._insert(item)

    def contains(self, item: bytes) -> bool:
        """Approximate membership test (no false negatives)."""
        reg = obs.registry()
        if reg is not None:
            reg.inc("amq.ops", 1, self._obs_labels["contains"])
        return self._contains(item)

    def delete(self, item: bytes) -> bool:
        """Remove one occurrence of ``item``; returns True when a matching
        fingerprint was found and removed.
        """
        reg = obs.registry()
        if reg is not None:
            reg.inc("amq.ops", 1, self._obs_labels["delete"])
        return self._delete(item)

    def _record_batch(self, op: str, size: int) -> None:
        reg = obs.registry()
        if reg is not None:
            labels = self._obs_labels[op]
            reg.inc("amq.ops", size, labels)
            reg.inc("amq.batch.calls", 1, labels)
            reg.observe("amq.batch.size", size, labels)

    # -- abstract core -----------------------------------------------------

    @abstractmethod
    def _insert(self, item: bytes) -> None:
        """Implementation hook for :meth:`insert`."""

    @abstractmethod
    def _contains(self, item: bytes) -> bool:
        """Implementation hook for :meth:`contains`."""

    @abstractmethod
    def _delete(self, item: bytes) -> bool:
        """Implementation hook for :meth:`delete`."""

    @abstractmethod
    def size_in_bytes(self) -> int:
        """Size of the filter's payload on the wire (excluding the
        serialization header), as plotted in Figures 3 and 4.
        """

    @abstractmethod
    def to_bytes(self) -> bytes:
        """Serialize the table payload (header added by
        :mod:`repro.amq.serialization`)."""

    @classmethod
    @abstractmethod
    def from_bytes(cls, params: FilterParams, payload: bytes) -> "AMQFilter":
        """Reconstruct a filter from ``to_bytes`` output."""

    @classmethod
    @abstractmethod
    def expected_payload_bytes(cls, params: FilterParams) -> int:
        """Exact payload size (bytes) a filter built with ``params``
        serializes to — the geometry check
        :func:`repro.amq.serialization.deserialize_filter` runs before
        handing a payload to :meth:`from_bytes`. The params come from an
        untrusted wire header, so implementations derive the size from
        geometry alone and never allocate the table it describes.
        """

    @classmethod
    def build_from_fingerprints(
        cls, params: FilterParams, items: Sequence[bytes]
    ) -> "AMQFilter":
        """Bulk-build a filter of this type holding exactly ``items``.

        This is the one construction path every producer (filter plans,
        manager rebuilds, the session-sim client) funnels through: it
        constructs the empty structure and feeds the whole working set to
        the vectorized ``insert_batch`` kernels in a single call, timed
        under the ``amq.build`` span so build-path wins are visible in
        metrics exports. Semantics are identical to a scalar insert loop
        (same table bytes, same overflow behaviour).
        """
        with obs.span("amq.build", (("backend", cls.name),)):
            filt = cls(params)
            if items:
                filt.insert_batch(
                    items if isinstance(items, (list, tuple)) else list(items)
                )
            return filt

    def attach_source_items(self, items: Sequence[bytes]) -> None:
        """Reattach the source item sequence to a deserialized filter.

        Most backends store items directly and need nothing here (the
        default is a no-op). Static structures that buffer items and
        reconstruct on mutation (the xor family) cannot recover the set
        from their table, so a bare ``from_bytes`` copy is query-only:
        its first insert would rebuild from an empty buffer and silently
        drop everything the wire image held. Producers that still know
        the original items (e.g. the memoized ``FilterPlan.build``) call
        this after rehydration to restore full mutability.
        """

    # -- shared behaviour ---------------------------------------------------

    @property
    def params(self) -> FilterParams:
        return self._params

    @property
    def capacity(self) -> int:
        return self._params.capacity

    def __contains__(self, item: bytes) -> bool:
        return self.contains(item)

    def __len__(self) -> int:
        """Number of items currently stored."""
        return self._count

    # -- batch API ----------------------------------------------------------
    #
    # The batch operations are observationally identical to running the
    # scalar loop in batch order (same final state, same answers, same
    # exceptions) — that equivalence is what tests/amq/
    # test_batch_differential.py enforces for every registered backend.
    # The public methods instrument then delegate; subclasses override the
    # ``_x_batch`` hooks with vectorized implementations, and the generic
    # underscore loops here are both the small-batch path and the
    # executable specification. The hooks call the underscore
    # scalar core — never the public methods — so no operation is ever
    # double-counted.

    def insert_batch(self, items: Sequence[bytes]) -> None:
        """Insert ``items`` in order.

        Contract (all backends):

        * **Ordering** — items are inserted in batch order; the final
          state equals a scalar ``insert`` loop over the same sequence.
        * **Overflow** — inserts are *not* atomic. On overflow the batch
          raises :class:`~repro.errors.FilterFullError` with
          ``inserted_count`` set to the number of fully-inserted leading
          items (prefix-insert semantics); the failing item itself may
          have displaced fingerprints exactly as the equivalent scalar
          ``insert`` would have (cuckoo kick chains).
        * **Duplicates** — permitted, with the same multiplicity
          semantics as the scalar operation.
        """
        self._record_batch("insert", len(items))
        self._insert_batch(items)

    def contains_batch(self, items: Sequence[bytes]) -> List[bool]:
        """Membership answers for ``items``, in order — exactly
        ``[self.contains(x) for x in items]`` (no false negatives)."""
        self._record_batch("contains", len(items))
        return self._contains_batch(items)

    def delete_batch(self, items: Sequence[bytes]) -> List[bool]:
        """Delete ``items`` in order; per-item success flags.

        Equivalent to ``[self.delete(x) for x in items]``: earlier
        deletions in the batch are visible to later ones (deleting the
        same fingerprint twice only succeeds twice if it was stored
        twice). Raises :class:`~repro.errors.DeletionUnsupportedError`
        on structures without deletion, like the scalar operation.
        """
        self._record_batch("delete", len(items))
        return self._delete_batch(items)

    def _insert_batch(self, items: Sequence[bytes]) -> None:
        for index, item in enumerate(items):
            try:
                self._insert(item)
            except FilterFullError as exc:
                exc.inserted_count = index
                raise

    def _contains_batch(self, items: Sequence[bytes]) -> List[bool]:
        return [self._contains(item) for item in items]

    def _delete_batch(self, items: Sequence[bytes]) -> List[bool]:
        return [self._delete(item) for item in items]

    def insert_all(self, items: Iterable[bytes]) -> int:
        """Insert every item (batched); returns how many were inserted."""
        batch = items if isinstance(items, (list, tuple)) else list(items)
        self.insert_batch(batch)
        return len(batch)

    def load_factor(self) -> float:
        """Current occupancy relative to the structure's slot count."""
        slots = self.slot_count()
        return self._count / slots if slots else 0.0

    @abstractmethod
    def slot_count(self) -> int:
        """Total number of item slots in the underlying table."""

    def effective_fpp(self) -> float:
        """Estimated false-positive probability *at current occupancy*.

        The construction-time ``params.fpp`` is a worst-case target at the
        provisioned load; a partially-filled structure answers negative
        queries with a proportionally smaller error. Experiments use this
        to explain observed false-positive counts (see EXPERIMENTS.md).
        Subclasses override with their structure's analytic form; the
        base falls back to the configured target.
        """
        return self._params.fpp

    def bits_per_item(self) -> float:
        """Space efficiency at current occupancy (bits per stored item)."""
        if self._count == 0:
            return float("inf")
        return self.size_in_bytes() * 8 / self._count

    def _deletion_unsupported(self) -> "DeletionUnsupportedError":
        return DeletionUnsupportedError(
            f"{self.name} filter does not support deletion; rebuild instead"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} items={self._count} "
            f"capacity={self.capacity} fpp={self._params.fpp} "
            f"bytes={self.size_in_bytes()}>"
        )
