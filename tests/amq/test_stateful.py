"""Stateful (rule-based) property testing of the dynamic filters.

Hypothesis drives arbitrary interleavings of insert/delete/lookup — both
the scalar operations and their ``*_batch`` counterparts, freely mixed —
against a reference multiset, checking after every step:

* no false negatives for currently-inserted items;
* deletions only succeed for plausible members and keep counts exact;
* serialization round-trips preserve answers mid-sequence.

This is the strongest correctness net over the quotient filter's
metadata-bit machinery and the vacuum filter's dual alternate maps.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)
from hypothesis import strategies as st

from repro.amq import (
    CuckooFilter,
    FilterParams,
    QuotientFilter,
    VacuumFilter,
    canonical_params,
    deserialize_filter,
    serialize_filter,
)
from repro.errors import FilterFullError


class FilterMachine(RuleBasedStateMachine):
    """Shared behaviour; subclasses pick the structure."""

    filter_cls = None

    #: Stay well under the 2*bucket_size copies a cuckoo bucket pair can
    #: hold, so kick-chain failures stay rare and the machine exercises
    #: mostly-successful traffic. Failed inserts are transactional (see
    #: test_insert_failure_rollback), so an occasional ``FilterFullError``
    #: from *distinct* items colliding on one bucket pair is harmless:
    #: it stores nothing and the reference stays in sync.
    MAX_MULTIPLICITY = 4

    items = Bundle("items")

    @initialize(
        capacity=st.integers(min_value=64, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def setup(self, capacity, seed):
        params = canonical_params(
            FilterParams(capacity=capacity, fpp=1e-2, load_factor=0.8, seed=seed)
        )
        self.filt = self.filter_cls(params)
        self.reference = {}  # item -> multiplicity

    @initialize(
        target=items,
        raws=st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=8),
    )
    def seed_items(self, raws):
        # Every rule that draws from ``items`` can fire from the first
        # step, so Hypothesis never discards draws waiting for the bundle.
        return multiple(*raws)

    @rule(target=items, raw=st.binary(min_size=1, max_size=24))
    def make_item(self, raw):
        return raw

    @rule(item=items)
    def insert(self, item):
        if len(self.filt) >= int(0.8 * self.filt.slot_count()):
            return  # stay under the reliable operating load
        if self.reference.get(item, 0) >= self.MAX_MULTIPLICITY:
            return
        try:
            self.filt.insert(item)
        except FilterFullError:
            return
        self.reference[item] = self.reference.get(item, 0) + 1

    @rule(item=items)
    def delete(self, item):
        present = self.reference.get(item, 0) > 0
        deleted = self.filt.delete(item)
        if present:
            assert deleted, "delete lost a present item"
            self.reference[item] -= 1
            if not self.reference[item]:
                del self.reference[item]
        elif deleted:
            # A fingerprint collision can satisfy a delete for an absent
            # item; that removes evidence for some other member, which
            # would surface as a false negative below. With 24-byte items
            # in a tiny universe this is overwhelmingly a bug — fail.
            raise AssertionError("deleted an item that was never inserted")

    @rule(batch=st.lists(items, max_size=12))
    def insert_batch(self, batch):
        if len(self.filt) + len(batch) >= int(0.8 * self.filt.slot_count()):
            return  # stay under the reliable operating load
        # Enforce the multiplicity envelope across the whole batch,
        # counting duplicates inside the batch itself.
        pending = {}
        capped = []
        for item in batch:
            copies = self.reference.get(item, 0) + pending.get(item, 0)
            if copies >= self.MAX_MULTIPLICITY:
                continue
            pending[item] = pending.get(item, 0) + 1
            capped.append(item)
        try:
            self.filt.insert_batch(capped)
        except FilterFullError as exc:
            # Prefix-insert contract: the leading inserted_count items
            # landed, the rest did not.
            for item in capped[: exc.inserted_count]:
                self.reference[item] = self.reference.get(item, 0) + 1
            return
        for item in capped:
            self.reference[item] = self.reference.get(item, 0) + 1

    @rule(batch=st.lists(items, max_size=12))
    def contains_batch(self, batch):
        assert self.filt.contains_batch(batch) == [
            self.filt.contains(item) for item in batch
        ]

    @rule(batch=st.lists(items, max_size=12))
    def delete_batch(self, batch):
        flags = self.filt.delete_batch(batch)
        assert len(flags) == len(batch)
        for item, deleted in zip(batch, flags):
            present = self.reference.get(item, 0) > 0
            if present:
                assert deleted, "delete_batch lost a present item"
                self.reference[item] -= 1
                if not self.reference[item]:
                    del self.reference[item]
            elif deleted:
                raise AssertionError(
                    "delete_batch removed an item that was never inserted"
                )

    @rule()
    def roundtrip(self):
        restored = deserialize_filter(serialize_filter(self.filt))
        for item in self.reference:
            assert restored.contains(item)
        assert len(restored) == len(self.filt)

    @invariant()
    def no_false_negatives(self):
        if not hasattr(self, "filt"):
            return
        for item, count in self.reference.items():
            assert count < 1 or self.filt.contains(item)

    @invariant()
    def count_matches_reference(self):
        if not hasattr(self, "filt"):
            return
        assert len(self.filt) == sum(self.reference.values())


class CuckooMachine(FilterMachine):
    filter_cls = CuckooFilter


class VacuumMachine(FilterMachine):
    filter_cls = VacuumFilter


class QuotientMachine(FilterMachine):
    filter_cls = QuotientFilter

    @invariant()
    def structural_invariants(self):
        if not hasattr(self, "filt"):
            return
        f = self.filt
        runs = sum(
            1
            for pos in range(f.slot_count())
            if not f._slot_empty(pos) and not f._cont[pos]
        )
        assert runs == sum(f._occ), "run count != occupied count"
        for pos in range(f.slot_count()):
            if f._cont[pos]:
                assert f._shift[pos], f"continuation without shift at {pos}"


_settings = settings(
    max_examples=20,
    stateful_step_count=40,
    deadline=None,
    # Timing-based health checks misfire on loaded CI runners sharing
    # cores with the benchmark jobs; correctness is load-independent.
    suppress_health_check=[HealthCheck.too_slow],
)

TestCuckooStateful = CuckooMachine.TestCase
TestCuckooStateful.settings = _settings
TestVacuumStateful = VacuumMachine.TestCase
TestVacuumStateful.settings = _settings
TestQuotientStateful = QuotientMachine.TestCase
TestQuotientStateful.settings = _settings
