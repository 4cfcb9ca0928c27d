"""Batch deletion on the deleting families.

``delete_batch`` is the filter side of the paper's dynamic-update path
(§4.2, mirrored from the ICA cache by ``FilterManager``): per-item
success flags, no counter underflow on a miss, and — for the
history-independent families (counting bloom, quotient) — deletion
lands on the same bytes as a fresh build of the survivors.
"""

import pytest

from repro.amq import (
    BloomFilter,
    CountingBloomFilter,
    CuckooFilter,
    FilterParams,
    QuotientFilter,
    VacuumFilter,
    XorFilter,
    canonical_params,
)
from repro.errors import DeletionUnsupportedError
from tests.conftest import make_items

PARAMS = canonical_params(
    FilterParams(capacity=64, fpp=1e-2, load_factor=0.8, seed=221453161)
)

DELETING = [CountingBloomFilter, CuckooFilter, VacuumFilter, QuotientFilter]
DELETING_IDS = ["counting-bloom", "cuckoo", "vacuum", "quotient"]


@pytest.fixture(params=DELETING, ids=DELETING_IDS)
def loaded(request, rng):
    filt = request.param(PARAMS)
    items = make_items(rng, 40)
    filt.insert_batch(items)
    return filt, items


class TestStrictDeleteSuccess:
    """Batches whose every item is stored: each deletion succeeds."""

    def test_deletes_all_items(self, loaded):
        filt, items = loaded
        before = len(filt)
        assert filt.delete_batch(items[:5]) == [True] * 5
        assert len(filt) == before - 5
        # Survivors must still answer true (no false negatives).
        assert all(filt.contains(i) for i in items[5:])

    @pytest.mark.parametrize(
        "cls", [CountingBloomFilter, QuotientFilter],
        ids=["counting-bloom", "quotient"],
    )
    def test_history_independent_families_land_on_fresh_bytes(self, rng, cls):
        filt = cls(PARAMS)
        items = make_items(rng, 30)
        filt.insert_batch(items)
        assert all(filt.delete_batch(items[10:20]))
        fresh = cls.build_from_fingerprints(
            PARAMS, items[:10] + items[20:]
        )
        assert filt.to_bytes() == fresh.to_bytes()

    def test_empty_batch_is_a_noop(self, loaded):
        filt, _ = loaded
        before = filt.to_bytes()
        assert filt.delete_batch([]) == []
        assert filt.to_bytes() == before


class TestNonStrictUnchanged:
    def test_delete_batch_reports_per_item_flags(self, loaded, rng):
        filt, items = loaded
        absent = make_items(rng, 1)[0]
        flags = filt.delete_batch([items[0], absent, items[1]])
        assert flags == [True, False, True]

    def test_counting_bloom_never_underflows(self, rng):
        # Deleting from an empty filter must not wrap any counter.
        filt = CountingBloomFilter(PARAMS)
        empty = filt.to_bytes()
        for item in make_items(rng, 8):
            assert not filt.delete(item)
        assert filt.to_bytes() == empty

    def test_counting_bloom_partial_overlap_no_underflow(self, rng):
        # An absent item whose cells partially overlap stored items must
        # not decrement the shared cells: a failed delete is a strict
        # no-op at the byte level, however many of its positions are hot.
        filt = CountingBloomFilter(PARAMS)
        items = make_items(rng, 20)
        filt.insert_batch(items)
        for item in make_items(rng, 40):
            before = filt.to_bytes()
            if not filt.delete(item):
                assert filt.to_bytes() == before

    @pytest.mark.parametrize("cls", [BloomFilter, XorFilter], ids=["bloom", "xor"])
    def test_non_deleting_families_refuse_strict_deletes(self, rng, cls):
        filt = cls(PARAMS)
        items = make_items(rng, 8)
        filt.insert_batch(items)
        with pytest.raises(DeletionUnsupportedError):
            filt.delete_batch(items[:2])
