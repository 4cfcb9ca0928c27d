"""XOR-family build engine: peel edge geometry, spec differential,
seed-retry paths and construction-attempt metering.

The array-native engine (:mod:`repro.amq.peel`) must replay the scalar
specification's exact LIFO peel order — the order fixes the slot->item
matching and with it the wire image. These tests pin the engine against
:func:`repro.amq.peel.peel_spec`, against the frozen reference model,
and across the degenerate geometries the vectorized paths skip past.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.amq import FilterParams, canonical_params, peel
from repro.amq import xor as xor_module
from repro.amq.hashing import VECTOR_MIN_BATCH, xor_hashes_np
from repro.amq.xor import XorFilter
from repro.errors import FilterFullError

from tests.amq._reference import ReferenceXorFilter

relaxed = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.differing_executors],
)


def make_params(capacity, fpp=1e-3, seed=0):
    return canonical_params(
        FilterParams(capacity=capacity, fpp=fpp, load_factor=0.9, seed=seed)
    )


def items_for(n, tag=b"peel"):
    return [b"%s-%06d" % (tag, i) for i in range(n)]


def engine_vs_spec_tables(items, params):
    """Build the same instance through both peel paths."""
    filt = XorFilter(params)
    triples = [filt._hashes(item, 0) for item in items]
    spec = peel.peel_spec(triples, filt._slots)
    h0, h1, h2, fp = xor_hashes_np(
        items, params.seed, filt._slots // 3, filt._fp_bits
    )
    engine = peel.peel_arrays(h0, h1, h2, fp, filt._slots, filt._fp_bits)
    return spec, engine


# ---------------------------------------------------------------------------
# Edge geometry
# ---------------------------------------------------------------------------


class TestEdgeGeometry:
    def test_empty_filter(self):
        filt = XorFilter(make_params(4))
        assert not filt.contains(b"absent")
        assert not any(filt.contains_batch([b"a", b"b", b"c"]))
        image = filt.to_bytes()
        twin = XorFilter.from_bytes(make_params(4), image)
        assert twin.to_bytes() == image

    def test_single_item(self):
        filt = XorFilter(make_params(4))
        filt.insert(b"only-item")
        assert filt.contains(b"only-item")
        ref = ReferenceXorFilter(make_params(4))
        ref.insert(b"only-item")
        assert filt.to_bytes() == ref.to_bytes()

    def test_duplicate_items_dedup(self):
        """Duplicates would leave identical triples stuck above degree 1;
        the ``dict.fromkeys`` dedup keeps the hypergraph peelable and the
        wire image must match the reference fed the same sequence."""
        params = make_params(64)
        items = [b"dup-%d" % (i % 7) for i in range(40)]
        filt = XorFilter(params)
        ref = ReferenceXorFilter(params)
        filt.insert_batch(items)
        ref.insert_batch(items)
        assert len(filt) == len(ref) == 40
        assert filt.contains(b"dup-3")
        assert filt.to_bytes() == ref.to_bytes()

    def test_capacity_boundary_prefix_contract(self):
        params = make_params(50)
        items = items_for(60, b"cap")
        filt = XorFilter(params)
        with pytest.raises(FilterFullError) as exc_info:
            filt.insert_batch(items)
        assert exc_info.value.inserted_count == 50
        assert len(filt) == 50
        # The accepted prefix must be fully queryable after the overflow.
        assert all(filt.contains_batch(items[:50]))

    def test_attach_source_items_restores_mutability(self):
        """Regression: a ``from_bytes`` copy has no item buffer, so its
        first insert used to rebuild over nothing and silently drop the
        advertised set. Reattaching the source items keeps every old
        item queryable through the post-insert reconstruction."""
        params = make_params(100, seed=4)
        items = items_for(60, b"att")
        original = XorFilter.build_from_fingerprints(params, items)
        copy = XorFilter.from_bytes(params, original.to_bytes())
        with pytest.raises(Exception):
            copy.attach_source_items(items[:10])  # count mismatch
        copy.attach_source_items(items)
        copy.insert(b"att-extra")
        assert copy.contains(b"att-extra")
        assert all(copy.contains_batch(items))

    def test_bulk_build_is_eager(self):
        """``build_from_fingerprints`` returns a constructed filter: the
        peel has already run (inside the ``amq.build`` span), so the
        first probe does not pay a hidden rebuild."""
        items = items_for(VECTOR_MIN_BATCH * 4)
        filt = XorFilter.build_from_fingerprints(make_params(200), items)
        assert not filt._dirty
        assert all(filt.contains_batch(items))


# ---------------------------------------------------------------------------
# Engine vs specification
# ---------------------------------------------------------------------------


class TestEngineMatchesSpec:
    @relaxed
    @given(
        n=st.integers(min_value=0, max_value=300),
        fpp_exp=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_packed_engine_equals_spec(self, n, fpp_exp, seed):
        params = make_params(max(n, 1), fpp=10.0**-fpp_exp, seed=seed)
        items = items_for(n)
        spec, engine = engine_vs_spec_tables(items, params)
        assert (spec is None) == (engine is None)
        assert spec == engine

    def test_wide_record_falls_back_to_spec(self):
        """3 * index_bits + fp_bits > 62 cannot pack one int64 record;
        the engine must route through the spec loops, same table out."""
        params = make_params(2000, fpp=2.0**-32)
        filt = XorFilter(params)
        assert 3 * (filt._slots - 1).bit_length() + filt._fp_bits > 62
        items = items_for(1500, b"wide")
        spec, engine = engine_vs_spec_tables(items, params)
        assert spec == engine is not None
        filt.insert_batch(items)
        assert all(filt.contains_batch(items))

    def test_production_build_uses_engine_table(self):
        items = items_for(VECTOR_MIN_BATCH * 8)
        params = make_params(300, seed=11)
        filt = XorFilter(params)
        filt.insert_batch(items)
        filt.contains(items[0])
        spec, engine = engine_vs_spec_tables(items, params)
        assert [int(v) for v in filt._table] == engine == spec

    @relaxed
    @given(
        n=st.integers(min_value=0, max_value=250),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_scalar_spec_mode_produces_identical_wire_image(self, n, seed):
        params = make_params(max(n, 1), seed=seed)
        items = items_for(n, b"mode")
        filt = XorFilter(params)
        spec_filt = XorFilter(params)
        if items:
            filt.insert_batch(items)
            spec_filt.insert_batch(items)
        image = filt.to_bytes()
        with peel.scalar_spec_mode():
            assert spec_filt.to_bytes() == image
        assert not peel.scalar_spec_active()


# ---------------------------------------------------------------------------
# Seed retries and construction-attempt metering
# ---------------------------------------------------------------------------


def force_prod_retries(monkeypatch, failures):
    """Make the first ``failures`` engine peels report a 2-core."""
    state = {"calls": 0}
    real_arrays, real_spec = peel.peel_arrays, peel.peel_spec

    def flaky_arrays(*args, **kwargs):
        state["calls"] += 1
        if state["calls"] <= failures:
            return None
        return real_arrays(*args, **kwargs)

    def flaky_spec(*args, **kwargs):
        state["calls"] += 1
        if state["calls"] <= failures:
            return None
        return real_spec(*args, **kwargs)

    monkeypatch.setattr(peel, "peel_arrays", flaky_arrays)
    monkeypatch.setattr(peel, "peel_spec", flaky_spec)
    return state


def force_ref_retries(monkeypatch, failures):
    real = ReferenceXorFilter._try_build

    def flaky(self, build_items, construction_seed):
        if construction_seed < failures:
            return False
        return real(self, build_items, construction_seed)

    monkeypatch.setattr(ReferenceXorFilter, "_try_build", flaky)


class TestSeedRetries:
    @pytest.mark.parametrize("failures", [1, 3])
    def test_retried_build_matches_reference_wire_image(
        self, failures, monkeypatch
    ):
        """A non-peelable first attempt bumps the construction seed in
        both implementations; table bytes and the wire header must agree."""
        params = make_params(150, seed=9)
        items = items_for(140, b"retry")
        force_prod_retries(monkeypatch, failures)
        force_ref_retries(monkeypatch, failures)
        filt = XorFilter(params)
        ref = ReferenceXorFilter(params)
        filt.insert_batch(items)
        ref.insert_batch(items)
        assert filt.to_bytes() == ref.to_bytes()
        assert filt._construction_seed == failures
        assert all(filt.contains_batch(items))

    def test_attempt_counter_and_histogram(self, monkeypatch):
        """Satellite: a seed-retry storm must be visible in
        ``--metrics-out`` — total attempts counter plus a per-rebuild
        attempts histogram."""
        params = make_params(100, seed=5)
        items = items_for(90, b"meter")
        force_prod_retries(monkeypatch, 2)
        filt = XorFilter(params)
        filt.insert_batch(items)
        with obs.scoped() as reg:
            filt.contains(items[0])  # first probe pays the build: 3 attempts
            filt.contains(items[1])  # clean filter: no further attempts
        assert filt._construction_seed == 2
        assert reg.counter("amq.xor.construction_attempts") == 3
        hist = reg.histogram("amq.xor.attempts_per_rebuild")
        assert hist is not None and hist.count == 1 and hist.total == 3

    def test_single_attempt_build_meters_one(self):
        params = make_params(80, seed=2)
        items = items_for(60, b"one")
        with obs.scoped() as reg:
            XorFilter.build_from_fingerprints(params, items)
        assert reg.counter("amq.xor.construction_attempts") == 1
        hist = reg.histogram("amq.xor.attempts_per_rebuild")
        assert hist is not None and hist.count == 1 and hist.total == 1
        # The eager producer path also lands the build span.
        span = reg.histogram("amq.build.seconds", (("backend", "xor"),))
        assert span is not None and span.count == 1

    def test_exhausted_attempts_meter_and_raise(self, monkeypatch):
        monkeypatch.setattr(peel, "peel_arrays", lambda *a, **k: None)
        monkeypatch.setattr(peel, "peel_spec", lambda *a, **k: None)
        params = make_params(60, seed=3)
        filt = XorFilter(params)
        filt.insert_batch(items_for(50, b"fail"))
        with obs.scoped() as reg:
            with pytest.raises(FilterFullError):
                filt.contains(b"anything")
        assert (
            reg.counter("amq.xor.construction_attempts")
            == xor_module._MAX_CONSTRUCTION_ATTEMPTS
        )
