"""The churn cohort's counter-based site stream: layout and invariances.

The columnar engine draws one epoch's sites as a (clients, slots) block;
the scalar reference consumes the same stream row by row.  These tests
pin the properties that make that safe: the counter layout is sharding-
invariant (any sub-range of clients yields the values of the full
block), epochs occupy disjoint counter ranges, draws are in range, and
the stream key set is a pure function of (namespace, seed), so every
worker process derives the same one.
"""

import numpy as np

from repro.runtime.parallel import derive_seed
from repro.webmodel.churn_columnar import (
    SITE_STREAM,
    churn_stream_keys,
    epoch_site_column,
    epoch_site_counters,
)
from repro.webmodel.cohortrng import (
    block_counters,
    stream_key,
    uniforms,
    user_counters,
)


def test_epoch_counters_are_sharding_invariant():
    """Any client sub-range of an epoch block equals the corresponding
    slice of the full block — the property that lets the scalar reference
    iterate rows while the columnar engine takes the whole matrix."""
    full = epoch_site_counters(step=3, num_clients=20, slots=4)
    for start, stop in ((0, 20), (0, 7), (7, 13), (19, 20)):
        sub = block_counters(3 * 20 + start, 3 * 20 + stop, 4)
        assert np.array_equal(sub, full[start:stop])
    for client in range(20):
        row = user_counters(3 * 20 + client, 4)
        assert np.array_equal(row, full[client])


def test_epoch_counter_ranges_are_disjoint():
    """Epoch t's virtual users are [t*N, (t+1)*N): consecutive epochs
    never reuse a counter, so no draw correlates across epochs."""
    n, slots = 10, 3
    seen = set()
    for step in range(4):
        counters = epoch_site_counters(step, n, slots)
        values = set(counters.ravel().tolist())
        assert len(values) == n * slots
        assert not (values & seen)
        seen |= values


def test_site_column_matches_scalar_draws_and_stays_in_range():
    key = churn_stream_keys(123)[SITE_STREAM]
    n, slots, num_sites = 16, 3, 7
    column = epoch_site_column(key, step=2, num_clients=n, slots=slots,
                               num_sites=num_sites)
    assert column.shape == (n, slots)
    assert column.min() >= 0
    assert column.max() < num_sites
    counters = epoch_site_counters(2, n, slots)
    for client in range(n):
        draws = uniforms(key, counters[client])
        scalar = [
            min(int(draws[s] * num_sites), num_sites - 1) for s in range(slots)
        ]
        assert scalar == column[client].tolist()


def test_stream_keys_are_derived_from_namespace():
    keys = churn_stream_keys(77)
    assert keys[SITE_STREAM] == stream_key(SITE_STREAM, 77)
    assert keys[SITE_STREAM] == derive_seed(SITE_STREAM, 77, bits=64)
    assert churn_stream_keys(77) == keys


def test_distinct_seeds_give_distinct_site_streams():
    a = churn_stream_keys(0)[SITE_STREAM]
    b = churn_stream_keys(1)[SITE_STREAM]
    assert a != b
    col_a = epoch_site_column(a, 0, 8, 2, 6)
    col_b = epoch_site_column(b, 0, 8, 2, 6)
    assert not np.array_equal(col_a, col_b)
