"""Properties of the cohort seed-derivation scheme (``cohortrng``).

The scheme's contract (module docstring of
:mod:`repro.webmodel.cohortrng`): stream keys are content hashes of
(namespace, cohort seed); counters are ``user * slots + slot``; draws are
a splitmix64-finalizer bijection of the counter under the key.  Pinned
here:

* no stream collisions — distinct counters under one key give distinct
  64-bit words (structurally, via the bijection), and the three cohort
  namespaces get pairwise-distinct keys for every seed;
* per-user rows and block matrices address the identical counters, so
  any sharding (``--jobs``, ``block_users``) reproduces every draw —
  including through the engine itself (results and deterministic
  counters invariant across jobs/block size).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests._fixtures import reduced_population_config, shared_population

from repro.webmodel import cohortrng
from repro.webmodel.cohort import (
    CohortConfig,
    cohort_stream_keys,
    run_cohort,
)

NAMESPACES = (
    cohortrng.RANK_STREAM,
    cohortrng.RTT_A_STREAM,
    cohortrng.RTT_B_STREAM,
)


class TestStreamKeys:
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_namespaces_never_share_a_key(self, seed):
        keys = [cohortrng.stream_key(ns, seed) for ns in NAMESPACES]
        assert len(set(keys)) == len(NAMESPACES)
        for key in keys:
            assert 0 <= key < 2**64

    @given(
        seed_a=st.integers(min_value=0, max_value=2**32),
        seed_b=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_distinct_seeds_give_distinct_keys(self, seed_a, seed_b):
        for ns in NAMESPACES:
            assert (
                cohortrng.stream_key(ns, seed_a)
                == cohortrng.stream_key(ns, seed_b)
            ) == (seed_a == seed_b)

    def test_keys_are_stable_values(self):
        # Content hashes, not process state: same inputs, same key, any
        # process — the property every checked-in golden rests on.
        assert cohort_stream_keys(0) == cohort_stream_keys(0)
        again = {ns: cohortrng.stream_key(ns, 0) for ns in NAMESPACES}
        assert cohort_stream_keys(0) == again


class TestCounterStreams:
    @given(
        key=st.integers(min_value=0, max_value=2**64 - 1),
        users=st.integers(min_value=1, max_value=200),
        slots=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_no_collisions_within_a_stream(self, key, users, slots):
        counters = cohortrng.block_counters(0, users, slots)
        words = cohortrng.counter_hash(key, counters)
        assert len(np.unique(words)) == users * slots

    @given(
        key=st.integers(min_value=0, max_value=2**64 - 1),
        user=st.integers(min_value=0, max_value=2**20),
        slots=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_user_row_equals_block_matrix_row(self, user, key, slots):
        """Scalar-reference addressing (one user's row) and columnar
        addressing (a block matrix) denote the same counters — the root
        of the engines' byte-identical randomness."""
        row = cohortrng.user_counters(user, slots)
        block = cohortrng.block_counters(user, user + 3, slots)
        assert np.array_equal(row, block[0])
        assert np.array_equal(
            cohortrng.uniforms(key, row), cohortrng.uniforms(key, block)[0]
        )

    @given(
        key=st.integers(min_value=0, max_value=2**64 - 1),
        start=st.integers(min_value=0, max_value=1000),
        split=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=25, deadline=None)
    def test_block_sharding_is_invisible(self, key, start, split):
        whole = cohortrng.block_counters(start, start + 8, 5)
        parts = np.concatenate(
            [
                cohortrng.block_counters(start, start + split, 5),
                cohortrng.block_counters(start + split, start + 8, 5),
            ]
        )
        assert np.array_equal(whole, parts)

    def test_uniforms_are_doubles_in_unit_interval(self):
        u = cohortrng.uniforms(12345, cohortrng.block_counters(0, 500, 8))
        assert u.dtype == np.float64
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0


class TestDistributions:
    @given(
        exponent=st.floats(min_value=1.05, max_value=3.0),
        size=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_zipf_ranks_stay_in_bounds(self, exponent, size):
        u = cohortrng.uniforms(7, cohortrng.user_counters(0, 64))
        # Include both endpoints of the uniform domain explicitly.
        u = np.concatenate([u, [0.0, np.nextafter(1.0, 0.0)]])
        ranks = cohortrng.zipf_ranks(u, exponent, size)
        assert ranks.dtype == np.int64
        assert int(ranks.min()) >= 1
        assert int(ranks.max()) <= size

    def test_zipf_rejects_degenerate_parameters(self):
        u = np.array([0.5])
        with pytest.raises(ValueError):
            cohortrng.zipf_ranks(u, 1.0, 100)
        with pytest.raises(ValueError):
            cohortrng.zipf_ranks(u, 1.5, 0)

    def test_zipf_is_popularity_skewed(self):
        u = cohortrng.uniforms(7, cohortrng.block_counters(0, 2000, 8))
        ranks = cohortrng.zipf_ranks(u, 1.9, 1_000_000)
        # A Zipf(1.9) stream is head-heavy: rank 1 dominates any deep rank.
        assert (ranks == 1).sum() > (ranks > 1000).sum()

    def test_rtt_respects_physical_floor_and_median(self):
        counters = cohortrng.block_counters(0, 2000, 8)
        rtt = cohortrng.lognormal_rtt(
            cohortrng.uniforms(1, counters),
            cohortrng.uniforms(2, counters),
            0.045,
            0.5,
        )
        assert float(rtt.min()) >= 0.002
        # Median of the log-normal is the median parameter.
        assert abs(float(np.median(rtt)) - 0.045) < 0.005


class TestEngineShardingInvariance:
    """The seed-derivation scheme's end-to-end promise: the *engine's*
    output is a pure function of the config, not of jobs/block size."""

    def _config(self, block_users):
        return CohortConfig(
            num_users=60,
            handshakes_per_user=5,
            hot_top_n=40,
            fpp=0.25,
            seed=1,
            block_users=block_users,
            population=reduced_population_config(),
        )

    def test_jobs_and_block_size_cannot_change_the_result(self):
        population = shared_population(reduced_population_config())
        serial = run_cohort(self._config(16_384), jobs=1, population=population)
        sharded = run_cohort(self._config(17), jobs=2)
        assert serial.stats == sharded.stats
        assert serial.columns == sharded.columns
        assert np.array_equal(serial.rtt_s, sharded.rtt_s)
        # Retries present, so the invariance covers the replay path too.
        assert serial.stats.retries > 0

