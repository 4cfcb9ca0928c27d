"""The cohort's result layout: narrow per-user columns written in place.

``CohortEngine.run`` allocates its outputs once and writes every block
into them, so its memory grows with the users only by the retained
columns: the per-user column bytes (:func:`column_dtypes`) plus one
float64 RTT slot per destination draw.  These tests pin the dtype rule at
its boundaries, the per-user footprint under ``tracemalloc``, the block
parts ``--jobs`` holds at once, and that the serial, metered and
``--jobs 2`` paths write identical results when the last block is short.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from tests._fixtures import reduced_population_config, shared_population

from repro import obs
from repro.webmodel import cohort
from repro.webmodel.cohort import (
    CohortColumns,
    CohortConfig,
    CohortEngine,
    column_dtype,
    column_dtypes,
    run_cohort,
)
from repro.webmodel.population import ICAPopulation, PopulationConfig


@pytest.mark.parametrize(
    "bound,dtype",
    [
        (0, np.int8),
        (127, np.int8),
        (128, np.int16),
        (32_767, np.int16),
        (32_768, np.int32),
        (2**31 - 1, np.int32),
        (2**31, np.int64),
    ],
)
def test_column_dtype_is_the_narrowest_signed_type(bound, dtype):
    assert column_dtype(bound) == np.dtype(dtype)
    assert np.array([bound], dtype=column_dtype(bound))[0] == bound


def test_column_dtypes_scale_with_slots_and_retries():
    dtypes = column_dtypes(slots=10, max_depth=4, max_bytes=3_000)
    assert set(dtypes) == set(CohortColumns.__dataclass_fields__)
    assert dtypes["handshakes"] == np.int8  # 10
    assert dtypes["icas_sent_total"] == np.int8  # 10 x 4 x 2 = 80
    assert dtypes["ica_bytes_total"] == np.int16  # 30,000
    assert dtypes["ica_bytes_sent_total"] == np.int32  # retries: 60,000
    assert dtypes["divergent"] == np.bool_
    # One more slot per user tips the handshake count past int8.
    assert column_dtypes(128, 1, 1)["handshakes"] == np.int16


def test_post_quantum_population_needs_wide_byte_columns():
    """A PQ hierarchy's ICA bytes outgrow int16 within a few draws: the
    engine's byte columns widen, and still hold the exact totals."""
    population = ICAPopulation(
        PopulationConfig(algorithm="dilithium5", universe_icas=40, num_roots=2)
    )
    config = CohortConfig(
        num_users=30,
        handshakes_per_user=20,
        max_rank=5_000,
        hot_top_n=20,
        population=population.config,
    )
    engine = CohortEngine(config, population=population)
    max_bytes = int(engine.facts.nbytes.max())
    assert max_bytes * 20 * 2 > np.iinfo(np.int16).max
    assert np.dtype(engine.dtypes["ica_bytes_sent_total"]).itemsize >= 4
    result = engine.run()
    for name, dtype in engine.dtypes.items():
        assert getattr(result.columns, name).dtype == dtype
    assert result.stats.ica_bytes_total == sum(
        int(b) for b in result.columns.ica_bytes_total
    )
    assert result.stats.ica_bytes_total > np.iinfo(np.int16).max


def _traced_peak(users, block_users):
    config = CohortConfig(
        num_users=users,
        handshakes_per_user=10,
        max_rank=20_000,
        hot_top_n=40,
        block_users=block_users,
        population=reduced_population_config(),
    )
    engine = CohortEngine(config, population=shared_population(config.population))
    # The rank -> path memo grows with the largest rank, not the users:
    # fill it before tracing.
    engine.population.path_ordinals(np.arange(1, config.max_rank + 1))
    tracemalloc.start()
    try:
        engine.run()
        return tracemalloc.get_traced_memory()[1], engine
    finally:
        tracemalloc.stop()


def test_run_memory_grows_by_the_retained_columns_only():
    """Peak traced memory of ``run()`` grows per added user by the
    per-user column bytes plus 8 bytes per destination draw (the RTT
    buffer), within 10 %; kept block parts or a finalize copy would add
    the columns again."""
    small, engine = _traced_peak(1_000, block_users=250)
    large, _ = _traced_peak(3_000, block_users=250)
    footprint = sum(np.dtype(d).itemsize for d in engine.dtypes.values()) + 8 * 10
    per_user = (large - small) / 2_000
    assert per_user <= 1.1 * footprint, (per_user, footprint)


def test_serial_metered_and_sharded_runs_write_identical_results():
    """101 users in blocks of 13: seven full blocks and a short one, each
    written in place by every path, retries included."""
    config = CohortConfig(
        num_users=101,
        handshakes_per_user=6,
        hot_top_n=40,
        fpp=0.25,
        payload_refresh_every=2,
        seed=3,
        block_users=13,
        population=reduced_population_config(),
    )
    population = shared_population(config.population)
    serial = run_cohort(config, jobs=1, population=population)
    obs.enable()
    try:
        metered = run_cohort(config, jobs=1, population=population)
    finally:
        obs.disable()
    sharded = run_cohort(config, jobs=2)
    assert serial.stats.retries > 0
    for other in (metered, sharded):
        assert other == serial
        assert other.stats.rtt_sum_s == serial.stats.rtt_sum_s
        for name in CohortColumns.__dataclass_fields__:
            assert getattr(other.columns, name).dtype == getattr(serial.columns, name).dtype
    assert len(serial.rtt_s) == serial.stats.handshakes


def test_sharded_run_holds_a_window_of_block_parts(monkeypatch):
    """At ``--jobs 2`` the parent holds at most ``2 * jobs`` parts in
    flight plus the one being written, whatever the block count: 40
    blocks here."""
    config = CohortConfig(
        num_users=2_000,
        handshakes_per_user=4,
        hot_top_n=40,
        block_users=50,
        population=reduced_population_config(),
    )
    engine = CohortEngine(config, population=shared_population(config.population))
    alive = []
    write = cohort._CohortOutputs.write

    def counting_write(outputs, part):
        alive.append(
            sum(1 for o in gc.get_objects() if type(o) is cohort._BlockPart)
        )
        write(outputs, part)

    monkeypatch.setattr(cohort._CohortOutputs, "write", counting_write)
    sharded = engine.run(jobs=2)
    assert len(alive) == len(engine.blocks()) == 40
    assert max(alive) <= 2 * 2 + 1, alive
    monkeypatch.setattr(cohort._CohortOutputs, "write", write)
    assert sharded == engine.run(jobs=1)


def test_population_not_built_from_the_config_shards_identically():
    """Workers run the engine's own population, so a population the
    config cannot rebuild gives one result at every ``jobs``."""
    config = CohortConfig(
        num_users=240,
        handshakes_per_user=6,
        hot_top_n=40,
        fpp=0.25,
        block_users=16,
        population=reduced_population_config(),
    )
    population = ICAPopulation(
        dataclasses.replace(config.population, seed=config.population.seed + 5)
    )
    engine = CohortEngine(config, population=population)
    serial = engine.run(jobs=1)
    assert engine.run(jobs=2) == serial
    assert serial != run_cohort(config, population=shared_population(config.population))
