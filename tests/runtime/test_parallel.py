"""Tests for the deterministic process-pool runtime."""

import multiprocessing
import os

import pytest

from repro.runtime.parallel import (
    WorkerCrashError,
    default_jobs,
    derive_seed,
    parallel_imap,
    parallel_map,
    resolve_jobs,
)


# ---------------------------------------------------------------------------
# Module-level workers
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom on {x}")


def _die(x):
    os._exit(13)


def _boom_at_three(x):
    if x == 3:
        raise ValueError(f"boom on {x}")
    return x


def _interrupt(x):
    raise KeyboardInterrupt


def _read_flight_size(key):
    from repro.runtime import artifacts

    return artifacts.FLIGHT_SIZES.get(key)


# ---------------------------------------------------------------------------
# derive_seed
# ---------------------------------------------------------------------------


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed("ns", 1, 2) == derive_seed("ns", 1, 2)

    def test_namespaces_are_independent_streams(self):
        assert derive_seed("a", 1) != derive_seed("b", 1)

    def test_indices_are_independent(self):
        seeds = {derive_seed("ns", 0, i) for i in range(100)}
        assert len(seeds) == 100

    def test_typed_components_do_not_collide(self):
        # The classic framing bug: int 1, str "1", bytes b"1", True must
        # all hash differently.
        values = [1, "1", b"1", True, 1.0, None]
        seeds = {derive_seed("ns", v) for v in values}
        assert len(seeds) == len(values)

    def test_concatenation_does_not_collide(self):
        # ("ab", "c") vs ("a", "bc") — length framing must separate them.
        assert derive_seed("ns", "ab", "c") != derive_seed("ns", "a", "bc")

    def test_fits_bits(self):
        for i in range(50):
            assert 0 <= derive_seed("ns", i) < 2**63
        assert 0 <= derive_seed("ns", 7, bits=16) < 2**16

    def test_rejects_non_scalars(self):
        with pytest.raises(TypeError):
            derive_seed("ns", [1, 2])

    def test_not_linear(self):
        # Guard against regressing to seed * K + i arithmetic.
        a, b, c = (derive_seed("ns", 0, i) for i in range(3))
        assert b - a != c - b


# ---------------------------------------------------------------------------
# resolve_jobs
# ---------------------------------------------------------------------------


class TestResolveJobs:
    def test_none_and_zero_mean_all_cores(self):
        assert resolve_jobs(None) == default_jobs()
        assert resolve_jobs(0) == default_jobs()

    def test_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


# ---------------------------------------------------------------------------
# parallel_map
# ---------------------------------------------------------------------------


class TestParallelMap:
    def test_serial_path_ordered(self):
        assert parallel_map(_square, range(10), jobs=1) == [
            x * x for x in range(10)
        ]

    def test_parallel_path_ordered(self):
        assert parallel_map(_square, range(20), jobs=2) == [
            x * x for x in range(20)
        ]

    def test_parallel_matches_serial(self):
        items = list(range(17))
        assert parallel_map(_square, items, jobs=2) == parallel_map(
            _square, items, jobs=1
        )

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_single_item_runs_serially(self):
        assert parallel_map(_square, [3], jobs=4) == [9]

    def test_exception_propagates_with_type_serial(self):
        with pytest.raises(ValueError, match="boom on 0"):
            parallel_map(_boom, range(5), jobs=1)

    def test_exception_propagates_with_type_parallel(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_boom, range(5), jobs=2)

    def test_worker_crash_raises_worker_crash_error(self):
        with pytest.raises(WorkerCrashError):
            parallel_map(_die, range(4), jobs=2)
        assert multiprocessing.active_children() == []

    def test_keyboard_interrupt_tears_the_pool_down(self):
        with pytest.raises(KeyboardInterrupt):
            parallel_map(_interrupt, range(6), jobs=2)
        assert multiprocessing.active_children() == []

    def test_runs_a_lambda_in_workers(self):
        # Workers call the caller's own function object: nothing about
        # ``fn`` is pickled, so closures and lambdas shard too.
        offset = 5
        assert parallel_map(lambda x: x + offset, range(6), jobs=2) == [
            x + offset for x in range(6)
        ]

    def test_forked_workers_inherit_parent_caches(self):
        # Fork copies every cache entry the parent holds, so pool workers
        # start warm without being sent anything.
        from repro.runtime import artifacts

        try:
            multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("no fork start method on this platform")
        key = ("__test_fork__", "kem", 0, True)
        artifacts.FLIGHT_SIZES.put(key, (111, 222))
        try:
            out = parallel_map(_read_flight_size, [key] * 4, jobs=2)
            assert out == [(111, 222)] * 4
        finally:
            artifacts.FLIGHT_SIZES._entries.pop(key, None)


class TestParallelImap:
    def test_stopping_early_shuts_the_pool_down(self):
        stream = parallel_imap(_square, range(40), jobs=2)
        assert next(stream) == 0
        stream.close()
        assert multiprocessing.active_children() == []

    def test_worker_raising_mid_stream_keeps_its_type(self):
        stream = parallel_imap(_boom_at_three, range(40), jobs=2)
        assert [next(stream) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ValueError, match="boom on 3"):
            next(stream)
        assert multiprocessing.active_children() == []
