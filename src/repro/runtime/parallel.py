"""Deterministic process-pool fan-out for the experiment layer.

``parallel_map`` runs a picklable function over an item list on a process
pool and returns results in item order, so a sharded experiment produces
exactly the list its serial loop would. Determinism is the contract:

* results come back ordered, whatever the completion order;
* per-item randomness must be derived with :func:`derive_seed` (a stable
  content hash over the experiment's seed and the item index), never from
  worker-local state, ``seed * 1009 + i``-style arithmetic that collides
  across streams, or anything dependent on which worker ran the item;
* workers are initialized once per process (rebuilding the population /
  simulator there, not pickling it per task); where the platform forks,
  they also start with every artifact-cache entry the parent holds.

Failures propagate cleanly: an exception raised by ``fn`` in a worker
re-raises in the parent with its original type; a worker dying outright
surfaces as :class:`WorkerCrashError`; Ctrl-C tears the pool down without
leaking children. When ``jobs`` resolves to 1 — or multiprocessing is
unusable on the platform — the same call runs serially in-process.
"""

from __future__ import annotations

import functools
import hashlib
import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import SimulationError


class WorkerCrashError(SimulationError):
    """A pool worker died without reporting a Python exception."""


def default_jobs() -> int:
    """The machine's core count (the CLI's ``--jobs`` default)."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a jobs request: None/0 mean all cores, negatives are
    rejected, anything else passes through."""
    if jobs is None or jobs == 0:
        return default_jobs()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
    return jobs


def derive_seed(namespace: str, *components: Any, bits: int = 63) -> int:
    """A stable per-item seed: SHA-256 over the namespace and components.

    Unlike ``seed * 1009 + i`` arithmetic, streams derived for different
    namespaces or indices never collide or correlate, and the value is
    identical across processes, platforms and Python versions (no
    ``hash()`` randomization).
    """
    h = hashlib.sha256(namespace.encode("utf-8"))
    for component in components:
        if isinstance(component, bytes):
            data = b"b" + component
        elif isinstance(component, str):
            data = b"s" + component.encode("utf-8")
        elif isinstance(component, bool):
            data = b"B" + bytes([component])
        elif isinstance(component, int):
            data = b"i" + str(component).encode("ascii")
        elif isinstance(component, float):
            data = b"f" + repr(component).encode("ascii")
        elif component is None:
            data = b"n"
        else:
            raise TypeError(
                f"derive_seed components must be scalars, got {type(component).__name__}"
            )
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
    return int.from_bytes(h.digest(), "big") >> (256 - bits)


def run_metered(fn: Callable[[Any], Any], item: Any) -> Tuple[Any, Dict[str, Any]]:
    """Run one work item inside a fresh metrics scope.

    Returns ``(fn(item), snapshot)`` where the snapshot holds exactly the
    metrics the item recorded — plus this item's artifact-cache hit/miss
    deltas as ``runtime.artifacts.{hits,misses}{cache=...}`` counters.
    Because :func:`repro.obs.scoped` isolates the item whether or not the
    process had metrics enabled (workers fork-inherit the parent's
    registry state), a serial loop and a pool worker capture identical
    per-item deltas, which is what makes merging deterministic.
    """
    from repro.runtime import artifacts

    before = artifacts.stats()
    with obs.scoped() as reg:
        result = fn(item)
    after = artifacts.stats()
    for name, stats in after.items():
        prior = before.get(name, {})
        hits = stats.get("hits", 0) - prior.get("hits", 0)
        misses = stats.get("misses", 0) - prior.get("misses", 0)
        if hits:
            reg.inc("runtime.artifacts.hits", hits, (("cache", name),))
        if misses:
            reg.inc("runtime.artifacts.misses", misses, (("cache", name),))
    return result, reg.snapshot()


def _metered_call(fn: Callable[[Any], Any], item: Any) -> Tuple[Any, Dict[str, Any]]:
    """Module-level (hence picklable via ``functools.partial``) wrapper
    pools map instead of ``fn`` when ``metered=True``."""
    return run_metered(fn, item)


def _merge_metered(pairs: List[Tuple[Any, Dict[str, Any]]]) -> List[Any]:
    """Fold per-item snapshots into the parent registry **in item order**
    (counter merges commute, but histogram reservoirs are order-sensitive)
    and return the bare results."""
    results = []
    for result, snap in pairs:
        obs.merge(snap)
        results.append(result)
    return results


def _pool_context():
    """Prefer fork (cheap worker start, inherits warm caches); fall back
    to the platform default where fork does not exist."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: Optional[int] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Sequence[Any] = (),
    chunksize: Optional[int] = None,
    metered: bool = False,
) -> List[Any]:
    """Map ``fn`` over ``items`` on ``jobs`` processes, results ordered.

    ``fn``, ``initializer`` and every item must be picklable module-level
    objects. ``chunksize`` defaults to a round-robin-ish split that keeps
    every worker busy without starving the tail.

    With ``metered=True`` each item runs through :func:`run_metered`; the
    per-item metric snapshots ship back with the results and are merged
    into this process's registry in item order, so the merged counters are
    identical for every ``jobs`` value.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    jobs = min(jobs, max(1, len(items)))
    mapped_fn = functools.partial(_metered_call, fn) if metered else fn
    if jobs <= 1 or len(items) <= 1:
        out = _serial_map(mapped_fn, items, initializer, initargs)
        return _merge_metered(out) if metered else out

    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        context = _pool_context()
    except (ImportError, OSError, ValueError):
        out = _serial_map(mapped_fn, items, initializer, initargs)
        return _merge_metered(out) if metered else out

    if chunksize is None:
        chunksize = max(1, len(items) // (jobs * 4))
    executor = ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=context,
        initializer=initializer,
        initargs=tuple(initargs),
    )
    try:
        out = list(executor.map(mapped_fn, items, chunksize=chunksize))
        return _merge_metered(out) if metered else out
    except BrokenProcessPool as exc:
        raise WorkerCrashError(
            f"a worker process died while mapping {getattr(fn, '__name__', fn)!r} "
            f"over {len(items)} items"
        ) from exc
    except KeyboardInterrupt:
        # Kill outstanding work before re-raising so Ctrl-C never leaks
        # orphan workers mid-experiment.
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def _serial_map(
    fn: Callable[[Any], Any],
    items: List[Any],
    initializer: Optional[Callable[..., None]],
    initargs: Sequence[Any],
) -> List[Any]:
    """In-process fallback with identical semantics (the initializer runs
    once)."""
    if initializer is not None:
        initializer(*initargs)
    return [fn(item) for item in items]
