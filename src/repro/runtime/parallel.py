"""Deterministic process-pool fan-out for the experiment layer.

``parallel_imap`` runs a function over an item list on a forked process
pool and yields results in item order, so a sharded experiment produces
exactly the stream its serial loop would. Determinism is the contract:

* results come back ordered, whatever the completion order;
* per-item randomness must be derived with :func:`derive_seed` (a stable
  content hash over the experiment's seed and the item index), never from
  worker-local state, ``seed * 1009 + i``-style arithmetic that collides
  across streams, or anything dependent on which worker ran the item;
* the pool forks after ``fn`` is stored in a module global, so workers
  call the caller's own function object — a bound method with its engine
  and population, a closure, a partial — and start with every
  artifact-cache entry the parent holds; only items and results are
  pickled.

At most ``2 * jobs`` items are in flight, so a consumer that writes each
result as it arrives holds O(jobs) results, not O(items).

Failures propagate cleanly: an exception raised by ``fn`` in a worker
re-raises in the parent with its original type; a worker dying outright
surfaces as :class:`WorkerCrashError`; Ctrl-C, an exception or a consumer
that stops early tears the pool down without leaking children. When
``jobs`` resolves to 1, there is at most one item, or the platform cannot
fork, the same call runs serially in-process.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import os
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

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


#: The function of the pool being forked; workers inherit it.
_FN: Optional[Callable[[Any], Any]] = None


def _call(item: Any) -> Any:
    return _FN(item)


def _call_metered(item: Any) -> Tuple[Any, Dict[str, Any]]:
    return run_metered(_FN, item)


def _fork_context():
    """The fork start method, or None on a platform without one (a serial
    run there is the documented fallback; imported lazily, so serial runs
    never load :mod:`multiprocessing`)."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def parallel_imap(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: Optional[int] = None,
    metered: bool = False,
) -> Iterator[Any]:
    """Yield ``fn(item)`` for every item, in item order, computed on
    ``jobs`` forked processes.

    ``fn`` is never pickled; every item and result must be. With
    ``metered=True`` each item runs through :func:`run_metered` and its
    metric snapshot is merged into this process's registry as its result
    is yielded, in item order, so the merged counters are identical for
    every ``jobs`` value.
    """
    global _FN
    items = list(items)
    jobs = min(resolve_jobs(jobs), max(1, len(items)))
    context = _fork_context() if jobs > 1 else None
    if context is None:
        for item in items:
            if metered:
                result, snap = run_metered(fn, item)
                obs.merge(snap)
                yield result
            else:
                yield fn(item)
        return

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    _FN = fn  # every worker forks at the first submit and inherits it
    executor = ProcessPoolExecutor(max_workers=jobs, mp_context=context)
    task = _call_metered if metered else _call
    pending = iter(items)
    in_flight: collections.deque = collections.deque()
    try:
        for item in itertools.islice(pending, 2 * jobs):
            in_flight.append(executor.submit(task, item))
        while in_flight:
            result = in_flight.popleft().result()
            for item in itertools.islice(pending, 1):
                in_flight.append(executor.submit(task, item))
            if metered:
                result, snap = result
                obs.merge(snap)
            yield result
    except BrokenProcessPool as exc:
        raise WorkerCrashError(
            f"a worker process died while mapping {getattr(fn, '__name__', fn)!r} "
            f"over {len(items)} items"
        ) from exc
    except KeyboardInterrupt:
        # Kill the workers before re-raising, so Ctrl-C neither waits for
        # the items in flight nor leaks orphan workers mid-experiment.
        for process in list(executor._processes.values()):
            process.terminate()
        raise
    finally:
        _FN = None
        executor.shutdown(wait=True, cancel_futures=True)


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: Optional[int] = None,
    metered: bool = False,
) -> List[Any]:
    """:func:`parallel_imap` collected into a list."""
    return list(parallel_imap(fn, items, jobs=jobs, metered=metered))
