"""Unified observability: one registry, spans, deterministic merging.

``repro.obs`` is a **leaf** module (stdlib only, importable from every
layer, including :mod:`repro.amq`) holding one module-global
:class:`~repro.obs.registry.MetricsRegistry` that is *off by default*.
Instrumented call sites follow one idiom::

    reg = obs.registry()
    if reg is not None:
        reg.inc("tls.handshake.attempts", 1)

so a disabled registry costs a global read and a ``None`` check — the
near-zero overhead budget ``tests/obs/test_disabled_overhead.py`` asserts.
Cold paths may use the :func:`inc`/:func:`set_gauge`/:func:`observe`
conveniences, which hide the check.

Spans time a block into a ``<name>.seconds`` histogram::

    with obs.span("tls.server.flight"):
        flight = server.process_client_hello(hello)

When disabled, :func:`span` returns a shared no-op context manager.

:func:`scoped` swaps in a fresh registry for a block and is the
worker-merge primitive: :func:`repro.runtime.parallel.run_metered` runs
one work item inside a scope, ships the scope's snapshot back with the
item's result, and the parent merges snapshots in item order — so serial
and parallel runs produce identical merged counters (see
``docs/architecture.md`` for what is and is not in the deterministic
set).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.obs.registry import (
    Histogram,
    Labels,
    MetricKey,
    MetricsRegistry,
    RESERVOIR_CAP,
)

__all__ = [
    "Histogram",
    "Labels",
    "MetricKey",
    "MetricsRegistry",
    "RESERVOIR_CAP",
    "disable",
    "enable",
    "enabled",
    "inc",
    "merge",
    "observe",
    "registry",
    "reset",
    "scoped",
    "set_gauge",
    "snapshot",
    "span",
]

#: The active registry; ``None`` means observability is off.
_REGISTRY: Optional[MetricsRegistry] = None


def registry() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when disabled. Hot paths hoist
    this once per call and branch on ``is not None``."""
    return _REGISTRY


def enabled() -> bool:
    return _REGISTRY is not None


def enable() -> MetricsRegistry:
    """Turn metrics on (idempotent); returns the active registry."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = MetricsRegistry()
    return _REGISTRY


def disable() -> None:
    """Turn metrics off and drop the registry."""
    global _REGISTRY
    _REGISTRY = None


def reset() -> None:
    """Clear the active registry's contents (no-op when disabled)."""
    if _REGISTRY is not None:
        _REGISTRY.clear()


# -- recording conveniences (cold paths; hot paths hoist registry()) ---------


def inc(name: str, value: int = 1, labels: Labels = ()) -> None:
    reg = _REGISTRY
    if reg is not None:
        reg.inc(name, value, labels)


def set_gauge(name: str, value: float, labels: Labels = ()) -> None:
    reg = _REGISTRY
    if reg is not None:
        reg.set_gauge(name, value, labels)


def observe(name: str, value: float, labels: Labels = ()) -> None:
    reg = _REGISTRY
    if reg is not None:
        reg.observe(name, value, labels)


# -- spans --------------------------------------------------------------------


class _NullSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """Times a block into the ``<name>.seconds`` histogram."""

    __slots__ = ("_reg", "_name", "_labels", "_start")

    def __init__(self, reg: MetricsRegistry, name: str, labels: Labels) -> None:
        self._reg = reg
        self._name = name
        self._labels = labels

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._reg.observe(
            self._name + ".seconds",
            time.perf_counter() - self._start,
            self._labels,
        )


def span(name: str, labels: Labels = ()):
    """Context manager timing a block into ``<name>.seconds``; a shared
    no-op object when metrics are disabled."""
    reg = _REGISTRY
    if reg is None:
        return _NULL_SPAN
    return _Span(reg, name, labels)


# -- snapshot / merge / scoping ------------------------------------------------


def snapshot() -> Dict[str, Any]:
    """Picklable copy of the active registry ({} when disabled)."""
    return _REGISTRY.snapshot() if _REGISTRY is not None else {}


def merge(snap: Dict[str, Any]) -> None:
    """Fold a snapshot into the active registry (no-op when disabled)."""
    if _REGISTRY is not None and snap:
        _REGISTRY.merge(snap)


@contextmanager
def scoped() -> Iterator[MetricsRegistry]:
    """Swap in a fresh registry for the duration of the block.

    Works whether or not metrics were enabled: instrumented code inside
    the block records into the scope's registry either way, which is how
    worker processes capture per-item deltas without depending on their
    own (inherited or absent) global state. The previous registry — or
    disabled state — is restored on exit.
    """
    global _REGISTRY
    previous = _REGISTRY
    scope = MetricsRegistry()
    _REGISTRY = scope
    try:
        yield scope
    finally:
        _REGISTRY = previous
