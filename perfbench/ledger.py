"""Per-layer self-time ledger for the traced benchmark run.

The benchmark measures the program from outside: it wraps public
callables of each layer (``ICAPopulation.path_for_rank``,
``AMQFilter.contains_batch``, ``run_handshake``, ...) with timing
wrappers, runs a workload, and removes the wrappers again.  Nothing under
``src/`` is edited.

A layer's *self time* is the duration of its wrapped calls minus the
duration of wrapped calls nested directly inside them, so self times of
all wrapped spans never overlap and sum to the time the spans cover.
The rest of the traced wall time is reported as ``unattributed_s``.

Worker processes (``parallel_map`` forks) inherit the wrappers.  Each
worker ships its per-cell ledger back through the ``repro.obs`` metered
merge; the parent folds worker time into the ledger at weight ``1/J``
(``J`` = pool workers), taking it out of ``runtime.parallel_map``'s self
time, so the ledger still reconciles with the parent's wall clock.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import sys
import time
import weakref
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Layers whose self time is folded into ``unattributed_s``: spans that
#: exist only to carry worker ledgers or to time the tracer's own hooks.
INTERNAL_LAYERS = ("_cell", "_hooks")

#: Counter names under which a worker ships its ledger through repro.obs.
_SHIP_SELF = "perfbench.self_ns"
_SHIP_TOTAL = "perfbench.total_ns"
_SHIP_CALLS = "perfbench.calls"
_SHIP_COUNT = "perfbench.count"


class Recorder:
    """Span stack plus per-layer totals: self seconds, inclusive
    seconds, call counts, and free-form integer counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Open spans: [layer, start, time covered by direct children].
        self._stack: List[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child
        self.total_s[layer] += duration
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration


class Truth:
    """Ground truth for ``amq.hit_precision``: which items a wire image
    was built from.  Producers register ``payload -> item set``; the
    codec hook tags each filter parsed from a registered payload; the
    probe hook then counts hits that are real members."""

    def __init__(self, capacity: int = 256) -> None:
        self._capacity = capacity
        self._by_payload: "OrderedDict[bytes, frozenset]" = OrderedDict()
        self._by_filter: Dict[int, Tuple[weakref.ref, frozenset]] = {}

    def register(self, payload: bytes, items: Callable[[], Sequence[bytes]]) -> None:
        if payload in self._by_payload:
            self._by_payload.move_to_end(payload)
            return
        self._by_payload[payload] = frozenset(bytes(i) for i in items())
        if len(self._by_payload) > self._capacity:
            self._by_payload.popitem(last=False)

    def tag(self, payload: bytes, filt: Any) -> None:
        truth = self._by_payload.get(bytes(payload))
        if truth is None:
            return
        key = id(filt)
        ref = weakref.ref(filt, lambda _ref, k=key: self._by_filter.pop(k, None))
        self._by_filter[key] = (ref, truth)

    def lookup(self, filt: Any) -> Optional[frozenset]:
        entry = self._by_filter.get(id(filt))
        if entry is None or entry[0]() is not filt:
            return None
        return entry[1]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:Class.attr`` or ``module:function``."""

    layer: str
    path: str
    hook: Optional[str] = None


#: Every wrapped callable, by layer.  Functions are replaced in every
#: ``repro`` module that imported them by name; methods on their class.
TARGETS: Tuple[Target, ...] = (
    Target("pki.population_build", "repro.webmodel.population:ICAPopulation.__init__"),
    Target("webmodel.population.path_for_rank", "repro.webmodel.population:ICAPopulation.path_for_rank"),
    Target("webmodel.population.hot_scan", "repro.webmodel.population:ICAPopulation.hot_ica_certificates"),
    Target("webmodel.cohortrng.draw", "repro.webmodel.cohortrng:block_counters"),
    Target("webmodel.cohortrng.draw", "repro.webmodel.cohortrng:uniforms"),
    Target("webmodel.cohortrng.draw", "repro.webmodel.cohortrng:zipf_ranks"),
    Target("webmodel.cohortrng.draw", "repro.webmodel.cohortrng:lognormal_rtt"),
    Target("webmodel.cohort.init", "repro.webmodel.cohort:CohortEngine.__init__"),
    Target("webmodel.cohort.block", "repro.webmodel.cohort:CohortEngine._run_block"),
    Target("webmodel.cohort.replay", "repro.webmodel.cohort:CohortEngine._replay_user"),
    Target("webmodel.cohort.reduce", "repro.webmodel.cohort:finalize_cohort"),
    Target("core.suppressor_init", "repro.core.suppression:ClientSuppressor.__init__"),
    Target("core.extension_payload", "repro.core.suppression:ClientSuppressor.extension_payload", "client_payload"),
    Target("core.cache.add_many", "repro.core.cache:ICACache.add_many"),
    Target("amq.build", "repro.amq.base:AMQFilter.build_from_fingerprints"),
    Target("amq.build", "repro.amq.xor:XorFilter.build_from_fingerprints"),
    Target("amq.codec.parse", "repro.amq.serialization:deserialize_filter", "parse"),
    Target("amq.probe", "repro.amq.base:AMQFilter.contains_batch", "probe"),
    Target("tls.handshake", "repro.tls.session:run_handshake"),
    Target("tls.client_hello", "repro.tls.client:TLSClient.create_client_hello"),
    Target("tls.server_flight", "repro.tls.server:TLSServer.process_client_hello"),
    Target("tls.client_verify", "repro.tls.client:TLSClient.process_server_flight"),
    Target("pki.world_build", "repro.webmodel.churn:ChurnWorld.__init__"),
    Target("pki.world_advance", "repro.webmodel.churn:ChurnWorld.advance"),
    Target("webmodel.churn.state_init", "repro.webmodel.churn_columnar:ChurnCohortState.__init__"),
    Target("webmodel.churn.epoch", "repro.webmodel.churn_columnar:ChurnCohortEngine.run_epoch"),
    Target("webmodel.churn.capture", "repro.webmodel.churn_columnar:capture_wire_image", "capture"),
    Target("webmodel.churn.capture", "repro.webmodel.churn_columnar:ChurnCohortState._refresh_generation"),
    Target("webmodel.churn.probe", "repro.webmodel.churn_columnar:probe_image"),
    Target("webmodel.churn.learn", "repro.webmodel.churn_columnar:ChurnCohortState.finish_epoch"),
    Target("amq.delta.publish", "repro.amq.delta:DeltaPublisher.publish"),
    Target("amq.delta.update", "repro.amq.delta:DeltaPublisher.update_since"),
    Target("amq.delta.apply", "repro.amq.delta:DeltaApplier.apply"),
    Target("amq.delta.apply", "repro.amq.delta:DeltaApplier.image", "applier_image"),
    Target("amq.delta.apply", "repro.amq.delta:deserialize_delta", "delta_message"),
    Target("runtime.parallel_map", "repro.runtime.parallel:parallel_map", "parallel_map"),
    Target("_cell", "repro.experiments.churn:_run_cell", "ship"),
)

#: Layers whose self time is reported as ``<layer>_s``.
TIMED_LAYERS: Tuple[str, ...] = tuple(
    OrderedDict.fromkeys(t.layer for t in TARGETS if t.layer not in INTERNAL_LAYERS)
)


def _resolve(path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw attribute)`` for a target path."""
    module_name, _, qual = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Installs the timing wrappers; :meth:`uninstall` restores every
    replaced attribute to the original object."""

    def __init__(self, recorder: Optional[Recorder] = None) -> None:
        self.recorder = recorder or Recorder()
        self.truth = Truth()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- hooks: run after the wrapped call, timed under ``_hooks`` -----------

    def _hook(self, name: str, args: tuple, kwargs: dict, result: Any) -> None:
        counts = self.recorder.counts
        if name == "client_payload":
            cache = args[0].cache
            self.truth.register(result, cache.fingerprints)
        elif name == "capture":
            fingerprints = args[1] if len(args) > 1 else kwargs["fingerprints"]
            self.truth.register(result, lambda: fingerprints)
        elif name == "applier_image":
            applier = args[0]
            self.truth.register(result, lambda: applier.items)
        elif name == "parse":
            self.truth.tag(args[0] if args else kwargs["data"], result)
        elif name == "probe":
            filt, items = args[0], args[1] if len(args) > 1 else kwargs["items"]
            counts["amq.probe_items"] += len(items)
            truth = self.truth.lookup(filt)
            if truth is not None:
                hits = [item for item, hit in zip(items, result) if hit]
                counts["amq.hits"] += len(hits)
                counts["amq.true_hits"] += sum(1 for item in hits if bytes(item) in truth)
        elif name == "delta_message":
            from repro.amq.delta import FilterSnapshot

            counts["amq.delta.updates"] += 1
            counts["amq.delta.snapshots"] += int(isinstance(result, FilterSnapshot))
        elif name == "parallel_map":
            from repro.runtime.parallel import resolve_jobs

            items = args[1] if len(args) > 1 else kwargs["items"]
            workers = min(resolve_jobs(kwargs.get("jobs")), max(1, len(items)))
            if workers > 1 and len(items) > 1:
                counts["runtime.workers"] = max(counts["runtime.workers"], workers)
                counts["runtime.ship_bytes"] += len(pickle.dumps(list(items)))
                counts["runtime.ship_bytes"] += len(pickle.dumps(result))

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        rec = self.recorder
        hook = target.hook
        layer = target.layer

        if hook == "ship":
            return self._wrap_shipping(fn, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
            if hook is not None:
                rec.enter("_hooks")
                try:
                    self._hook(hook, args, kwargs, result)
                finally:
                    rec.exit()
            return result

        return wrapper

    def _wrap_shipping(self, fn: Callable, layer: str) -> Callable:
        """A work-item wrapper: in a forked worker it records the item's
        ledger from scratch and ships it through the active repro.obs
        registry (the metered merge carries it to the parent)."""
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == rec.pid:
                rec.enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.exit()
            from repro import obs
            from repro.runtime import artifacts

            rec.reset()
            before = artifacts.stats()
            rec.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
            reg = obs.registry()
            if reg is not None:
                for name, value in rec.self_s.items():
                    reg.inc(_SHIP_SELF, int(value * 1e9), (("layer", name),))
                for name, value in rec.total_s.items():
                    reg.inc(_SHIP_TOTAL, int(value * 1e9), (("layer", name),))
                for name, value in rec.calls.items():
                    reg.inc(_SHIP_CALLS, value, (("layer", name),))
                for name, value in rec.counts.items():
                    reg.inc(_SHIP_COUNT, value, (("key", name),))
                for name, stats in artifacts.stats().items():
                    prior = before.get(name, {})
                    for field in ("hits", "misses"):
                        delta = stats.get(field, 0) - prior.get(field, 0)
                        if delta:
                            reg.inc(_SHIP_COUNT, delta, (("key", f"artifacts.{name}.{field}"),))
            rec.reset()
            return result

        return wrapper

    def install(self) -> "Tracer":
        for target in TARGETS:
            owner, attr, raw = _resolve(target.path)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._replace(owner, attr, raw, wrapped)
        return self

    def _replace(self, owner: Any, attr: str, raw: Any, wrapped: Any) -> None:
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        # A module-level function: rebind every ``from x import f`` copy.
        for name, module in list(sys.modules.items()):
            if module is owner or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._undo.append((module, key, raw))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()


def absorb_workers(recorder: Recorder, registry: Any) -> Dict[str, float]:
    """Fold ledgers shipped by pool workers into ``recorder``.

    Worker self time enters the ledger at weight ``1/J`` and is taken
    out of ``runtime.parallel_map``'s self time, which keeps the sum of
    self times equal to the parent's covered wall time.  Returns the raw
    worker totals (busy seconds, per-layer self seconds)."""
    if registry is None:
        return {"busy_s": 0.0}
    workers = recorder.counts.get("runtime.workers", 0)
    shipped_self = {
        dict(labels)["layer"]: ns / 1e9
        for labels, ns in registry.counters_with_name(_SHIP_SELF).items()
    }
    busy = sum(shipped_self.values())
    if workers > 1 and shipped_self:
        for layer, seconds in shipped_self.items():
            recorder.self_s[layer] += seconds / workers
        recorder.self_s["runtime.parallel_map"] -= busy / workers
    for labels, calls in registry.counters_with_name(_SHIP_CALLS).items():
        recorder.calls[dict(labels)["layer"]] += calls
    for labels, value in registry.counters_with_name(_SHIP_COUNT).items():
        recorder.counts[dict(labels)["key"]] += value
    return {"busy_s": busy}


def reconcile(recorder: Recorder, wall_s: float) -> Dict[str, float]:
    """Per-layer self seconds plus ``unattributed_s``; by construction
    ``sum(layers) + unattributed_s == wall_s``."""
    layers = {layer: recorder.self_s.get(layer, 0.0) for layer in TIMED_LAYERS}
    unattributed = wall_s - sum(layers.values())
    return {"layers": layers, "unattributed_s": unattributed}
