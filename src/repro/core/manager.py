"""Dynamic filter maintenance.

§4.2: "we assume that the filter supports dynamic updates (e.g.,
insertions/deletions) since creating a new filter for every TLS connection
or for every single-cert change would be computationally inefficient."

``FilterManager`` subscribes to an :class:`~repro.core.cache.ICACache` and
mirrors every add/remove into the live AMQ filter. When an insert
overflows the structure, the manager rebuilds at a larger capacity (a
rare, amortized event — counted so experiments can report it). Versioned
delta updates are applied on the distribution side, by
:class:`~repro.amq.delta.DeltaApplier`; the manager only follows the cache.
"""

from __future__ import annotations

from typing import List

from repro import obs
from repro.amq import AMQFilter, FilterParams, canonical_params
from repro.amq.serialization import filter_class_for_name
from repro.core.cache import ICACache
from repro.core.filter_config import FilterPlan
from repro.errors import FilterFullError
from repro.pki.certificate import Certificate


class FilterManager:
    """Keeps an AMQ filter in sync with an ICA cache."""

    def __init__(self, cache: ICACache, plan: FilterPlan) -> None:
        self._cache = cache
        self._plan = plan
        self._filter = plan.build(cache.fingerprints())
        self.inserts = 0
        self.deletes = 0
        self.rebuilds = 0
        #: Monotone mutation counter; consumers (e.g. the suppressor's
        #: payload memoization) use it to detect any filter change,
        #: including equal-count churn. Batch mutations advance it **per
        #: item**, never per call, so experiment counters (Table 2 /
        #: Fig. 5) stay comparable whichever path performed the update.
        self.version = 0
        cache.subscribe(
            on_add_batch=self._on_add_batch,
            on_remove_batch=self._on_remove_batch,
        )

    @property
    def filter(self) -> AMQFilter:
        return self._filter

    @property
    def plan(self) -> FilterPlan:
        return self._plan

    # -- cache listeners ------------------------------------------------------

    def _on_add_batch(self, certs: List[Certificate]) -> None:
        # Counters advance item-by-item: a 100-cert bulk load and 100
        # organic single adds report identical inserts/version totals.
        self.inserts += len(certs)
        self.version += len(certs)
        obs.inc("core.filter_manager.inserts", len(certs))
        try:
            self._filter.insert_batch([cert.fingerprint() for cert in certs])
        except FilterFullError:
            # The cache already holds every cert of the batch, so the
            # rebuild re-inserts the ones the failed batch left behind.
            self._rebuild()

    def _on_remove_batch(self, certs: List[Certificate]) -> None:
        # Same per-item accounting as inserts: an expiry sweep dropping N
        # certs and N scalar removes report identical deletes/version.
        self.deletes += len(certs)
        self.version += len(certs)
        obs.inc("core.filter_manager.deletes", len(certs))
        if self._filter.supports_deletion:
            self._filter.delete_batch([cert.fingerprint() for cert in certs])
        else:
            # Bloom baseline: deletion requires a rebuild (the exact
            # inefficiency §4.1 calls out — measured, not hidden). One
            # rebuild per batch, not per item: a revocation sweep costs a
            # single reconstruction however many certs it drops.
            self._rebuild()

    # -- maintenance -----------------------------------------------------------

    def _rebuild(self) -> None:
        self.rebuilds += 1
        self.version += 1
        obs.inc("core.filter_manager.rebuilds")
        with obs.span(
            "core.filter_manager.rebuild",
            (("backend", self._plan.filter_kind),),
        ):
            needed = max(len(self._cache), 1)
            new_capacity = max(
                self._plan.params.capacity, int(needed * 1.25) + 8
            )
            params = canonical_params(
                FilterParams(
                    capacity=new_capacity,
                    fpp=self._plan.params.fpp,
                    load_factor=self._plan.params.load_factor,
                    seed=self._plan.params.seed,
                )
            )
            cls = filter_class_for_name(self._plan.filter_kind)
            self._filter = cls.build_from_fingerprints(
                params, self._cache.fingerprints()
            )

    def consistent_with_cache(self) -> bool:
        """Every cached ICA must be present in the filter (the
        no-false-negative contract the suppression pipeline relies on)."""
        return all(self._filter.contains_batch(self._cache.fingerprints()))
