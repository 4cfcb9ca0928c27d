"""The paper's contribution: AMQ-filter-based ICA certificate suppression.

``repro.core`` wires the substrates together into the two pipelines of
Fig. 2:

* client side — an :class:`~repro.core.cache.ICACache` of known
  intermediates feeds a :class:`~repro.core.manager.FilterManager` that
  keeps a dynamically-updated AMQ filter in sync; the
  :class:`~repro.core.suppression.ClientSuppressor` serializes it into the
  ClientHello extension and completes suppressed verification paths from
  the cache;
* server side — the :class:`~repro.core.suppression.ServerSuppressor`
  deserializes the advertised filter and omits every ICA on its
  verification path that the filter reports as known.

:mod:`repro.core.filter_config` plans filter capacity/FPP against the
ClientHello byte budget of §5.2, and :mod:`repro.core.estimator`
implements the expected-handshake-time model of §4.2.
"""

from repro.core.cache import ICACache
from repro.core.filter_config import (
    FilterPlan,
    plan_filter,
    clienthello_base_bytes,
    clienthello_filter_budget,
    DEFAULT_FILTER_BUDGET_BYTES,
)
from repro.core.extension import (
    build_extension_payload,
    parse_extension_payload,
)
from repro.core.manager import FilterManager
from repro.core.suppression import ClientSuppressor, ServerSuppressor
from repro.core.adaptive import AdaptiveSuppressor, PeerHistory
from repro.core.estimator import (
    expected_duration_paper_model,
    expected_duration_refined,
    HandshakeTimeModel,
)

__all__ = [
    "ICACache",
    "FilterPlan",
    "plan_filter",
    "clienthello_base_bytes",
    "clienthello_filter_budget",
    "DEFAULT_FILTER_BUDGET_BYTES",
    "build_extension_payload",
    "parse_extension_payload",
    "FilterManager",
    "ClientSuppressor",
    "ServerSuppressor",
    "AdaptiveSuppressor",
    "PeerHistory",
    "expected_duration_paper_model",
    "expected_duration_refined",
    "HandshakeTimeModel",
]
