"""Filter capacity/FPP planning against the ClientHello budget (§5.2).

The paper's sizing argument: a ClientHello must stay within the peer's
initial congestion window (10 MSS ~ 14.6 KB), and with a PQ KEM key share
the message base already costs ~900 bytes, leaving "~550 bytes" for the
filter. ``plan_filter`` turns (ICA count, FPP, budget) into concrete,
wire-canonical :class:`~repro.amq.base.FilterParams` for a chosen
structure, refusing plans that cannot fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.amq import (
    AMQFilter,
    FilterParams,
    canonical_params,
    max_capacity_within,
    size_bytes_for,
)
from repro.amq.serialization import build_filter, serialized_overhead_bytes
from repro.core.extension import EXTENSION_FRAMING_BYTES
from repro.errors import ConfigurationError
from repro.pki.algorithms import get_kem_algorithm

#: The paper's §5.2 figure for space left in a PQ ClientHello.
DEFAULT_FILTER_BUDGET_BYTES = 550

#: Measured base size of our ClientHello (handshake header through
#: extensions) excluding the KEM public key, the SNI hostname bytes and
#: the filter extension. Kept as a constant so planning needs no TLS
#: round trip; asserted against the real encoder in the test suite.
_CLIENTHELLO_BASE_WITHOUT_KEY_AND_NAME = 153


def clienthello_base_bytes(kem_name: str, hostname: str = "example.com") -> int:
    """ClientHello size (handshake layer) before the filter extension."""
    kem = get_kem_algorithm(kem_name)
    return (
        _CLIENTHELLO_BASE_WITHOUT_KEY_AND_NAME
        + len(hostname)
        + kem.public_key_bytes
    )


def clienthello_filter_budget(kem_name: str, initcwnd_bytes: int = 14600) -> int:
    """Bytes available for the filter extension, following §5.2.

    With a PQ KEM the paper lands on ~550 bytes under the default 10-MSS
    window; we scale that figure linearly with a non-default window (the
    initcwnd discussion in §5.2). With X25519 the whole remaining window
    minus a 2 KB reserve is available (~12 KB, matching the paper).
    """
    kem = get_kem_algorithm(kem_name)
    if kem.post_quantum:
        return max(0, round(DEFAULT_FILTER_BUDGET_BYTES * initcwnd_bytes / 14600))
    return max(0, initcwnd_bytes - clienthello_base_bytes(kem_name) - 2000)


@dataclass(frozen=True)
class FilterPlan:
    """A validated filter configuration that fits its byte budget."""

    filter_kind: str
    params: FilterParams
    budget_bytes: int
    predicted_payload_bytes: int

    @property
    def predicted_extension_bytes(self) -> int:
        """Payload + AMQ wire header + TLS extension framing."""
        return (
            self.predicted_payload_bytes
            + serialized_overhead_bytes()
            + EXTENSION_FRAMING_BYTES
        )

    def build(self, items: Iterable[bytes] = ()) -> AMQFilter:
        """Instantiate the filter and insert ``items``.

        Builds go through the memoized
        :func:`~repro.amq.serialization.build_image`: every simulator
        construction over the same hot-ICA set rehydrates one serialized
        image instead of re-inserting item by item. Each call still
        returns a fresh, independently mutable filter.
        """
        return build_filter(self.filter_kind, self.params, items)


def plan_filter(
    num_icas: int,
    filter_kind: str = "cuckoo",
    fpp: float = 1e-3,
    load_factor: float = 0.9,
    budget_bytes: Optional[int] = DEFAULT_FILTER_BUDGET_BYTES,
    seed: int = 0,
    headroom: float = 1.0,
) -> FilterPlan:
    """Plan a filter for ``num_icas`` intermediates.

    ``headroom`` scales provisioned capacity above the current ICA count
    so dynamic insertions don't immediately overflow (e.g. 1.2 leaves 20%
    slack). Raises ConfigurationError when the result exceeds
    ``budget_bytes`` (pass None to skip the budget check).
    """
    if num_icas < 1:
        raise ConfigurationError(f"num_icas must be >= 1, got {num_icas}")
    if headroom < 1.0:
        raise ConfigurationError(f"headroom must be >= 1.0, got {headroom}")
    capacity = max(1, round(num_icas * headroom))
    params = canonical_params(
        FilterParams(capacity=capacity, fpp=fpp, load_factor=load_factor, seed=seed)
    )
    predicted = size_bytes_for(filter_kind, capacity, params.fpp, params.load_factor)
    if budget_bytes is not None and predicted > budget_bytes:
        achievable = max_capacity_within(
            filter_kind, budget_bytes, params.fpp, params.load_factor
        )
        raise ConfigurationError(
            f"{filter_kind} filter for {capacity} ICAs at fpp={fpp:g} needs "
            f"{predicted} bytes, exceeding the {budget_bytes}-byte budget "
            f"(max capacity within budget: {achievable}); lower the capacity, "
            f"raise the fpp, or choose another structure"
        )
    return FilterPlan(
        filter_kind=filter_kind,
        params=params,
        budget_bytes=budget_bytes if budget_bytes is not None else predicted,
        predicted_payload_bytes=predicted,
    )
