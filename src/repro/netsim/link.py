"""A point-to-point link for event-driven simulations.

Delivery time = propagation (RTT/2) + serialization (payload/bandwidth).
The link is lossless. Used by the packet-level flow oracle
(:mod:`repro.netsim.flows`); the closed-form flight model in
:mod:`repro.netsim.tcp` covers the paper's experiments directly.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.netsim.events import EventLoop


class Link:
    """Unidirectional lossless link with delay and bandwidth."""

    def __init__(
        self,
        loop: EventLoop,
        rtt_s: float = 0.04,
        bandwidth_bps: float = 100e6,
    ) -> None:
        if rtt_s < 0:
            raise ConfigurationError(f"negative RTT {rtt_s}")
        if bandwidth_bps <= 0:
            raise ConfigurationError(f"bandwidth must be positive, got {bandwidth_bps}")
        self._loop = loop
        self._one_way = rtt_s / 2
        self._bandwidth = bandwidth_bps
        self.bytes_sent = 0
        self.bytes_delivered = 0

    def delivery_delay(self, payload_bytes: int) -> float:
        return self._one_way + payload_bytes * 8 / self._bandwidth

    def send(self, payload_bytes: int, on_delivery: Callable[[], None]) -> None:
        """Schedule delivery of ``payload_bytes`` through the link."""
        self.bytes_sent += payload_bytes

        def deliver() -> None:
            self.bytes_delivered += payload_bytes
            on_delivery()

        self._loop.schedule(self.delivery_delay(payload_bytes), deliver)
