"""Discrete-event network simulator.

The paper's latency story is a transport story: PQ authentication data
overflows TCP's initial congestion window (10 MSS ~ 14.5 KB) and adds
round trips (§3). This subpackage provides the pieces that turn the TLS
substrate's byte counts into time: a slow-start flight model
(:mod:`repro.netsim.tcp`), a simple link model and a deterministic event
loop for full end-to-end simulations, plus summary statistics.
"""

from repro.netsim.clock import SimClock
from repro.netsim.events import EventLoop
from repro.netsim.tcp import (
    DEFAULT_MSS,
    DEFAULT_INITCWND_SEGMENTS,
    TCPConfig,
    flights_needed,
    handshake_duration_s,
    time_to_first_byte_s,
    transfer_time_s,
)
from repro.netsim.link import Link
from repro.netsim.quic import (
    QUICConfig,
    quic_extra_flights,
    quic_flights_needed,
    quic_handshake_duration_s,
)
from repro.netsim.metrics import summarize

__all__ = [
    "SimClock",
    "EventLoop",
    "DEFAULT_MSS",
    "DEFAULT_INITCWND_SEGMENTS",
    "TCPConfig",
    "flights_needed",
    "handshake_duration_s",
    "time_to_first_byte_s",
    "transfer_time_s",
    "Link",
    "QUICConfig",
    "quic_extra_flights",
    "quic_flights_needed",
    "quic_handshake_duration_s",
    "summarize",
]
