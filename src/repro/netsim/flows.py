"""Packet-level TCP transfer simulation on the event loop.

The closed-form flight model (:mod:`repro.netsim.tcp`) is the workhorse of
every latency experiment; this module is its independent check: a
segment-by-segment sender with a congestion window, ACK clocking and
slow-start doubling, run on the discrete-event engine over a
:class:`~repro.netsim.link.Link` pair. The test suite asserts that both
models agree on round-trip counts across the whole payload range the
experiments use — so a bug in either shows up as a disagreement.

The sender model is deliberately classic Reno-style slow start with
cumulative ACKs per flight (one ACK batch per window, as delayed-ACK
implementations effectively behave for handshake-sized transfers) over
lossless links, as in every experiment, so there is no loss recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.tcp import TCPConfig


@dataclass
class TransferResult:
    """Outcome of one simulated transfer.

    ``last_byte_time_s`` is the receiver-side completion (what TTFB-style
    metrics care about); ``completion_time_s`` is the sender-side time of
    the final cumulative ACK, half an RTT later.
    """

    payload_bytes: int
    completion_time_s: float
    last_byte_time_s: float
    flights: int
    segments_sent: int


class TCPSender:
    """A slow-start sender delivering one payload over a link pair."""

    def __init__(
        self,
        loop: EventLoop,
        data_link: Link,
        ack_link: Link,
        payload_bytes: int,
        config: TCPConfig = TCPConfig(),
    ) -> None:
        if payload_bytes < 0:
            raise SimulationError(f"negative payload {payload_bytes}")
        self._loop = loop
        self._data_link = data_link
        self._ack_link = ack_link
        self._config = config
        self._payload = payload_bytes
        self._cwnd = config.initcwnd_bytes
        self._sent = 0
        self._acked = 0
        self._flights = 0
        self._segments = 0
        self._last_byte_time = 0.0
        self._done: Optional[TransferResult] = None

    # -- driving ------------------------------------------------------------

    def start(self) -> None:
        if self._payload == 0:
            now = self._loop.clock.now
            self._done = TransferResult(0, now, now, 0, 0)
            return
        self._send_window()

    @property
    def result(self) -> Optional[TransferResult]:
        return self._done

    # -- internals -----------------------------------------------------------

    def _send_window(self) -> None:
        """Transmit one congestion window's worth of segments."""
        window_end = min(self._payload, self._acked + self._cwnd)
        to_send = window_end - self._sent
        if to_send <= 0:
            return
        self._flights += 1
        flight_bytes = 0
        segments = 0
        while flight_bytes < to_send:
            seg = min(self._config.mss, to_send - flight_bytes)
            flight_bytes += seg
            segments += 1
        self._segments += segments
        self._sent += flight_bytes
        expected_ack = self._sent

        def on_delivery() -> None:
            if expected_ack >= self._payload:
                self._last_byte_time = self._loop.clock.now
            # Receiver ACKs the whole flight cumulatively.
            self._ack_link.send(64, lambda: self._on_ack(expected_ack))

        self._data_link.send(flight_bytes, on_delivery)

    def _on_ack(self, ack_bytes: int) -> None:
        if ack_bytes <= self._acked:
            return  # stale
        newly_acked = ack_bytes - self._acked
        self._acked = ack_bytes
        # Slow start: cwnd grows by the bytes acknowledged.
        self._cwnd += newly_acked
        if self._acked >= self._payload:
            self._done = TransferResult(
                payload_bytes=self._payload,
                completion_time_s=self._loop.clock.now,
                last_byte_time_s=self._last_byte_time,
                flights=self._flights,
                segments_sent=self._segments,
            )
            return
        self._send_window()


def simulate_transfer(
    payload_bytes: int,
    rtt_s: float = 0.04,
    bandwidth_bps: float = 1e9,
    config: TCPConfig = TCPConfig(),
) -> TransferResult:
    """Run one sender to completion and return its result."""
    loop = EventLoop()
    data_link = Link(loop, rtt_s=rtt_s, bandwidth_bps=bandwidth_bps)
    ack_link = Link(loop, rtt_s=rtt_s, bandwidth_bps=bandwidth_bps)
    sender = TCPSender(loop, data_link, ack_link, payload_bytes, config)
    sender.start()
    loop.run(max_events=100_000)
    if sender.result is None:
        raise SimulationError(
            f"transfer of {payload_bytes} bytes did not complete"
        )
    return sender.result
