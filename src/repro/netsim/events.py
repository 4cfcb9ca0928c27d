"""Deterministic discrete-event loop.

A minimal future-event-list scheduler: callbacks run in timestamp order
with FIFO tie-breaking, and may schedule further events. Deliberately
synchronous and single-threaded — determinism is worth more to an
experiment harness than concurrency.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.netsim.clock import SimClock

Callback = Callable[[], None]


class EventLoop:
    """Future event list over a :class:`SimClock`."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock or SimClock()
        self._queue: List[Tuple[float, int, Callback]] = []
        self._seq = 0
        self._processed = 0

    def schedule(self, delay: float, callback: Callback) -> None:
        """Run ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        heapq.heappush(self._queue, (self.clock.now + delay, self._seq, callback))
        self._seq += 1

    def step(self) -> bool:
        """Run the earliest event; False when the queue is empty."""
        if not self._queue:
            return False
        when, _, callback = heapq.heappop(self._queue)
        self.clock.advance_to(when)
        callback()
        self._processed += 1
        return True

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Drain the queue (optionally stopping at time ``until``);
        returns the number of events processed."""
        ran = 0
        while self._queue and ran < max_events:
            when = self._queue[0][0]
            if until is not None and when > until:
                break
            self.step()
            ran += 1
        if ran >= max_events:
            raise SimulationError(f"event budget of {max_events} exhausted")
        if until is not None and self.clock.now < until and not self._queue:
            self.clock.advance_to(until)
        return ran

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def processed(self) -> int:
        return self._processed
