"""Tests for the clock, event loop and link."""

import pytest

from repro.errors import SimulationError
from repro.netsim.clock import SimClock
from repro.netsim.events import EventLoop
from repro.netsim.link import Link


class TestClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5)
        assert clock.now == 1.5

    def test_no_backwards(self):
        clock = SimClock(10)
        with pytest.raises(SimulationError):
            clock.advance(-1)
        with pytest.raises(SimulationError):
            clock.advance_to(5)


class TestEventLoop:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(3, lambda: order.append("c"))
        loop.schedule(1, lambda: order.append("a"))
        loop.schedule(2, lambda: order.append("b"))
        loop.run()
        assert order == ["a", "b", "c"]
        assert loop.clock.now == 3

    def test_fifo_tiebreak(self):
        loop = EventLoop()
        order = []
        for tag in "abc":
            loop.schedule(1.0, lambda t=tag: order.append(t))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_events_can_schedule_events(self):
        loop = EventLoop()
        hits = []

        def ping():
            hits.append(loop.clock.now)
            if len(hits) < 5:
                loop.schedule(1, ping)

        loop.schedule(0, ping)
        loop.run()
        assert hits == [0, 1, 2, 3, 4]

    def test_run_until(self):
        loop = EventLoop()
        hits = []
        for t in (1, 2, 3, 4):
            loop.schedule(t, lambda t=t: hits.append(t))
        loop.run(until=2.5)
        assert hits == [1, 2]
        assert loop.pending == 2

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventLoop().schedule(-1, lambda: None)

    def test_runaway_guard(self):
        loop = EventLoop()

        def forever():
            loop.schedule(0.001, forever)

        loop.schedule(0, forever)
        with pytest.raises(SimulationError):
            loop.run(max_events=1000)

    def test_processed_counter(self):
        loop = EventLoop()
        loop.schedule(1, lambda: None)
        loop.run()
        assert loop.processed == 1


class TestLink:
    def test_delivery_time(self):
        loop = EventLoop()
        link = Link(loop, rtt_s=0.1, bandwidth_bps=8_000_000)  # 1 MB/s
        done = []
        link.send(1_000_000, lambda: done.append(loop.clock.now))
        loop.run()
        assert done == [pytest.approx(0.05 + 1.0)]
        assert link.bytes_delivered == 1_000_000

    def test_lossless_by_default(self):
        loop = EventLoop()
        link = Link(loop, rtt_s=0.01)
        delivered = []
        for _ in range(50):
            link.send(100, lambda: delivered.append(1))
        loop.run()
        assert len(delivered) == 50
        assert link.bytes_delivered == link.bytes_sent == 5_000

    def test_invalid_parameters(self):
        loop = EventLoop()
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Link(loop, rtt_s=-1)
        with pytest.raises(ConfigurationError):
            Link(loop, bandwidth_bps=0)
