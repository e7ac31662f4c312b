"""Integration tests for the Section 3.1 one-way queue law.

With fixed windows and one-way traffic the paper gives a closed form:

    q = MAX[0, wnd1 + wnd2 + ... - 2P]

(the steady queue alternates between q and q+1 as packets arrive and
depart).  This is the regime where ACKs are perfect clocks — the
baseline that two-way traffic breaks.
"""

import pytest

from repro.engine import Simulator
from repro.metrics import PortMonitor
from repro.net import build_dumbbell
from repro.tcp import make_connection
from repro.units import pipe_size


def _steady_queue(windows, propagation, duration=200.0):
    """Run one-way fixed windows; return the late-time queue range."""
    sim = Simulator()
    net = build_dumbbell(sim, bottleneck_propagation=propagation,
                         buffer_packets=None)
    monitor = PortMonitor(net.port("sw1", "sw2"))
    for index, window in enumerate(windows, start=1):
        make_connection(
            sim, net, index, "host1", "host2", "fixed", {"window": window},
            start_time=0.3 * index)
    sim.run(until=duration)
    lo = monitor.lengths.min_in(duration * 0.7, duration)
    hi = monitor.lengths.max_in(duration * 0.7, duration)
    return lo, hi


class TestQueueLaw:
    @pytest.mark.parametrize("windows", [(5,), (10,), (8, 7), (5, 4, 3)])
    def test_small_pipe_queue_is_total_window(self, windows):
        """tau=0.01s: 2P = 0.25, so q ≈ sum(wnd) - 2P ≈ sum(wnd)."""
        lo, hi = _steady_queue(windows, propagation=0.01)
        total = sum(windows)
        expected = total - 2 * pipe_size(50_000, 0.01, 500)
        # Queue alternates near the law's value (one packet is always in
        # transmission, hence the -1 tolerance).
        assert hi == pytest.approx(expected, abs=1.5)
        assert lo >= expected - 3

    def test_large_pipe_subtracts_2p(self):
        """tau=1s: 2P = 25 packets come off the queue."""
        lo, hi = _steady_queue((30,), propagation=1.0)
        expected = 30 - 2 * pipe_size(50_000, 1.0, 500)  # = 5
        assert hi == pytest.approx(expected, abs=1.5)

    def test_window_below_pipe_leaves_queue_empty(self):
        """sum(wnd) < 2P: the law says q = 0 (pipe-limited)."""
        lo, hi = _steady_queue((10,), propagation=1.0)  # 2P = 25 > 10
        assert hi <= 1.0

    def test_underfilled_pipe_underutilizes_link(self):
        sim = Simulator()
        net = build_dumbbell(sim, bottleneck_propagation=1.0,
                             buffer_packets=None)
        from repro.metrics import PortMonitor

        monitor = PortMonitor(net.port("sw1", "sw2"))
        make_connection(sim, net, 1, "host1", "host2", "fixed", {"window": 10})
        sim.run(until=200.0)
        # W=10 against a 2P=25 pipe: utilization ~ W/2P.
        util = monitor.utilization(100.0, 200.0)
        assert util == pytest.approx(10 / 25, abs=0.07)


class TestThroughputLaw:
    """The window/bandwidth-delay throughput law: util = min(1, W / 2P)."""

    @pytest.mark.parametrize("window", [5, 15, 25, 35])
    def test_one_way_fixed_window_throughput(self, window):
        sim = Simulator()
        net = build_dumbbell(sim, bottleneck_propagation=1.0,
                             buffer_packets=None)
        from repro.metrics import PortMonitor

        monitor = PortMonitor(net.port("sw1", "sw2"))
        make_connection(sim, net, 1, "host1", "host2", "fixed",
                        {"window": window})
        sim.run(until=250.0)
        two_p = 2 * pipe_size(50_000, 1.0, 500)  # 25 packets
        expected = min(1.0, window / two_p)
        measured = monitor.utilization(100.0, 250.0)
        assert measured == pytest.approx(expected, abs=0.08)
