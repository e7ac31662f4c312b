"""Unit tests for repro.net.link and repro.net.port."""

import pytest

from repro.engine import Simulator
from repro.net import Link, OutputPort, Packet, PacketKind
from repro.net.node import Node


class SinkNode(Node):
    """Records arrivals with their times."""

    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.arrivals = []

    def handle_packet(self, packet):
        self.arrivals.append((self.sim.now, packet))


def _data(seq=0, size=500):
    return Packet(conn_id=1, kind=PacketKind.DATA, seq=seq, size=size)


def _setup(bandwidth=50_000.0, propagation=0.01, buffer_packets=5):
    sim = Simulator()
    sink = SinkNode(sim)
    link = Link(sim, "wire", propagation, destination=sink)
    port = OutputPort(sim, "port", bandwidth, link, buffer_packets)
    return sim, sink, link, port


class TestLink:
    def test_propagation_delay(self):
        sim, sink, link, _ = _setup(propagation=0.25)
        link.carry(_data())
        sim.run()
        assert sink.arrivals[0][0] == 0.25

    def test_in_flight_accounting(self):
        sim, sink, link, _ = _setup(propagation=1.0)
        link.carry(_data(seq=0))
        link.carry(_data(seq=1))
        assert link.in_flight == 2
        sim.run()
        assert link.in_flight == 0
        assert link.delivered == 2

    def test_negative_propagation_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "bad", -0.1, destination=SinkNode(sim))


class TestPortTiming:
    def test_transmission_time(self):
        # 500 bytes at 50 kbit/s = 80 ms.
        _, _, _, port = _setup()
        assert port.tx_time(_data(size=500)) == pytest.approx(0.08)

    def test_zero_size_transmits_instantly(self):
        _, _, _, port = _setup()
        assert port.tx_time(_data(size=0)) == 0.0

    def test_arrival_time_is_tx_plus_propagation(self):
        sim, sink, _, port = _setup(propagation=0.01)
        port.send(_data())
        sim.run()
        assert sink.arrivals[0][0] == pytest.approx(0.08 + 0.01)

    def test_back_to_back_serialization(self):
        sim, sink, _, port = _setup(propagation=0.0)
        port.send(_data(seq=0))
        port.send(_data(seq=1))
        port.send(_data(seq=2))
        sim.run()
        times = [t for t, _ in sink.arrivals]
        assert times == pytest.approx([0.08, 0.16, 0.24])

    def test_idle_port_bypasses_queue(self):
        sim, _, _, port = _setup()
        port.send(_data())
        assert len(port.queue) == 0
        assert port.busy

    def test_busy_port_queues(self):
        sim, _, _, port = _setup()
        port.send(_data(seq=0))
        port.send(_data(seq=1))
        assert len(port.queue) == 1


class TestPortDropTail:
    def test_buffer_plus_one_in_transmission(self):
        """A buffer of B holds B waiting packets plus 1 transmitting."""
        sim, sink, _, port = _setup(buffer_packets=2)
        results = [port.send(_data(seq=i)) for i in range(5)]
        assert results == [True, True, True, False, False]
        sim.run()
        assert [p.seq for _, p in sink.arrivals] == [0, 1, 2]

    def test_unbounded_buffer(self):
        sim, sink, _, port = _setup(buffer_packets=None)
        for i in range(50):
            assert port.send(_data(seq=i))
        sim.run()
        assert len(sink.arrivals) == 50


class TestPortAccounting:
    def test_busy_time_accumulates(self):
        sim, _, _, port = _setup()
        port.send(_data())
        port.send(_data())
        sim.run()
        assert port.busy_time == pytest.approx(0.16)
        assert port.transmissions == 2

    def test_departure_observer_fires_at_tx_start(self):
        sim, _, _, port = _setup()
        departures = []
        port.on_transmission(
            lambda record: departures.append((record[0], record[1].seq)))
        port.send(_data(seq=0))
        port.send(_data(seq=1))
        sim.run()
        assert departures == [(0.0, 0), (pytest.approx(0.08), 1)]

    def test_transmission_observer_reports_duration(self):
        sim, _, _, port = _setup()
        spans = []
        port.on_transmission(
            lambda record: spans.append((record[0], record[2])))
        port.send(_data())
        sim.run()
        assert spans == [(0.0, pytest.approx(0.08))]

    def test_invalid_bandwidth_rejected(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = Link(sim, "wire", 0.0, destination=sink)
        with pytest.raises(ValueError):
            OutputPort(sim, "p", 0.0, link, 5)

    def test_mixed_sizes_serialize_proportionally(self):
        sim, sink, _, port = _setup(propagation=0.0)
        port.send(_data(seq=0, size=500))  # 80 ms
        port.send(Packet(conn_id=1, kind=PacketKind.ACK, ack=1, size=50))  # 8 ms
        sim.run()
        times = [t for t, _ in sink.arrivals]
        assert times == pytest.approx([0.08, 0.088])
