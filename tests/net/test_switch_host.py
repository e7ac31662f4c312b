"""Unit tests for repro.net.switch, repro.net.host and repro.net.node."""

import pytest

from repro.engine import Simulator
from repro.errors import ConfigurationError
from repro.net import Packet, PacketKind, build_dumbbell


class Collector:
    """Minimal PacketSink."""

    def __init__(self):
        self.packets = []

    def deliver(self, packet):
        self.packets.append(packet)


def _data(conn=1, seq=0):
    return Packet(conn_id=conn, kind=PacketKind.DATA, seq=seq, size=500)


class TestHostDemux:
    def test_delivers_to_registered_endpoint(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        sink = Collector()
        net.host("host2").register_endpoint(1, PacketKind.DATA, sink)
        net.host("host1").send(_data(), "host2")
        sim.run()
        assert len(sink.packets) == 1
        assert sink.packets[0].src == "host1"
        assert sink.packets[0].dst == "host2"

    def test_demux_by_connection(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        sink1, sink2 = Collector(), Collector()
        net.host("host2").register_endpoint(1, PacketKind.DATA, sink1)
        net.host("host2").register_endpoint(2, PacketKind.DATA, sink2)
        net.host("host1").send(_data(conn=1), "host2")
        net.host("host1").send(_data(conn=2), "host2")
        sim.run()
        assert len(sink1.packets) == 1
        assert len(sink2.packets) == 1

    def test_demux_by_kind(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        data_sink, ack_sink = Collector(), Collector()
        net.host("host2").register_endpoint(1, PacketKind.DATA, data_sink)
        net.host("host1").register_endpoint(1, PacketKind.ACK, ack_sink)
        net.host("host1").send(_data(), "host2")
        net.host("host2").send(
            Packet(conn_id=1, kind=PacketKind.ACK, ack=1, size=50), "host1")
        sim.run()
        assert len(data_sink.packets) == 1
        assert len(ack_sink.packets) == 1

    def test_unregistered_endpoint_raises(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        net.host("host1").send(_data(), "host2")
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        net.host("host2").register_endpoint(1, PacketKind.DATA, Collector())
        with pytest.raises(ConfigurationError):
            net.host("host2").register_endpoint(1, PacketKind.DATA, Collector())


class TestProcessingDelay:
    def test_delay_applied_before_delivery(self):
        sim = Simulator()
        net = build_dumbbell(sim, host_processing_delay=0.5)
        arrivals = []

        class TimedSink:
            def deliver(self, packet):
                arrivals.append(sim.now)

        net.host("host2").register_endpoint(1, PacketKind.DATA, TimedSink())
        net.host("host1").send(_data(), "host2")
        sim.run()
        # Wire time: host access (0.4ms + 0.1ms) + bottleneck (80ms + 10ms)
        # + access again, then +0.5s processing.
        assert len(arrivals) == 1
        assert arrivals[0] > 0.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        from repro.net import Host

        with pytest.raises(ConfigurationError):
            Host(sim, "h", processing_delay=-0.1)


class TestCountersAndObservers:
    def test_sent_received_counters(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        net.host("host2").register_endpoint(1, PacketKind.DATA, Collector())
        net.host("host1").send(_data(seq=0), "host2")
        net.host("host1").send(_data(seq=1), "host2")
        sim.run()
        assert net.host("host1").sent == 2
        assert net.host("host2").received == 2


class TestSwitchForwarding:
    def test_switch_counts_forwarded(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        net.host("host2").register_endpoint(1, PacketKind.DATA, Collector())
        net.host("host1").send(_data(), "host2")
        sim.run()
        assert net.switch("sw1").forwarded == 1
        assert net.switch("sw2").forwarded == 1

    def test_no_route_raises(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        with pytest.raises(ConfigurationError):
            net.switch("sw1").port_toward("nowhere")

    def test_no_route_raises_on_the_data_path(self):
        # The per-packet paths look the route up inline; an unroutable
        # destination must still surface as the same ConfigurationError.
        sim = Simulator()
        net = build_dumbbell(sim)
        with pytest.raises(ConfigurationError, match="no route to nowhere"):
            net.host("host1").send(_data(), "nowhere")
        stray = _data()
        stray.dst = "nowhere"
        with pytest.raises(ConfigurationError, match="no route to nowhere"):
            net.switch("sw1").handle_packet(stray)
        assert net.switch("sw1").forwarded == 0

    def test_route_via_unknown_neighbor_rejected(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        with pytest.raises(ConfigurationError):
            net.switch("sw1").add_route("host2", via="ghost")

    def test_duplicate_port_rejected(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        port = net.port("sw1", "sw2")
        with pytest.raises(ConfigurationError):
            net.switch("sw1").attach_port("sw2", port)
