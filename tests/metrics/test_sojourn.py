"""Unit tests for the sojourn (buffer-wait) side of repro.metrics.PortMonitor."""

import pytest

from repro.engine import Simulator
from repro.metrics import PortMonitor, effective_pipe_packets
from repro.net import Link, OutputPort, Packet, PacketKind
from repro.net.node import Node


class SinkNode(Node):
    def handle_packet(self, packet):
        pass


def _setup(bandwidth=50_000.0):
    sim = Simulator()
    sink = SinkNode(sim, "sink")
    link = Link(sim, "wire", 0.0, destination=sink)
    port = OutputPort(sim, "port", bandwidth, link, buffer_packets=None)
    monitor = PortMonitor(port)
    return sim, port, monitor


def _data(seq):
    return Packet(conn_id=1, kind=PacketKind.DATA, seq=seq, size=500)


def _ack(n):
    return Packet(conn_id=2, kind=PacketKind.ACK, ack=n, size=50)


class TestSojournMonitor:
    def test_bypass_packet_has_zero_wait(self):
        sim, port, monitor = _setup()
        port.send(_data(0))
        sim.run()
        assert len(monitor.samples) == 1
        assert monitor.samples[0].wait == 0.0

    def test_queued_packet_waits_one_tx_time(self):
        sim, port, monitor = _setup()
        port.send(_data(0))  # transmits immediately (80 ms)
        port.send(_data(1))  # waits for the first
        sim.run()
        waits = monitor.waits()
        assert waits[0] == 0.0
        assert waits[1] == pytest.approx(0.08)

    def test_kind_filtering(self):
        sim, port, monitor = _setup()
        port.send(_data(0))
        port.send(_ack(1))
        sim.run()
        assert len(monitor.waits(data_only=True)) == 1
        assert len(monitor.waits(data_only=False)) == 1
        assert len(monitor.waits()) == 2

    def test_ack_behind_data_waits_data_tx_time(self):
        sim, port, monitor = _setup()
        port.send(_data(0))
        port.send(_ack(1))
        sim.run()
        ack_waits = monitor.waits(data_only=False)
        assert ack_waits[0] == pytest.approx(0.08)

    def test_mean_wait_and_window(self):
        sim, port, monitor = _setup()
        for i in range(3):
            port.send(_data(i))
        sim.run()
        assert monitor.mean_wait() == pytest.approx((0.0 + 0.08 + 0.16) / 3)
        assert monitor.mean_wait(start=100.0) == 0.0  # empty window


class TestEffectivePipe:
    def test_no_ack_wait_is_physical_pipe(self):
        assert effective_pipe_packets(0.125, 0.0, 0.08) == 0.125

    def test_queued_acks_inflate_pipe(self):
        # 0.8 s mean ACK wait at 80 ms/packet adds 10 packets of pipe.
        assert effective_pipe_packets(0.125, 0.8, 0.08) == pytest.approx(10.125)

    def test_errors(self):
        with pytest.raises(ValueError):
            effective_pipe_packets(1.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            effective_pipe_packets(1.0, -0.1, 0.08)


class TestEffectivePipeEndToEnd:
    def test_two_way_acks_wait_one_way_acks_do_not(self):
        """Section 4.2: ACKs queue behind data only with two-way traffic."""
        from repro.metrics import TraceSet
        from repro.net import build_dumbbell
        from repro.tcp import make_connection

        # Two-way fixed windows: conn 2's ACKs share sw1->sw2 with conn
        # 1's data.
        sim = Simulator()
        net = build_dumbbell(sim, bottleneck_propagation=0.01,
                             buffer_packets=None)
        monitor = PortMonitor(net.port("sw1", "sw2"))
        make_connection(sim, net, 1, "host1", "host2", "fixed", {"window": 20})
        make_connection(sim, net, 2, "host2", "host1", "fixed", {"window": 15},
                        start_time=1.1)
        sim.run(until=120.0)
        two_way_ack_wait = monitor.mean_wait(data_only=False, start=60.0)
        assert two_way_ack_wait > 0.1

        # One-way: ACKs come back through an empty reverse queue.
        sim2 = Simulator()
        net2 = build_dumbbell(sim2, bottleneck_propagation=0.01,
                              buffer_packets=None)
        reverse = PortMonitor(net2.port("sw2", "sw1"))
        make_connection(sim2, net2, 1, "host1", "host2", "fixed", {"window": 20})
        sim2.run(until=120.0)
        one_way_ack_wait = reverse.mean_wait(data_only=False, start=60.0)
        assert one_way_ack_wait == pytest.approx(0.0, abs=1e-6)


class TestRandomDropEviction:
    def test_evicted_packets_do_not_leak_entry_stamps(self):
        """A Random Drop victim was enqueued but never departs; its entry
        stamp must go when it is evicted, not stay for the whole run —
        and once the monitor has folded its journal, nothing keeps the
        victim's ``Packet`` alive either."""
        import gc

        from repro.net.queues import ADMIT, EVICT
        from repro.scenarios import QueueSpec, build, paper

        config = paper.figure4(duration=60.0, warmup=10.0).with_updates(
            queue=QueueSpec("randomdrop"))
        built = build(config)
        port = built.net.port("sw1", "sw2")
        monitor = built.traces.sojourn("sw1->sw2")

        # The samples as the monitor computed them before it watched
        # drops: entry stamps kept forever, popped only on departure.
        entered: dict[int, float] = {}
        expected = []
        victims = set()

        def on_queue(record):
            kind, time, packet, _ = record
            if kind == ADMIT:
                entered[packet.uid] = time
            elif kind == EVICT:
                victims.add((id(packet), packet.uid))

        def on_transmission(record):
            time, packet, _ = record
            expected.append((time, time - entered.pop(packet.uid, time),
                             packet.is_data, packet.conn_id))

        port.queue.observe(on_queue)
        port.on_transmission(on_transmission)

        def victims_alive():
            # By identity: other runs' packets carry the same uids.
            return {(id(obj), obj.uid) for obj in gc.get_objects()
                    if type(obj) is Packet} & victims

        built.sim.run(until=config.duration)

        assert port.queue.evictions == len(victims) > 0
        assert victims_alive() == victims  # journalled, not yet folded
        assert monitor.samples == expected
        assert len(entered) > len(port.queue)  # the reference does leak
        # Leak-free: every victim left the byte count with its stamp, so
        # the buffer reads empty of bytes exactly when it is empty.
        waiting = sum(p.size for p in port.queue.snapshot())
        assert monitor.byte_lengths.last_value == waiting
        assert len(monitor.samples) == port.transmissions + int(port.busy)
        assert victims_alive() == set()
