"""Unit tests for repro.tcp.receiver."""

import pytest

from repro.errors import ProtocolError
from repro.tcp import TcpOptions, TcpReceiver
from tests.tcp.conftest import make_ack, make_data


def make_receiver(sim, host, **option_kwargs):
    options = TcpOptions(**option_kwargs)
    return TcpReceiver(sim, host, conn_id=1, destination="host1", options=options)


class TestInOrderDelivery:
    def test_ack_per_packet(self, sim, host):
        receiver = make_receiver(sim, host)
        receiver.deliver(make_data(1, 0))
        receiver.deliver(make_data(1, 1))
        assert [p.ack for p in host.ack_packets] == [1, 2]
        assert receiver.rcv_nxt == 2

    def test_ack_size_from_options(self, sim, host):
        receiver = make_receiver(sim, host, ack_packet_bytes=40)
        receiver.deliver(make_data(1, 0))
        assert host.ack_packets[0].size == 40

    def test_ack_destination(self, sim, host):
        receiver = make_receiver(sim, host)
        receiver.deliver(make_data(1, 0))
        assert host.ack_packets[0].dst == "host1"

    def test_rejects_ack_packets(self, sim, host):
        receiver = make_receiver(sim, host)
        with pytest.raises(ProtocolError):
            receiver.deliver(make_ack(1, 0))


class TestOutOfOrder:
    def test_gap_produces_duplicate_acks(self, sim, host):
        receiver = make_receiver(sim, host)
        receiver.deliver(make_data(1, 0))  # ack 1
        receiver.deliver(make_data(1, 2))  # dup ack 1
        receiver.deliver(make_data(1, 3))  # dup ack 1
        assert [p.ack for p in host.ack_packets] == [1, 1, 1]
        assert receiver.reassembly_queue == [2, 3]

    def test_hole_fill_drains_cache(self, sim, host):
        receiver = make_receiver(sim, host)
        receiver.deliver(make_data(1, 0))
        receiver.deliver(make_data(1, 2))
        receiver.deliver(make_data(1, 3))
        receiver.deliver(make_data(1, 1))  # fills the hole
        assert host.ack_packets[-1].ack == 4
        assert receiver.reassembly_queue == []

    def test_below_window_duplicate_reacked(self, sim, host):
        receiver = make_receiver(sim, host)
        receiver.deliver(make_data(1, 0))
        receiver.deliver(make_data(1, 0))  # duplicate of delivered data
        assert [p.ack for p in host.ack_packets] == [1, 1]
        assert receiver.duplicates_received == 1

    def test_counters(self, sim, host):
        receiver = make_receiver(sim, host)
        receiver.deliver(make_data(1, 0))
        receiver.deliver(make_data(1, 2))
        receiver.deliver(make_data(1, 0))
        assert receiver.packets_received == 3
        assert receiver.out_of_order_received == 1
        assert receiver.duplicates_received == 1
        assert receiver.acks_sent == 3


class TestDelayedAck:
    def test_first_packet_ack_withheld(self, sim, host):
        receiver = make_receiver(sim, host, delayed_ack=True)
        receiver.deliver(make_data(1, 0))
        assert host.ack_packets == []

    def test_second_packet_releases_combined_ack(self, sim, host):
        receiver = make_receiver(sim, host, delayed_ack=True)
        receiver.deliver(make_data(1, 0))
        receiver.deliver(make_data(1, 1))
        assert [p.ack for p in host.ack_packets] == [2]

    def test_timer_releases_withheld_ack(self, sim, host):
        receiver = make_receiver(sim, host, delayed_ack=True,
                                 delayed_ack_timeout=0.2)
        receiver.deliver(make_data(1, 0))
        sim.run(until=0.5)
        assert [p.ack for p in host.ack_packets] == [1]
        assert receiver.delayed_ack_fires == 1

    def test_out_of_order_acks_immediately_despite_delack(self, sim, host):
        receiver = make_receiver(sim, host, delayed_ack=True)
        receiver.deliver(make_data(1, 2))
        assert [p.ack for p in host.ack_packets] == [0]

    def test_timer_cancelled_by_second_packet(self, sim, host):
        receiver = make_receiver(sim, host, delayed_ack=True,
                                 delayed_ack_timeout=0.2)
        receiver.deliver(make_data(1, 0))
        receiver.deliver(make_data(1, 1))
        sim.run(until=1.0)
        # Exactly one ACK: the combined one; no timer fire afterwards.
        assert len(host.ack_packets) == 1
        assert receiver.delayed_ack_fires == 0

    def test_alternating_pairs(self, sim, host):
        receiver = make_receiver(sim, host, delayed_ack=True)
        for seq in range(6):
            receiver.deliver(make_data(1, seq))
        assert [p.ack for p in host.ack_packets] == [2, 4, 6]
