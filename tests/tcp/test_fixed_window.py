"""Unit tests for the fixed-window strategy on the unified sender."""

import pytest

from repro.errors import ProtocolError
from repro.tcp import Sender, TcpOptions, create_control
from tests.tcp.conftest import make_ack, make_data


def make_sender(sim, host, window=5, **option_kwargs):
    options = TcpOptions(**option_kwargs)
    return Sender(sim, host, conn_id=1, destination="host2", options=options,
                  control=create_control("fixed", {"window": window}))


class TestStart:
    def test_emits_full_window(self, sim, host):
        sender = make_sender(sim, host, window=5)
        sender.start()
        assert [p.seq for p in host.data_packets] == [0, 1, 2, 3, 4]
        assert sender.packets_out == 5

    def test_double_start_rejected(self, sim, host):
        sender = make_sender(sim, host)
        sender.start()
        with pytest.raises(ProtocolError):
            sender.start()

    def test_window_below_one_rejected(self, sim, host):
        with pytest.raises(ProtocolError):
            make_sender(sim, host, window=0)


class TestSliding:
    def test_each_ack_releases_one_packet(self, sim, host):
        sender = make_sender(sim, host, window=3)
        sender.start()
        host.clear()
        sender.deliver(make_ack(1, 1))
        assert [p.seq for p in host.data_packets] == [3]
        assert sender.packets_out == 3

    def test_cumulative_ack_releases_many(self, sim, host):
        sender = make_sender(sim, host, window=4)
        sender.start()
        host.clear()
        sender.deliver(make_ack(1, 3))
        assert [p.seq for p in host.data_packets] == [4, 5, 6]

    def test_window_never_exceeded(self, sim, host):
        sender = make_sender(sim, host, window=4)
        sender.start()
        for ack in (1, 2, 3, 4):
            sender.deliver(make_ack(1, ack))
            assert sender.packets_out <= 4

    def test_duplicate_ack_releases_nothing(self, sim, host):
        sender = make_sender(sim, host, window=3)
        sender.start()
        sender.deliver(make_ack(1, 1))
        host.clear()
        sender.deliver(make_ack(1, 1))
        assert host.data_packets == []

    def test_stale_ack_ignored(self, sim, host):
        sender = make_sender(sim, host, window=3)
        sender.start()
        sender.deliver(make_ack(1, 2))
        host.clear()
        sender.deliver(make_ack(1, 1))
        assert host.data_packets == []
        assert sender.snd_una == 2


class TestValidation:
    def test_rejects_data_packets(self, sim, host):
        sender = make_sender(sim, host)
        with pytest.raises(ProtocolError):
            sender.deliver(make_data(1, 0))

    def test_ack_beyond_sent_rejected(self, sim, host):
        sender = make_sender(sim, host, window=2)
        sender.start()
        with pytest.raises(ProtocolError):
            sender.deliver(make_ack(1, 10))


class TestDiagnostics:
    def test_stalled_flag(self, sim, host):
        sender = make_sender(sim, host, window=2)
        sender.start()
        # Full window outstanding, and still window-limited once refilled:
        # the state a stalled (lossy, misconfigured) flow is left in.
        assert sender.packets_out == sender.control.window
        sender.deliver(make_ack(1, 1))
        assert sender.packets_out == sender.control.window

    def test_counters(self, sim, host):
        sender = make_sender(sim, host, window=3)
        sender.start()
        sender.deliver(make_ack(1, 2))
        assert sender.packets_sent == 5
        assert sender.acks_received == 1

    def test_ack_observer(self, sim, host):
        sender = make_sender(sim, host, window=2)
        acks = []
        sender.on_ack(lambda record: acks.append(record[1]))
        sender.start()
        sender.deliver(make_ack(1, 1))
        assert acks == [1]

    def test_send_observer(self, sim, host):
        sender = make_sender(sim, host, window=2)
        sent = []
        sender.on_send(lambda record: sent.append(record[1].seq))
        sender.start()
        assert sent == [0, 1]

    def test_packet_size_from_options(self, sim, host):
        sender = make_sender(sim, host, window=1, data_packet_bytes=1000)
        sender.start()
        assert host.data_packets[0].size == 1000
