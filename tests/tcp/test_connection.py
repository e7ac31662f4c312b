"""Unit tests for repro.tcp.connection wiring."""

import pytest

from repro.engine import Simulator
from repro.errors import ConfigurationError
from repro.net import build_dumbbell
from repro.tcp import (
    FixedWindowControl,
    TahoeControl,
    TcpOptions,
    make_connection,
)


def _env():
    sim = Simulator()
    net = build_dumbbell(sim)
    return sim, net


class TestTahoeConnection:
    def test_endpoints_bound(self):
        sim, net = _env()
        conn = make_connection(sim, net, 1, "host1", "host2", "tahoe")
        assert isinstance(conn.sender.control, TahoeControl)
        assert conn.src_host == "host1"
        assert not conn.is_fixed_window

    def test_start_time_respected(self):
        sim, net = _env()
        conn = make_connection(sim, net, 1, "host1", "host2", "tahoe", start_time=5.0)
        sim.run(until=4.9)
        assert not conn.sender.started
        sim.run(until=5.0)
        assert conn.sender.started

    def test_data_flows_end_to_end(self):
        sim, net = _env()
        conn = make_connection(sim, net, 1, "host1", "host2", "tahoe")
        sim.run(until=30.0)
        assert conn.receiver.rcv_nxt > 10
        assert conn.sender.snd_una > 10

    def test_same_host_rejected(self):
        sim, net = _env()
        with pytest.raises(ConfigurationError):
            make_connection(sim, net, 1, "host1", "host1", "tahoe")

    def test_duplicate_conn_id_on_same_host_rejected(self):
        sim, net = _env()
        make_connection(sim, net, 1, "host1", "host2", "tahoe")
        with pytest.raises(ConfigurationError):
            make_connection(sim, net, 1, "host1", "host2", "tahoe")

    def test_opposite_directions_share_conn_id_space(self):
        # Different conn ids are required even for opposite directions,
        # because both hosts hold both a DATA and an ACK binding.
        sim, net = _env()
        make_connection(sim, net, 1, "host1", "host2", "tahoe")
        make_connection(sim, net, 2, "host2", "host1", "tahoe")
        sim.run(until=10.0)


class TestFixedWindowConnection:
    def test_fixed_sender_type(self):
        sim, net = _env()
        conn = make_connection(sim, net, 1, "host1", "host2", "fixed", {"window": 7})
        assert isinstance(conn.sender.control, FixedWindowControl)
        assert conn.is_fixed_window
        assert conn.sender.control.window == 7

    def test_steady_state_keeps_window_outstanding(self):
        sim = Simulator()
        net = build_dumbbell(sim, buffer_packets=None)
        conn = make_connection(sim, net, 1, "host1", "host2", "fixed", {"window": 5})
        sim.run(until=30.0)
        assert conn.sender.packets_out == 5
        assert conn.receiver.rcv_nxt > 50

    def test_options_shared_between_ends(self):
        sim, net = _env()
        options = TcpOptions(ack_packet_bytes=0)
        conn = make_connection(
            sim, net, 1, "host1", "host2", "fixed", {"window": 3}, options=options)
        assert conn.receiver.options.ack_packet_bytes == 0
