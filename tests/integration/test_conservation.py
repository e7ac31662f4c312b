"""Integration tests: packet conservation and global sanity.

Every packet a host injects must be delivered, dropped, buffered, in
flight, or in transmission — nothing vanishes and nothing is duplicated
by the network itself.
"""

import pytest

from repro.engine import Simulator
from repro.net import build_chain, build_dumbbell
from repro.scenarios import paper, run
from repro.tcp import make_connection


class TestConservation:
    @pytest.mark.parametrize("factory_kwargs", [
        dict(propagation=0.01, buffer_packets=20),
        dict(propagation=1.0, buffer_packets=20),
        dict(propagation=0.01, buffer_packets=5),
    ])
    def test_two_way_accounting(self, factory_kwargs):
        result = run(paper.two_way(
            factory_kwargs["propagation"],
            buffer_packets=factory_kwargs["buffer_packets"],
            duration=80.0, warmup=20.0))
        sent = sum(h.sent for h in
                   (result.net.host("host1"), result.net.host("host2")))
        received = sum(h.received for h in
                       (result.net.host("host1"), result.net.host("host2")))
        dropped = len(result.traces.drops)
        # In-flight remainder: whatever is still in queues/links/processing.
        assert received + dropped <= sent
        assert sent - received - dropped < 120  # bounded residue

    def test_received_never_exceeds_sent_per_connection(self):
        result = run(paper.figure4(duration=120.0, warmup=30.0))
        for conn in result.connections:
            assert conn.receiver.rcv_nxt <= conn.sender.snd_nxt
            assert conn.sender.snd_una <= conn.receiver.rcv_nxt

    def test_progress_is_made(self):
        result = run(paper.figure4(duration=120.0, warmup=30.0))
        for conn in result.connections:
            assert conn.sender.snd_una > 100


class TestMultiHopDelivery:
    def test_chain_end_to_end(self):
        sim = Simulator()
        net = build_chain(sim, n_switches=4, bottleneck_propagation=0.01)
        conn = make_connection(sim, net, 1, "host1", "host4", "tahoe")
        sim.run(until=60.0)
        assert conn.receiver.rcv_nxt > 50
        # Data traversed every inter-switch hop.
        for a, b in (("sw1", "sw2"), ("sw2", "sw3"), ("sw3", "sw4")):
            assert net.port(a, b).transmissions > 50

    def test_sequence_stream_is_gapless_at_receiver(self):
        result = run(paper.figure4(duration=120.0, warmup=30.0))
        for conn in result.connections:
            # Cumulative receiver state: everything below rcv_nxt arrived.
            assert conn.receiver.reassembly_queue == [] or (
                min(conn.receiver.reassembly_queue) > conn.receiver.rcv_nxt
            )


class TestEventDeterminism:
    def test_identical_runs_identical_drop_times(self):
        a = run(paper.figure4(duration=100.0, warmup=30.0))
        b = run(paper.figure4(duration=100.0, warmup=30.0))
        assert a.traces.drops.times() == b.traces.drops.times()

    def test_trace_lengths_match(self):
        a = run(paper.figure4(duration=100.0, warmup=30.0))
        b = run(paper.figure4(duration=100.0, warmup=30.0))
        assert len(a.queue_series("sw1->sw2")) == len(b.queue_series("sw1->sw2"))
