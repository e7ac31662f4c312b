"""Unit tests for the Reno strategy (fast recovery) on the unified sender."""

import pytest

from repro.tcp import RenoControl, Sender, TcpOptions
from tests.tcp.conftest import make_ack


def make_sender(sim, host, **option_kwargs):
    options = TcpOptions(**option_kwargs)
    return Sender(sim, host, conn_id=1, destination="host2", options=options,
                  control=RenoControl())


def loaded(sim, host, outstanding=8):
    sender = make_sender(sim, host, initial_cwnd=float(outstanding))
    sender.start()
    assert sender.packets_out == outstanding
    return sender


class TestFastRecoveryEntry:
    def test_third_dupack_enters_recovery(self, sim, host):
        sender = loaded(sim, host)
        host.clear()
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        assert sender.control.in_recovery
        assert sender.control.fast_recoveries == 1
        # Missing segment retransmitted exactly once.
        assert [p.seq for p in host.data_packets if p.is_retransmit] == [0]

    def test_window_inflated_not_collapsed(self, sim, host):
        sender = loaded(sim, host, outstanding=8)
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        # ssthresh = 4; cwnd = ssthresh + 3 = 7, NOT 1 (the Tahoe value).
        assert sender.ssthresh == 4.0
        assert sender.cwnd == 7.0

    def test_loss_observer_fires_once(self, sim, host):
        sender = loaded(sim, host)
        events = []
        sender.on_loss_detected(lambda record: events.append(record[1]))
        for _ in range(6):
            sender.deliver(make_ack(1, 0))
        assert events == ["dupack"]


class TestRecoveryRide:
    def test_extra_dupacks_inflate_and_release(self, sim, host):
        sender = loaded(sim, host, outstanding=8)
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        host.clear()
        # cwnd=7, out=8: two more dup ACKs bring cwnd to 9 -> 1 new send.
        sender.deliver(make_ack(1, 0))
        sender.deliver(make_ack(1, 0))
        assert sender.cwnd == 9.0
        new_sends = [p for p in host.data_packets if not p.is_retransmit]
        assert len(new_sends) == 1

    def test_inflation_capped_by_maxwnd(self, sim, host):
        sender = loaded(sim, host, outstanding=8)
        sender.options = TcpOptions(initial_cwnd=8.0, maxwnd=10)
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        for _ in range(20):
            sender.deliver(make_ack(1, 0))
        assert sender.cwnd <= 10.0


class TestRecoveryExit:
    def test_new_ack_deflates_to_ssthresh(self, sim, host):
        sender = loaded(sim, host, outstanding=8)
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        sender.deliver(make_ack(1, 8))  # everything recovered
        assert not sender.control.in_recovery
        assert sender.cwnd == sender.ssthresh == 4.0

    def test_congestion_avoidance_resumes_after_exit(self, sim, host):
        sender = loaded(sim, host, outstanding=8)
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        sender.deliver(make_ack(1, 8))
        cwnd_after_exit = sender.cwnd
        sender.deliver(make_ack(1, 9))
        # cwnd(4) >= ssthresh(4): linear growth by 1/floor(cwnd).
        assert sender.cwnd == pytest.approx(cwnd_after_exit + 1 / int(cwnd_after_exit))

    def test_never_collapses_to_one_on_dupacks(self, sim, host):
        sender = loaded(sim, host, outstanding=16)
        for _ in range(10):
            sender.deliver(make_ack(1, 0))
        assert sender.cwnd > 1.0


class TestTimeoutFallback:
    def test_timeout_behaves_like_tahoe(self, sim, host):
        sender = loaded(sim, host, outstanding=4)
        sim.run(until=10.0)
        assert sender.timeouts >= 1
        assert sender.cwnd == 1.0
        assert not sender.control.in_recovery

    def test_timeout_during_recovery_resets_state(self, sim, host):
        sender = loaded(sim, host, outstanding=8)
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        assert sender.control.in_recovery
        sender._on_timeout()
        assert not sender.control.in_recovery
        assert sender.cwnd == 1.0


class TestEndToEnd:
    def test_two_way_phenomena_persist_with_reno(self):
        """The paper's generality conjecture: a different nonpaced window
        algorithm shows the same ACK-compression."""
        from repro.scenarios import paper, run

        result = run(paper.reno_two_way(duration=300.0, warmup=120.0))
        stats = result.ack_compression(1)
        assert stats.compression_factor == pytest.approx(10.0, rel=0.3)
        assert result.traces.drops.ack_drops == []

    def test_reno_outperforms_tahoe_one_way(self):
        """With isolated single drops, fast recovery avoids the slow-start
        dip, so Reno's one-way utilization is at least Tahoe's."""
        from repro.engine import Simulator
        from repro.metrics import PortMonitor
        from repro.net import build_dumbbell
        from repro.tcp import make_connection

        def run_one(algorithm):
            sim = Simulator()
            net = build_dumbbell(sim, bottleneck_propagation=1.0,
                                 buffer_packets=20)
            monitor = PortMonitor(net.port("sw1", "sw2"))
            make_connection(sim, net, 1, "host1", "host2", algorithm)
            sim.run(until=300.0)
            return monitor.utilization(100.0, 300.0)

        reno = run_one("reno")
        tahoe = run_one("tahoe")
        assert reno >= tahoe - 0.02
