"""Integration tests for the extension scenarios.

Shortened runs of the delayed-ACK, four-switch, Reno and Random Drop
configurations, checking their distinguishing behaviors end to end.
"""

import pytest

from repro.analysis import (
    cluster_runs,
    clustering_stats,
    rapid_fluctuation_amplitude,
)
from repro.scenarios import FlowSpec, QueueSpec, ScenarioConfig, paper, run
from repro.tcp import TcpOptions


class TestDelayedAckScenario:
    def test_receiver_combines_acks(self):
        result = run(paper.delayed_ack_two_way(maxwnd=8, duration=120.0,
                                               warmup=40.0))
        for conn in result.connections:
            receiver = conn.receiver
            # Roughly half as many ACKs as data packets (pairs combined).
            assert receiver.acks_sent < receiver.packets_received * 0.75

    def test_delack_timer_fires_occasionally(self):
        result = run(paper.delayed_ack_two_way(maxwnd=8, duration=120.0,
                                               warmup=40.0))
        fires = sum(c.receiver.delayed_ack_fires for c in result.connections)
        assert fires >= 1

    def test_small_windows_cut_clusters(self):
        result = run(paper.delayed_ack_two_way(maxwnd=8, duration=150.0,
                                               warmup=50.0))
        stats = clustering_stats(cluster_runs(
            result.traces.queue("sw1->sw2").departures,
            data_only=False, start=50.0, end=150.0))
        assert stats.max_run_length <= 8


class TestFourSwitchScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return run(paper.four_switch(duration=150.0, warmup=60.0))

    def test_all_six_connections_progress(self, result):
        for conn in result.connections:
            assert conn.receiver.rcv_nxt > 20

    def test_every_interswitch_port_carries_traffic(self, result):
        for name in result.bottleneck_ports:
            assert result.traces.queue(name).transmissions > 50

    def test_multihop_acks_can_be_dropped(self, result):
        # Unlike the dumbbell, compressed ACK clusters hit downstream
        # full queues at rate RA; the no-ACK-drop theorem does not hold.
        assert result.data_drop_fraction() < 1.0


class TestRenoScenario:
    def test_fast_recovery_dominates_timeouts(self):
        result = run(paper.reno_two_way(duration=250.0, warmup=100.0))
        recoveries = sum(c.sender.control.fast_recoveries
                         for c in result.connections)
        timeouts = sum(c.sender.timeouts for c in result.connections)
        assert recoveries > timeouts

    def test_cwnd_never_one_during_pure_fast_recovery_epochs(self):
        result = run(paper.reno_two_way(duration=250.0, warmup=100.0))
        # Unlike Tahoe, Reno's cwnd trace should spend most time above 1.
        log = result.traces.cwnd(1)
        start, end = result.window
        _, values = log.cwnd.sample(start, end, 0.5)
        assert (values > 1.0).mean() > 0.9


class TestRandomDropScenario:
    def test_drop_tail_vs_random_drop_loss_location(self):
        """Random Drop (the [4,5,10,18] gateway discipline) spreads
        losses across connections, weakening the single-loser epochs
        drop-tail produces."""
        drop_tail = run(paper.figure4(duration=300.0, warmup=120.0))
        random_drop = run(paper.figure4(duration=300.0, warmup=120.0)
                          .with_updates(queue=QueueSpec("randomdrop")))

        def losers_per_epoch(result, n):
            epochs = result.epochs()
            return sum(len(e.connections) == n for e in epochs) / len(epochs)

        assert losers_per_epoch(drop_tail, 1) >= 0.6
        assert losers_per_epoch(random_drop, 2) >= 0.3

    def test_random_drop_deterministic_per_seed(self):
        config = paper.figure4(duration=100.0, warmup=40.0).with_updates(
            queue=QueueSpec("randomdrop"))
        a = run(config)
        b = run(config)
        assert a.traces.drops.times() == b.traces.drops.times()


class TestAblations:
    """One modelling decision flipped per case (DESIGN.md), on the
    two-way tau = 0.01 s scenario."""

    @staticmethod
    def _two_way(**tcp):
        return run(paper.two_way(0.01, duration=300.0, warmup=120.0,
                                 tcp=TcpOptions(**tcp)))

    @pytest.fixture(scope="class")
    def baseline(self):
        """The defaults: modified avoidance, dupack threshold 3,
        jittered starts."""
        return self._two_way()

    def test_modified_vs_original_avoidance(self, baseline):
        """The Section 2.1 anomaly fix changes regularity, not the
        qualitative behaviour: utilization stays close."""
        original = self._two_way(modified_avoidance=False)
        assert abs(baseline.utilization("sw1->sw2")
                   - original.utilization("sw1->sw2")) < 0.15

    def test_higher_dupack_threshold_means_more_timeouts(self, baseline):
        def timeouts(result):
            return sum(c.sender.timeouts for c in result.connections)

        assert (timeouts(self._two_way(dupack_threshold=50))
                > timeouts(baseline))

    def test_simultaneous_starts_lock_step(self, baseline):
        """Exactly simultaneous starts give an artificial perfectly
        symmetric state the paper's (jittered) runs never occupy."""
        symmetric = run(ScenarioConfig(
            name="sym",
            flows=(FlowSpec(src="host1", dst="host2", start_time=0.0),
                   FlowSpec(src="host2", dst="host1", start_time=0.0)),
            bottleneck_propagation=0.01, buffer_packets=20,
            duration=300.0, warmup=120.0))
        first, second = symmetric.connections
        assert first.sender.packets_sent == second.sender.packets_sent
        assert symmetric.queue_sync().correlation > 0.95
        assert baseline.queue_sync().correlation < 0.5

    def test_ack_size_drives_compression(self):
        """ACKs as large as data packets leave nothing to compress."""
        def factor(ack_bytes):
            result = run(paper.fixed_window_two_way(
                30, 25, 0.01, ack_bytes=ack_bytes,
                duration=200.0, warmup=100.0))
            return result.ack_compression(1).compression_factor

        assert factor(50) >= 5.0
        assert factor(500) <= 1.5


class TestPacingCounterfactual:
    def test_paced_senders_neither_compress_nor_square_wave(self):
        """Section 3.1's conjecture, contrapositive: paced at the
        bottleneck data rate, the figure-8 windows show almost no
        compressed ACKs and the queue moves ~1 packet per data
        transmission time instead of square-waving by tens."""
        result = run(paper.paced_two_way(250.0, 100.0))
        assert result.ack_compression(1).compressed_fraction <= 0.05
        assert rapid_fluctuation_amplitude(
            result.queue_series("sw1->sw2"), 100.0, 250.0,
            window=result.config.data_tx_time) <= 2.0
