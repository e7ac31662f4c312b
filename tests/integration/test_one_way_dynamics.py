"""Integration tests: one-way traffic dynamics (Section 3.1, shortened).

These run real (but short) simulations and check the paper's qualitative
one-way claims end to end.
"""

import pytest

from repro.analysis import (
    cluster_runs,
    clustering_stats,
    detect_epochs,
    drop_coincidence,
)
from repro.scenarios import paper, run


@pytest.fixture(scope="module")
def one_way_result():
    return run(paper.one_way(n_connections=3, propagation=1.0,
                             buffer_packets=20, duration=250.0, warmup=80.0))


@pytest.fixture(scope="module")
def small_pipe_result():
    return run(paper.one_way(n_connections=3, propagation=0.01,
                             buffer_packets=20, duration=120.0, warmup=40.0))


class TestSelfClocking:
    def test_high_utilization_small_pipe(self, small_pipe_result):
        assert small_pipe_result.utilization("sw1->sw2") > 0.95

    def test_queue_bounded_by_buffer(self, small_pipe_result):
        assert small_pipe_result.max_queue("sw1->sw2") <= 20

    def test_reverse_direction_nearly_idle(self, small_pipe_result):
        """ACKs are 1/10 the size: reverse utilization ~10% of forward."""
        forward = small_pipe_result.utilization("sw1->sw2")
        reverse = small_pipe_result.utilization("sw2->sw1")
        assert reverse < 0.25 * forward


class TestLossPatterns:
    def test_loss_synchronization(self, one_way_result):
        epochs = one_way_result.epochs()
        assert len(epochs) >= 2
        assert drop_coincidence(epochs, 3, quorum=1.0) >= 0.75

    def test_one_drop_per_connection_per_epoch(self, one_way_result):
        epochs = one_way_result.epochs()
        clean = [e for e in epochs
                 if set(e.drops_by_connection().values()) == {1}]
        assert len(clean) / len(epochs) >= 0.75

    def test_no_ack_drops(self, one_way_result):
        assert one_way_result.traces.drops.ack_drops == []

    def test_drops_are_originals_not_retransmits(self, one_way_result):
        retransmit_drops = [r for r in one_way_result.traces.drops.records
                            if r.is_retransmit]
        assert len(retransmit_drops) <= len(one_way_result.traces.drops.records) * 0.2


class TestClustering:
    def test_complete_clustering(self, one_way_result):
        start, end = one_way_result.window
        runs = cluster_runs(
            one_way_result.traces.queue("sw1->sw2").departures,
            start=start, end=end)
        stats = clustering_stats(runs)
        assert stats.interleaving_ratio < 0.2
        assert stats.mean_run_length > 3


class TestWindowBehavior:
    def test_cwnd_sawtooth(self, one_way_result):
        """cwnd repeatedly collapses to 1 and rebuilds."""
        log = one_way_result.traces.cwnd(1)
        values = log.cwnd.values
        assert values.max() > 8
        assert (values == 1.0).any()
        assert len(log.losses) >= 2

    def test_total_window_near_capacity_at_loss(self, one_way_result):
        """At each congestion epoch the summed windows reach ~C."""
        capacity = one_way_result.config.capacity
        epochs = one_way_result.epochs()
        for epoch in epochs[:3]:
            total = sum(
                int(one_way_result.traces.cwnd(c).cwnd.value_at(epoch.start))
                for c in (1, 2, 3)
            )
            assert total == pytest.approx(capacity, abs=6)
