"""Integration comparison: Tahoe vs Reno dynamics (extension study).

The paper predates Reno's publication by a year and conjectures its
findings extend to other nonpaced window algorithms.  These tests pin
down what changes and what does not when fast recovery is added:

- unchanged: clustering, ACK-compression, the synchronization modes;
- changed: the depth of the post-loss window dip, and consequently the
  one-way utilization at large pipes.
"""

import pytest

from repro.engine import Simulator
from repro.metrics import CwndLog, PortMonitor
from repro.net import build_dumbbell
from repro.scenarios import paper, run
from repro.tcp import make_connection


def _one_way_run(algorithm, duration=300.0):
    sim = Simulator()
    net = build_dumbbell(sim, bottleneck_propagation=1.0, buffer_packets=20)
    monitor = PortMonitor(net.port("sw1", "sw2"))
    conn = make_connection(sim, net, 1, "host1", "host2", algorithm)
    log = CwndLog(conn.sender)
    sim.run(until=duration)
    return monitor, log, conn


class TestWhatChanges:
    def test_reno_avoids_the_cwnd_one_dip(self):
        _, tahoe_log, _ = _one_way_run("tahoe")
        _, reno_log, _ = _one_way_run("reno")
        # Post-transient: Tahoe revisits cwnd=1 every cycle, Reno does not.
        _, tahoe_values = tahoe_log.cwnd.sample(100.0, 300.0, 0.5)
        _, reno_values = reno_log.cwnd.sample(100.0, 300.0, 0.5)
        assert (tahoe_values == 1.0).any()
        assert not (reno_values == 1.0).any()

    def test_reno_mean_window_is_larger(self):
        _, tahoe_log, _ = _one_way_run("tahoe")
        _, reno_log, _ = _one_way_run("reno")
        assert (reno_log.cwnd.time_average(100.0, 300.0)
                > tahoe_log.cwnd.time_average(100.0, 300.0))


class TestWhatPersists:
    @pytest.fixture(scope="class")
    def reno_result(self):
        return run(paper.reno_two_way(duration=300.0, warmup=120.0))

    def test_clustering_persists(self, reno_result):
        stats = reno_result.clustering()
        # Data-only on a one-direction port: trivially one run; use the
        # mixed stream instead.
        from repro.analysis import cluster_runs, clustering_stats

        mixed = clustering_stats(cluster_runs(
            reno_result.traces.queue("sw1->sw2").departures,
            data_only=False, start=120.0, end=300.0))
        assert mixed.mean_run_length >= 4

    def test_compression_persists(self, reno_result):
        stats = reno_result.ack_compression(1)
        assert stats.compression_factor == pytest.approx(10.0, rel=0.3)
        assert stats.compressed_fraction > 0.2

    def test_mode_persists(self, reno_result):
        from repro.analysis import SyncMode

        assert reno_result.queue_sync().mode is SyncMode.OUT_OF_PHASE

    def test_no_ack_drops_persists(self, reno_result):
        assert reno_result.traces.drops.ack_drops == []

    def test_two_way_utilization_not_below_tahoe(self, reno_result):
        """Fast recovery softens the post-loss dip, so Reno's two-way
        utilization is at least Tahoe's in the same configuration."""
        tahoe = run(paper.figure4(duration=300.0, warmup=120.0))
        assert (reno_result.utilization("sw1->sw2")
                >= tahoe.utilization("sw1->sw2") - 0.05)
