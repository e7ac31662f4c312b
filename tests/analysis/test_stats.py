"""Unit tests for repro.analysis.stats (batch means)."""

import pytest

from repro.analysis import batch_means, utilization_batches
from repro.errors import AnalysisError


class TestBatchMeans:
    def test_mean_std(self):
        stats = batch_means([0.6, 0.7, 0.8])
        assert stats.mean == pytest.approx(0.7)
        assert stats.std == pytest.approx(0.1)
        assert stats.n == 3

    def test_ci_brackets_mean(self):
        stats = batch_means([0.68, 0.70, 0.72, 0.69, 0.71])
        assert stats.ci_low < stats.mean < stats.ci_high
        assert stats.ci_half_width < 0.05

    def test_identical_batches_zero_ci(self):
        stats = batch_means([0.5, 0.5, 0.5, 0.5])
        assert stats.ci_half_width == 0.0

    def test_needs_two_batches(self):
        with pytest.raises(AnalysisError):
            batch_means([0.5])


class TestUtilizationBatches:
    def _monitor(self):
        from repro.engine import Simulator
        from repro.metrics import PortMonitor
        from repro.net import build_dumbbell
        from repro.tcp import make_connection

        sim = Simulator()
        net = build_dumbbell(sim, bottleneck_propagation=0.01)
        monitor = PortMonitor(net.port("sw1", "sw2"))
        make_connection(sim, net, 1, "host1", "host2", "tahoe")
        sim.run(until=120.0)
        return monitor

    def test_batches_average_to_window_utilization(self):
        monitor = self._monitor()
        stats = utilization_batches(monitor, 20.0, 120.0, n_batches=10)
        overall = monitor.utilization(20.0, 120.0)
        assert stats.mean == pytest.approx(overall, abs=1e-9)
        assert 0.0 <= stats.ci_low and stats.ci_high <= 1.2

    def test_validation(self):
        monitor = self._monitor()
        with pytest.raises(AnalysisError):
            utilization_batches(monitor, 20.0, 120.0, n_batches=1)
        with pytest.raises(AnalysisError):
            utilization_batches(monitor, 50.0, 50.0)
