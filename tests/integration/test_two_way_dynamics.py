"""Integration tests: two-way traffic dynamics (Section 4, shortened)."""

import pytest

from repro.analysis import SyncMode, rapid_fluctuation_amplitude
from repro.scenarios import paper, run


@pytest.fixture(scope="module")
def small_pipe():
    """Figures 4-5 configuration, shortened."""
    return run(paper.figure4(duration=350.0, warmup=150.0))


@pytest.fixture(scope="module")
def large_pipe():
    """Figures 6-7 configuration, shortened."""
    return run(paper.figure6(duration=500.0, warmup=200.0))


class TestAckCompression:
    def test_compression_factor_is_size_ratio(self, small_pipe):
        stats = small_pipe.ack_compression(1)
        assert stats.detected
        assert stats.compression_factor == pytest.approx(10.0, rel=0.25)

    def test_both_connections_compressed(self, small_pipe):
        for conn_id in (1, 2):
            assert small_pipe.ack_compression(conn_id).compressed_fraction > 0.2

    def test_rapid_queue_fluctuations(self, small_pipe):
        start, end = small_pipe.window
        amplitude = rapid_fluctuation_amplitude(
            small_pipe.queue_series("sw1->sw2"), start, end,
            window=small_pipe.config.data_tx_time)
        assert amplitude >= 2.0

    def test_one_way_has_no_such_fluctuations(self):
        result = run(paper.one_way(n_connections=2, propagation=0.01,
                                   buffer_packets=20, duration=120.0,
                                   warmup=40.0))
        start, end = result.window
        amplitude = rapid_fluctuation_amplitude(
            result.queue_series("sw1->sw2"), start, end,
            window=result.config.data_tx_time)
        # One-way queues alternate between adjacent values only.
        assert amplitude <= 2.0

    def test_no_ack_drops_two_way(self, small_pipe, large_pipe):
        """Section 4.2's argument holds on both finite-buffer runs."""
        assert small_pipe.traces.drops.ack_drops == []
        assert large_pipe.traces.drops.ack_drops == []


class TestOutOfPhaseMode:
    def test_queue_sync(self, small_pipe):
        assert small_pipe.queue_sync().mode is SyncMode.OUT_OF_PHASE

    def test_window_sync(self, small_pipe):
        assert small_pipe.window_sync(1, 2).mode is SyncMode.OUT_OF_PHASE

    def test_double_drops_on_single_connection(self, small_pipe):
        epochs = small_pipe.epochs()
        single_loser = [e for e in epochs if len(e.connections) == 1]
        assert len(single_loser) >= 0.7 * len(epochs)

    def test_utilization_band(self, small_pipe):
        assert 0.6 <= small_pipe.utilization("sw1->sw2") <= 0.85


class TestInPhaseMode:
    def test_queue_sync(self, large_pipe):
        assert large_pipe.queue_sync().mode is SyncMode.IN_PHASE

    def test_window_sync(self, large_pipe):
        assert large_pipe.window_sync(1, 2).mode is SyncMode.IN_PHASE

    def test_both_connections_lose_together(self, large_pipe):
        epochs = large_pipe.epochs()
        assert epochs
        both = [e for e in epochs if len(e.connections) == 2]
        assert len(both) >= 0.5 * len(epochs)

    def test_utilization_below_one_way(self, large_pipe):
        """Two-way tau=1s runs well below the one-way ~90%."""
        assert large_pipe.utilization("sw1->sw2") < 0.85


class TestSymmetryBreaking:
    def test_different_seeds_differ(self):
        a = run(paper.two_way(0.01, duration=60.0, warmup=20.0).with_updates(seed=1))
        b = run(paper.two_way(0.01, duration=60.0, warmup=20.0).with_updates(seed=2))
        assert a.events_processed != b.events_processed

    def test_same_seed_reproduces_exactly(self):
        a = run(paper.two_way(0.01, duration=60.0, warmup=20.0))
        b = run(paper.two_way(0.01, duration=60.0, warmup=20.0))
        assert a.events_processed == b.events_processed
        assert a.utilizations() == b.utilizations()
        assert len(a.traces.drops) == len(b.traces.drops)
