"""Unit tests for repro.analysis.compression."""

import pytest

from repro.analysis import compressed_ack_bursts, compression_stats
from repro.errors import AnalysisError
from repro.metrics.ack_log import AckArrival, AckArrivalLog
from repro.metrics.port_monitor import DepartureRecord


class FakeAckLog(AckArrivalLog):
    """An AckArrivalLog preloaded with arrival times (no sender needed)."""

    def __init__(self, times):
        self.conn_id = 1
        self.arrivals = [AckArrival(time=t, ack=i) for i, t in enumerate(times)]


def _ack_dep(time):
    return DepartureRecord(time=time, conn_id=1, is_data=False, seq=0,
                           size=50, uid=int(time * 1e6))


def _data_dep(time):
    return DepartureRecord(time=time, conn_id=2, is_data=True, seq=0,
                           size=500, uid=int(time * 1e6))


DATA_TX = 0.08  # 500B at 50 kbit/s


class TestCompressionStats:
    def test_uncompressed_stream(self):
        log = FakeAckLog([i * DATA_TX for i in range(20)])
        stats = compression_stats(log, DATA_TX)
        assert stats.compressed_fraction == 0.0
        assert stats.compression_factor == 1.0
        assert not stats.detected

    def test_fully_compressed_stream(self):
        log = FakeAckLog([i * DATA_TX / 10 for i in range(20)])
        stats = compression_stats(log, DATA_TX)
        assert stats.compressed_fraction == 1.0
        assert stats.compression_factor == pytest.approx(10.0)
        assert stats.detected

    def test_mixed_stream(self):
        times = []
        t = 0.0
        for burst in range(3):
            for _ in range(5):
                times.append(t)
                t += DATA_TX / 10  # compressed within burst
            t += 1.0  # gap between bursts
        stats = compression_stats(FakeAckLog(times), DATA_TX)
        assert 0.5 < stats.compressed_fraction < 1.0
        assert stats.compression_factor == pytest.approx(10.0)

    def test_threshold_effect(self):
        log = FakeAckLog([i * DATA_TX * 0.5 for i in range(10)])
        strict = compression_stats(log, DATA_TX, threshold=0.4)
        loose = compression_stats(log, DATA_TX, threshold=0.75)
        assert strict.compressed_fraction == 0.0
        assert loose.compressed_fraction == 1.0

    def test_window_filter(self):
        log = FakeAckLog([0.0, 0.001, 10.0, 10.5])
        early = compression_stats(log, DATA_TX, start=0.0, end=1.0)
        assert early.total_gaps == 1
        assert early.compressed_fraction == 1.0

    def test_errors(self):
        log = FakeAckLog([0.0])
        with pytest.raises(AnalysisError):
            compression_stats(log, DATA_TX)  # not enough arrivals
        with pytest.raises(AnalysisError):
            compression_stats(FakeAckLog([0, 1]), 0.0)
        with pytest.raises(AnalysisError):
            compression_stats(FakeAckLog([0, 1]), DATA_TX, threshold=0.0)


class TestCompressedBursts:
    def test_burst_sizes(self):
        deps = []
        t = 0.0
        for _ in range(4):  # burst of 4 compressed ACKs
            deps.append(_ack_dep(t))
            t += DATA_TX / 10
        t += 1.0
        for _ in range(3):  # burst of 3
            deps.append(_ack_dep(t))
            t += DATA_TX / 10
        assert compressed_ack_bursts(deps, DATA_TX) == [4, 3]

    def test_isolated_acks_not_bursts(self):
        deps = [_ack_dep(i * 1.0) for i in range(5)]
        assert compressed_ack_bursts(deps, DATA_TX) == []

    def test_data_packets_ignored(self):
        deps = [_ack_dep(0.0), _data_dep(0.001), _ack_dep(0.002)]
        # The two ACKs are 2 ms apart -> one burst of 2.
        assert compressed_ack_bursts(deps, DATA_TX) == [2]

    def test_invalid_tx_time(self):
        with pytest.raises(AnalysisError):
            compressed_ack_bursts([], 0.0)
