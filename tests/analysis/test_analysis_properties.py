"""Property-based tests for the analysis layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    cluster_runs,
    clustering_stats,
    compression_stats,
    detect_epochs,
)
from repro.metrics.ack_log import AckArrival, AckArrivalLog
from repro.metrics.drop_log import DropRecord
from repro.metrics.port_monitor import DepartureRecord


# --- Epoch detection -------------------------------------------------------

drop_times = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    min_size=1, max_size=200,
)


def _drops(times):
    return [
        DropRecord(time=t, queue="q", conn_id=1 + i % 3, is_data=True,
                   seq=i, is_retransmit=False)
        for i, t in enumerate(sorted(times))
    ]


@given(drop_times, st.floats(min_value=0.1, max_value=100.0))
def test_epochs_partition_all_drops(times, gap):
    records = _drops(times)
    epochs = detect_epochs(records, gap=gap)
    assert sum(e.total_drops for e in epochs) == len(records)


@given(drop_times, st.floats(min_value=0.1, max_value=100.0))
def test_epochs_are_ordered_and_separated(times, gap):
    epochs = detect_epochs(_drops(times), gap=gap)
    for a, b in zip(epochs, epochs[1:]):
        assert a.end <= b.start
        assert b.start - a.end > gap


@given(drop_times)
def test_tiny_gap_gives_one_epoch_per_cluster(times):
    records = _drops(times)
    huge = detect_epochs(records, gap=1e9)
    assert len(huge) == 1
    assert huge[0].start == min(r.time for r in records)
    assert huge[0].end == max(r.time for r in records)


# --- Clustering -------------------------------------------------------------

conn_streams = st.lists(st.integers(min_value=1, max_value=4),
                        min_size=1, max_size=300)


def _departures(conn_ids):
    return [
        DepartureRecord(time=float(i), conn_id=conn, is_data=True,
                        seq=i, size=500, uid=i)
        for i, conn in enumerate(conn_ids)
    ]


@given(conn_streams)
def test_runs_reconstruct_the_stream(conn_ids):
    runs = cluster_runs(_departures(conn_ids))
    rebuilt = []
    for run_ in runs:
        rebuilt.extend([run_.conn_id] * run_.length)
    assert rebuilt == conn_ids


@given(conn_streams)
def test_adjacent_runs_differ(conn_ids):
    runs = cluster_runs(_departures(conn_ids))
    for a, b in zip(runs, runs[1:]):
        assert a.conn_id != b.conn_id


@given(conn_streams)
def test_interleaving_ratio_bounded(conn_ids):
    stats = clustering_stats(cluster_runs(_departures(conn_ids)))
    assert 0.0 <= stats.interleaving_ratio <= 1.0
    assert stats.mean_run_length >= 1.0
    assert stats.max_run_length <= stats.total_packets


# --- Compression -------------------------------------------------------------

gap_lists = st.lists(
    st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
    min_size=2, max_size=200,
)


class _FakeLog(AckArrivalLog):
    def __init__(self, times):
        self.conn_id = 1
        self.arrivals = [AckArrival(time=t, ack=i) for i, t in enumerate(times)]


@given(gap_lists)
@settings(max_examples=100)
def test_compression_stats_invariants(gaps):
    times = [0.0]
    for gap in gaps:
        times.append(times[-1] + gap)
    stats = compression_stats(_FakeLog(times), data_tx_time=0.08)
    assert 0.0 <= stats.compressed_fraction <= 1.0
    assert stats.total_gaps == len(gaps)
    assert stats.compressed_gaps <= stats.total_gaps
    if stats.compressed_gaps == 0:
        assert stats.compression_factor == 1.0
    else:
        assert stats.compression_factor > 1.0


@given(gap_lists)
@settings(max_examples=50)
def test_scaling_gaps_up_reduces_compression(gaps):
    times = [0.0]
    for gap in gaps:
        times.append(times[-1] + gap)
    tight = compression_stats(_FakeLog(times), data_tx_time=0.08)
    spread = compression_stats(
        _FakeLog([t * 100.0 for t in times]), data_tx_time=0.08)
    assert spread.compressed_fraction <= tight.compressed_fraction
