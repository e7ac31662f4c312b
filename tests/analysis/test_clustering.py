"""Unit tests for repro.analysis.clustering."""

import pytest

from repro.analysis import cluster_runs, clustering_stats
from repro.errors import AnalysisError
from repro.metrics.port_monitor import DepartureRecord


def _dep(time, conn, is_data=True):
    return DepartureRecord(time=time, conn_id=conn, is_data=is_data,
                           seq=0, size=500, uid=int(time * 1000))


class TestClusterRuns:
    def test_single_connection_one_run(self):
        deps = [_dep(float(i), 1) for i in range(5)]
        runs = cluster_runs(deps)
        assert len(runs) == 1
        assert runs[0].length == 5
        assert runs[0].start_time == 0.0
        assert runs[0].end_time == 4.0

    def test_alternating_connections(self):
        deps = [_dep(float(i), 1 + i % 2) for i in range(6)]
        runs = cluster_runs(deps)
        assert len(runs) == 6
        assert all(run.length == 1 for run in runs)

    def test_clustered_pattern(self):
        deps = ([_dep(float(i), 1) for i in range(3)]
                + [_dep(3.0 + i, 2) for i in range(4)])
        runs = cluster_runs(deps)
        assert [(r.conn_id, r.length) for r in runs] == [(1, 3), (2, 4)]

    def test_data_only_filter(self):
        deps = [_dep(0.0, 1), _dep(1.0, 2, is_data=False), _dep(2.0, 1)]
        data_runs = cluster_runs(deps, data_only=True)
        assert len(data_runs) == 1
        mixed_runs = cluster_runs(deps, data_only=False)
        assert len(mixed_runs) == 3

    def test_window_filter(self):
        deps = [_dep(float(i), 1) for i in range(10)]
        runs = cluster_runs(deps, start=3.0, end=7.0)
        assert runs[0].length == 4

    def test_empty(self):
        assert cluster_runs([]) == []


class TestClusteringStats:
    def test_perfect_clustering_scores_zero(self):
        deps = ([_dep(float(i), 1) for i in range(10)]
                + [_dep(10.0 + i, 2) for i in range(10)])
        stats = clustering_stats(cluster_runs(deps))
        assert stats.interleaving_ratio == 0.0
        assert stats.mean_run_length == 10.0
        assert stats.max_run_length == 10

    def test_full_interleaving_scores_near_one(self):
        deps = [_dep(float(i), 1 + i % 2) for i in range(40)]
        stats = clustering_stats(cluster_runs(deps))
        assert stats.interleaving_ratio > 0.9

    def test_counts(self):
        deps = [_dep(0.0, 1), _dep(1.0, 1), _dep(2.0, 2)]
        stats = clustering_stats(cluster_runs(deps))
        assert stats.total_packets == 3
        assert stats.total_runs == 2

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            clustering_stats([])

    def test_single_packet(self):
        stats = clustering_stats(cluster_runs([_dep(0.0, 1)]))
        assert stats.interleaving_ratio == 0.0
        assert stats.total_packets == 1
