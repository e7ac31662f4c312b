"""Packet-clustering analysis.

Section 3.1 of the paper: with nonpaced window flow control and equal
round-trip times, "all of the packets from a single connection are
clustered together; the entire window's worth of packets passes through
the switch consecutively, uninterrupted by packets from another
connection."

We measure this on the *departure stream* of a bottleneck port (data
packets only): consecutive departures from the same connection form a
run; complete clustering means runs are window-sized, i.e. the number of
run boundaries per unit time is minimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.metrics.port_monitor import DepartureRecord

__all__ = ["ClusterRun", "cluster_runs", "ClusteringStats", "clustering_stats"]


@dataclass(frozen=True)
class ClusterRun:
    """A maximal run of consecutive departures from one connection."""

    conn_id: int
    length: int
    start_time: float
    end_time: float


def cluster_runs(
    departures: list[DepartureRecord],
    data_only: bool = True,
    start: float = 0.0,
    end: float = float("inf"),
) -> list[ClusterRun]:
    """Split a departure stream into per-connection runs."""
    stream = [
        d for d in departures
        if start <= d.time < end and (d.is_data or not data_only)
    ]
    runs: list[ClusterRun] = []
    for record in stream:
        if runs and runs[-1].conn_id == record.conn_id:
            last = runs[-1]
            runs[-1] = ClusterRun(
                conn_id=last.conn_id,
                length=last.length + 1,
                start_time=last.start_time,
                end_time=record.time,
            )
        else:
            runs.append(
                ClusterRun(
                    conn_id=record.conn_id,
                    length=1,
                    start_time=record.time,
                    end_time=record.time,
                )
            )
    return runs


@dataclass(frozen=True)
class ClusteringStats:
    """Summary statistics of a run decomposition."""

    total_packets: int
    total_runs: int
    mean_run_length: float
    max_run_length: int
    interleaving_ratio: float
    """Run boundaries per packet: 0 approaches perfect clustering, values
    near 1 mean the connections' packets are fully interleaved."""


def clustering_stats(runs: list[ClusterRun]) -> ClusteringStats:
    """Aggregate run-length statistics.

    ``interleaving_ratio`` is ``(runs - distinct_connections) / packets``
    normalized so that perfectly clustered traffic from any number of
    connections scores near 0, while strict round-robin interleaving of
    two connections scores near 1.
    """
    if not runs:
        raise AnalysisError("no departures to analyze")
    total_packets = sum(run.length for run in runs)
    distinct = len({run.conn_id for run in runs})
    excess_boundaries = max(len(runs) - distinct, 0)
    # Maximum possible boundaries given the packet count:
    max_boundaries = max(total_packets - 1, 1)
    return ClusteringStats(
        total_packets=total_packets,
        total_runs=len(runs),
        mean_run_length=total_packets / len(runs),
        max_run_length=max(run.length for run in runs),
        interleaving_ratio=excess_boundaries / max_boundaries,
    )
