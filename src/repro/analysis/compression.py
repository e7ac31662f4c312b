"""ACK-compression detection and quantification.

Section 4.2: ACKs leave the receiver spaced one *data* transmission time
apart (they acknowledge data that drained at rate RD), but when a
cluster of ACKs passes through a non-empty queue it departs at the *ACK*
transmission rate RA — in the paper RA = 10·RD.  The compressed ACKs
then arrive at the source bunched together and release an equally
bunched burst of data.

Two complementary measurements:

- :func:`compression_stats` — inter-arrival gaps of ACKs at the source
  (from an :class:`~repro.metrics.ack_log.AckArrivalLog`): the fraction
  of gaps materially below one data transmission time is the compressed
  fraction, and the ratio of the data transmission time to the median
  compressed gap is the compression factor (≈ RA/RD when fully
  compressed).
- :func:`compressed_ack_bursts` — run lengths of back-to-back ACK
  departures from a bottleneck queue, reconstructing the "cluster of
  ACKs leaving at rate RA" picture directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.metrics.ack_log import AckArrivalLog
from repro.metrics.port_monitor import DepartureRecord

__all__ = ["CompressionStats", "compression_stats", "compressed_ack_bursts"]


@dataclass(frozen=True)
class CompressionStats:
    """Summary of ACK spacing at a traffic source."""

    total_gaps: int
    compressed_gaps: int
    compressed_fraction: float
    median_gap: float
    median_compressed_gap: float
    compression_factor: float
    """data_tx_time / median compressed gap; 1.0 means no compression,
    ≈ RA-to-RD ratio (10 in the paper) when clusters fully compress."""

    @property
    def detected(self) -> bool:
        """True when a non-trivial share of ACK gaps are compressed."""
        return self.compressed_fraction > 0.05


def compression_stats(
    log: AckArrivalLog,
    data_tx_time: float,
    start: float = 0.0,
    end: float = float("inf"),
    threshold: float = 0.75,
) -> CompressionStats:
    """Measure ACK compression from the source's ACK arrival process.

    A gap is *compressed* when it is below ``threshold * data_tx_time``
    (uncompressed self-clocked ACKs arrive no closer than one data
    transmission time).
    """
    if data_tx_time <= 0:
        raise AnalysisError(f"data transmission time must be positive, got {data_tx_time}")
    if not (0 < threshold <= 1):
        raise AnalysisError(f"threshold must be in (0, 1], got {threshold}")
    gaps = log.inter_arrival_times(start, end)
    if len(gaps) == 0:
        raise AnalysisError("not enough ACK arrivals to measure spacing")
    cutoff = threshold * data_tx_time
    compressed = gaps[gaps < cutoff]
    median_gap = float(np.median(gaps))
    if len(compressed) > 0:
        median_compressed = float(np.median(compressed))
        factor = data_tx_time / median_compressed if median_compressed > 0 else float("inf")
    else:
        median_compressed = float("nan")
        factor = 1.0
    return CompressionStats(
        total_gaps=int(len(gaps)),
        compressed_gaps=int(len(compressed)),
        compressed_fraction=len(compressed) / len(gaps),
        median_gap=median_gap,
        median_compressed_gap=median_compressed,
        compression_factor=factor,
    )


def compressed_ack_bursts(
    departures: list[DepartureRecord],
    data_tx_time: float,
    start: float = 0.0,
    end: float = float("inf"),
    threshold: float = 0.75,
) -> list[int]:
    """Sizes of ACK bursts leaving a queue at compressed spacing.

    Scans the ACK departures of one port; consecutive ACKs closer than
    ``threshold * data_tx_time`` are one burst.  Returns the burst sizes
    (>= 2 only — single, properly spaced ACKs are not bursts).
    """
    if data_tx_time <= 0:
        raise AnalysisError(f"data transmission time must be positive, got {data_tx_time}")
    acks = [d for d in departures if not d.is_data and start <= d.time < end]
    bursts: list[int] = []
    current = 1
    cutoff = threshold * data_tx_time
    for prev, cur in zip(acks, acks[1:]):
        if cur.time - prev.time < cutoff:
            current += 1
        else:
            if current >= 2:
                bursts.append(current)
            current = 1
    if current >= 2:
        bursts.append(current)
    return bursts
