"""CSV export of traces.

Writes step series and drop logs in a plain two/three-column CSV format
so results can be re-plotted with any external tool.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.metrics.drop_log import DropLog
from repro.metrics.timeseries import StepSeries

__all__ = [
    "write_series_csv",
    "write_drops_csv",
    "write_departures_csv",
    "series_to_rows",
]


def series_to_rows(series: StepSeries) -> list[tuple[float, float]]:
    """Change-points as (time, value) tuples."""
    return list(series)


def write_series_csv(series: StepSeries, path: str | Path,
                     header: tuple[str, str] = ("time_s", "value")) -> Path:
    """Write one step series to ``path``; returns the path."""
    target = Path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for time, value in series:
            writer.writerow([f"{time:.9f}", f"{value:g}"])
    return target


def write_drops_csv(drops: DropLog, path: str | Path) -> Path:
    """Write a drop log to ``path``; returns the path."""
    target = Path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "queue", "conn_id", "kind", "seq", "retransmit"])
        for record in drops.records:
            writer.writerow([
                f"{record.time:.9f}",
                record.queue,
                record.conn_id,
                "data" if record.is_data else "ack",
                record.seq,
                int(record.is_retransmit),
            ])
    return target


def write_departures_csv(departures, path: str | Path) -> Path:
    """Write a port's departure stream (a packet-level trace) to CSV.

    ``departures`` is a list of
    :class:`~repro.metrics.port_monitor.DepartureRecord`; the resulting
    file is the closest thing to a packet capture this simulator
    produces and can feed external clustering/compression analyses.
    """
    target = Path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "conn_id", "kind", "seq_or_ack", "bytes"])
        for record in departures:
            writer.writerow([
                f"{record.time:.9f}",
                record.conn_id,
                "data" if record.is_data else "ack",
                record.seq,
                record.size,
            ])
    return target
