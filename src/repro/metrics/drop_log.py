"""Packet-drop logging.

The paper's figures mark every dropped packet above the queue-length
trace and several claims are about drop *patterns*: which connection
lost, how many per congestion epoch, and whether any ACKs were ever
dropped (the paper proves none can be).  :class:`DropLog` aggregates
drop events across any number of queues into one time-ordered record;
each watched port's :class:`~repro.metrics.port_monitor.PortMonitor`
appends to it from its drop handler.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["DropLog", "DropRecord"]


class DropRecord(NamedTuple):
    """One discarded packet (a refused arrival or an evicted victim)."""

    time: float
    queue: str
    conn_id: int
    is_data: bool
    seq: int
    is_retransmit: bool


class DropLog:
    """Time-ordered record of every drop across the watched queues."""

    def __init__(self) -> None:
        self.records: list[DropRecord] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    @property
    def data_drops(self) -> list[DropRecord]:
        """Only DATA-packet drops."""
        return [r for r in self.records if r.is_data]

    @property
    def ack_drops(self) -> list[DropRecord]:
        """Only ACK drops (the paper argues this is always empty)."""
        return [r for r in self.records if not r.is_data]

    def data_drop_fraction(self) -> float:
        """Fraction of drops that were data packets (1.0 when no drops)."""
        if not self.records:
            return 1.0
        return len(self.data_drops) / len(self.records)

    def drops_by_connection(self) -> dict[int, int]:
        """conn_id → number of drops."""
        counts: dict[int, int] = {}
        for record in self.records:
            counts[record.conn_id] = counts.get(record.conn_id, 0) + 1
        return counts

    def in_window(self, start: float, end: float) -> list[DropRecord]:
        """Drops with ``start <= time < end``."""
        return [r for r in self.records if start <= r.time < end]

    def times(self) -> list[float]:
        """Drop instants, in order."""
        return [r.time for r in self.records]
