"""Queue-length instrumentation.

A :class:`QueueMonitor` subscribes to a :class:`~repro.net.queues.DropTailQueue`
and records every length change into a :class:`~repro.metrics.timeseries.StepSeries`
— the exact signal plotted in the paper's queue-length figures.  It also
logs departures (time, packet) so the clustering and ACK-compression
analyses can reconstruct the order in which packets left the buffer.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.metrics.timeseries import StepSeries
from repro.net.packet import Packet, PacketKind
from repro.net.port import OutputPort

__all__ = ["QueueMonitor", "DepartureRecord"]


class DepartureRecord(NamedTuple):
    """One packet leaving a port's transmitter (transmission start).

    A tuple, not a dataclass: one is built per departure on every
    watched port, and a frozen dataclass pays an ``object.__setattr__``
    per field.
    """

    time: float
    conn_id: int
    is_data: bool
    seq: int
    size: int
    uid: int


class QueueMonitor:
    """Records queue-length history and the departure stream of a port.

    Two length signals are kept: ``lengths`` counts buffered *packets*
    (the paper's measure), ``byte_lengths`` counts buffered *bytes*.
    Section 4.2 notes the rapid square-wave drops "reflect the fact
    that the queue length is measured in the number of packets rather
    than in bytes" — an ACK cluster leaving barely moves the byte
    occupancy.  Keeping both signals makes that observation testable.
    """

    def __init__(self, port: OutputPort, name: str | None = None) -> None:
        self.port = port
        self.name = name or port.name
        self.lengths = StepSeries(name=f"{self.name}:qlen", initial_value=0.0)
        self.byte_lengths = StepSeries(name=f"{self.name}:qbytes", initial_value=0.0)
        self.departures: list[DepartureRecord] = []
        self._buffered_bytes = 0
        self._buffered_uids: dict[int, int] = {}  # uid -> size
        port.queue.on_length_change(self._on_length)
        port.queue.on_enqueue(self._on_enqueue)
        port.queue.on_dequeue(self._on_dequeue)
        # Random-drop queues evict *buffered* packets (enqueued, never
        # dequeued); watch drops so byte accounting cannot leak.
        port.queue.on_drop(self._on_drop)
        port.on_departure(self._on_departure)

    # StepSeries.record coerces values to float; the handlers pass them raw.
    def _on_length(self, time: float, length: int) -> None:
        self.lengths.record(time, length)

    def _on_enqueue(self, time: float, packet: Packet) -> None:
        self._buffered_bytes += packet.size
        self._buffered_uids[packet.uid] = packet.size
        self.byte_lengths.record(time, self._buffered_bytes)

    def _on_dequeue(self, time: float, packet: Packet) -> None:
        self._buffered_bytes -= self._buffered_uids.pop(packet.uid, packet.size)
        self.byte_lengths.record(time, self._buffered_bytes)

    def _on_drop(self, time: float, packet: Packet) -> None:
        size = self._buffered_uids.pop(packet.uid, None)
        if size is not None:  # a buffered victim (random drop), not an arrival
            self._buffered_bytes -= size
            self.byte_lengths.record(time, self._buffered_bytes)

    def _on_departure(self, time: float, packet: Packet) -> None:
        is_data = packet.kind is PacketKind.DATA
        self.departures.append(DepartureRecord(
            time, packet.conn_id, is_data,
            packet.seq if is_data else packet.ack, packet.size, packet.uid))

    # ------------------------------------------------------------------
    @property
    def max_length(self) -> float:
        """Largest queue length ever observed."""
        if len(self.lengths) == 0:
            return 0.0
        return float(self.lengths.values.max())

    def mean_length(self, start: float, end: float) -> float:
        """Time-weighted mean queue length over a window."""
        return self.lengths.time_average(start, end)

    def data_departures(self) -> list[DepartureRecord]:
        """Only the DATA-packet departures, in order."""
        return [d for d in self.departures if d.is_data]

    def ack_departures(self) -> list[DepartureRecord]:
        """Only the ACK departures, in order."""
        return [d for d in self.departures if not d.is_data]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueueMonitor({self.name!r}, points={len(self.lengths)})"
