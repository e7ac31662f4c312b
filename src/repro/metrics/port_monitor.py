"""Everything recorded at one output port, from one journal.

A :class:`PortMonitor` is the only class in :mod:`repro.metrics` that
registers port or queue observers, and what it registers is the
``append`` of one list: the queue's and the port's records land in it
in event order.  From that journal it derives, on first read
(:mod:`repro.metrics.journal`),

- the queue length in packets (``lengths`` — the exact signal plotted in
  the paper's queue-length figures) and in bytes (``byte_lengths``),
- the departure stream (``departures``) the clustering and
  ACK-compression analyses reconstruct the service order from,
- each packet's buffer wait (``samples``) — Section 4.2's key quantity:
  "whenever an ACK packet has to wait in a queue, the queueing delay has
  the same effect as increasing the pipe size",
- every transmission as a ``(start, duration)`` interval.

Utilization over a window is integrated exactly from the transmissions
rather than sampled, so the small differences the paper reports (70% vs
60%) carry no estimator noise; it reads the derived intervals and then
the port records still pending in the journal, so it folds nothing.

The port's drops are the exception: they are appended as they happen to
a :class:`~repro.metrics.drop_log.DropLog` that several ports may share,
because only the moment of the drop orders it among the other ports'.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

from repro.errors import AnalysisError
from repro.metrics.drop_log import DropLog, DropRecord
from repro.metrics.journal import Derived
from repro.metrics.timeseries import StepSeries
from repro.net.packet import PacketKind
from repro.net.port import OutputPort
from repro.net.queues import ADMIT, TAKE

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["PortMonitor", "DepartureRecord", "SojournSample",
           "effective_pipe_packets"]


class DepartureRecord(NamedTuple):
    """One packet leaving a port's transmitter (transmission start)."""

    time: float
    conn_id: int
    is_data: bool
    seq: int
    size: int
    uid: int


class SojournSample(NamedTuple):
    """One packet's time in the buffer (excludes its own transmission)."""

    departed_at: float
    wait: float
    is_data: bool
    conn_id: int


# Records are built with ``tuple.__new__(Record, (...))``: a NamedTuple's
# own ``__new__`` is a Python function, one frame per record; this is
# the C constructor it would have called.
_new = tuple.__new__
_DATA = PacketKind.DATA

#: Journal records folded per step: the consumed block is released
#: before the next is cut, so deriving never holds a whole journal and
#: the whole of what it becomes at once.
BLOCK = 8192


def _record_time(record: tuple) -> float:
    """A journal record's time: a port record ``(start, packet,
    duration)`` holds it first, a queue record ``(kind, time, packet,
    qlen)`` second."""
    return record[0] if len(record) == 3 else record[1]


class PortMonitor:
    """Queue, departure, sojourn, link and drop records of one port.

    ``lengths`` counts buffered *packets* (the paper's measure),
    ``byte_lengths`` buffered *bytes*: Section 4.2 notes the rapid
    square-wave drops "reflect the fact that the queue length is
    measured in the number of packets rather than in bytes" — an ACK
    cluster leaving barely moves the byte occupancy.  Packets that
    bypass the queue (arriving at an idle transmitter) count as zero
    wait — they are the self-clocked case.
    """

    lengths = Derived()
    byte_lengths = Derived()
    departures = Derived()
    samples = Derived()
    _intervals = Derived()  # (start, duration) per transmission

    def __init__(self, port: OutputPort, name: str | None = None,
                 drops: DropLog | None = None) -> None:
        self.port = port
        self.name = name or port.name
        self.drops = drops if drops is not None else DropLog()
        # Queue records ``(kind, now, packet, qlen)`` and port records
        # ``(now, packet, duration)``, in the order the sites fired.
        self._journal: list[tuple] = []
        self.lengths = StepSeries(name=f"{self.name}:qlen", initial_value=0.0)
        self.byte_lengths = StepSeries(name=f"{self.name}:qbytes", initial_value=0.0)
        self.departures: list[DepartureRecord] = []
        self.samples: list[SojournSample] = []
        self._intervals: list[tuple[float, float]] = []
        self._buffered_bytes = 0
        # uid -> buffer entry time, from the admit until the packet
        # starts transmission or is evicted; presence is what tells a
        # buffered drop victim from a refused arrival.
        self._entered: dict[int, float] = {}
        port.queue.observe(self._journal.append, drops=self._on_drop)
        port.on_transmission(self._journal.append)

    def _on_drop(self, record: tuple) -> None:
        _, time, packet, _ = record
        self._journal.append(record)
        is_data = packet.kind is _DATA
        self.drops.records.append(_new(DropRecord, (
            time, self.name, packet.conn_id, is_data,
            packet.seq if is_data else packet.ack, packet.is_retransmit)))

    def _derive(self) -> None:
        """Replay the journal through what an eager handler per site did."""
        journal = self._journal
        if not journal:
            return
        published = self.__dict__
        add_interval = published["_intervals"].append
        add_departure = published["departures"].append
        add_sample = published["samples"].append
        entered = self._entered
        stamp_of = entered.pop
        buffered = self._buffered_bytes
        while journal:
            block = journal[:BLOCK]
            del journal[:BLOCK]
            length_times, length_values, byte_times, byte_values = [], [], [], []
            for record in block:
                if len(record) == 3:
                    start, packet, duration = record
                    is_data = packet.kind is _DATA
                    add_interval((start, duration))
                    add_departure(_new(DepartureRecord, (
                        start, packet.conn_id, is_data,
                        packet.seq if is_data else packet.ack, packet.size,
                        packet.uid)))
                    add_sample(_new(SojournSample, (
                        start, start - stamp_of(packet.uid, start), is_data,
                        packet.conn_id)))
                    continue
                kind, time, packet, qlen = record
                if kind == ADMIT:
                    entered[packet.uid] = time
                    buffered += packet.size
                elif kind == TAKE:
                    # The entry stamp stays: the transmission that
                    # follows reads it.
                    buffered -= packet.size
                else:
                    # Random-drop queues evict *buffered* packets
                    # (admitted, never taken): their bytes and entry
                    # stamp must go with them.
                    if stamp_of(packet.uid, None) is not None:
                        buffered -= packet.size
                        byte_times.append(time)
                        byte_values.append(buffered)
                    continue
                length_times.append(time)
                length_values.append(qlen)
                byte_times.append(time)
                byte_values.append(buffered)
            published["lengths"].extend_columns(length_times, length_values)
            published["byte_lengths"].extend_columns(byte_times, byte_values)
        self._buffered_bytes = buffered

    # ------------------------------------------------------------------
    # Queue
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

    @property
    def data_packets(self) -> int:
        """DATA packets that started transmission."""
        return len(self.data_departures())

    @property
    def ack_packets(self) -> int:
        """ACK packets that started transmission."""
        return len(self.ack_departures())

    # ------------------------------------------------------------------
    # Link
    # ------------------------------------------------------------------
    @property
    def transmissions(self) -> int:
        """All packets that started transmission."""
        return (len(self.__dict__["_intervals"])
                + sum(len(record) == 3 for record in self._journal))

    def busy_time(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` spent transmitting.

        Reads the transmissions already derived, then the ones still
        pending in the journal, without folding it: a utilization read
        builds no departure record, sojourn sample or series.
        """
        if end <= start:
            raise AnalysisError(f"need end > start, got [{start}, {end}]")
        intervals = self.__dict__["_intervals"]
        journal = self._journal
        # A port serializes one packet at a time, so the transmissions
        # are disjoint and sorted by start: only the one straddling
        # ``start`` can begin before it, and none beginning at or after
        # ``end`` overlaps.  The derived ones all precede the pending
        # ones, and the sum stays one left-to-right Python float sum
        # over both — utilizations are hashed by the parity
        # fingerprints, and a pairwise (numpy) sum differs in the last
        # bit.
        lo = max(bisect_left(intervals, (start,)) - 1, 0)
        hi = bisect_left(intervals, (end,))
        total = 0.0
        for t0, duration in intervals[lo:hi]:
            overlap = min(t0 + duration, end) - max(t0, start)
            if overlap > 0:
                total += overlap
        lo = bisect_left(journal, start, key=_record_time)
        while lo > 0:
            lo -= 1
            if len(journal[lo]) == 3:
                break
        for record in islice(journal, lo,
                             bisect_left(journal, end, key=_record_time)):
            if len(record) == 3:
                t0, _, duration = record
                overlap = min(t0 + duration, end) - max(t0, start)
                if overlap > 0:
                    total += overlap
        return total

    def utilization(self, start: float, end: float) -> float:
        """Fraction of ``[start, end]`` the link was busy, in [0, 1]."""
        return self.busy_time(start, end) / (end - start)

    def idle_fraction(self, start: float, end: float) -> float:
        """1 - utilization over the window."""
        return 1.0 - self.utilization(start, end)

    def throughput_bps(self, start: float, end: float) -> float:
        """Delivered bits per second over the window (all packet kinds).

        Counts a transmission's bytes proportionally to its overlap with
        the window.
        """
        return self.busy_time(start, end) * self.port.bandwidth / (end - start)

    # ------------------------------------------------------------------
    # Sojourn
    # ------------------------------------------------------------------
    def waits(self, data_only: bool | None = None,
              start: float = 0.0, end: float = float("inf")) -> np.ndarray:
        """Waiting times in seconds.

        ``data_only=True`` keeps DATA packets, ``False`` keeps ACKs,
        ``None`` keeps both.
        """
        import numpy as np

        selected = [
            s.wait for s in self.samples
            if start <= s.departed_at < end
            and (data_only is None or s.is_data == data_only)
        ]
        return np.asarray(selected, dtype=float)

    def mean_wait(self, data_only: bool | None = None,
                  start: float = 0.0, end: float = float("inf")) -> float:
        """Mean buffer wait over a window (0.0 when no samples)."""
        waits = self.waits(data_only=data_only, start=start, end=end)
        return float(waits.mean()) if len(waits) else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PortMonitor({self.name!r}, points={len(self.lengths)}, "
                f"transmissions={self.transmissions})")


def effective_pipe_packets(
    physical_pipe: float,
    mean_ack_wait: float,
    data_tx_time: float,
) -> float:
    """The Section 4.2 effective pipe, in data packets.

    Queued ACK time adds to the round trip exactly like propagation
    delay would, so the pipe a connection must fill grows by
    ``mean_ack_wait / data_tx_time`` packets beyond the physical ``P``.
    """
    if data_tx_time <= 0:
        raise ValueError(f"data tx time must be positive, got {data_tx_time}")
    if mean_ack_wait < 0:
        raise ValueError(f"ACK wait cannot be negative, got {mean_ack_wait}")
    return physical_pipe + mean_ack_wait / data_tx_time
