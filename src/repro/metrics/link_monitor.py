"""Link-utilization accounting.

Utilization over a window ``[t0, t1]`` is the fraction of that interval
the port's transmitter spent serializing bits.  We log every
transmission as a ``(start, duration)`` interval and integrate the
overlap with the query window; this is exact, not sampled, so the
small utilization differences the paper reports (e.g. 70% vs 60%) are
measured without estimator noise.
"""

from __future__ import annotations

from repro.errors import AnalysisError
from repro.net.packet import Packet, PacketKind
from repro.net.port import OutputPort

__all__ = ["LinkMonitor"]


class LinkMonitor:
    """Tracks busy intervals of one output port."""

    def __init__(self, port: OutputPort, name: str | None = None) -> None:
        self.port = port
        self.name = name or port.name
        self._intervals: list[tuple[float, float]] = []  # (start, duration)
        self._data_packets = 0
        self._ack_packets = 0
        self._data_bytes = 0
        self._ack_bytes = 0
        port.on_transmission(self._on_transmission)

    def _on_transmission(self, start: float, duration: float, packet: Packet) -> None:
        self._intervals.append((start, duration))
        if packet.kind is PacketKind.DATA:
            self._data_packets += 1
            self._data_bytes += packet.size
        else:
            self._ack_packets += 1
            self._ack_bytes += packet.size

    # ------------------------------------------------------------------
    @property
    def data_packets(self) -> int:
        """DATA packets that started transmission."""
        return self._data_packets

    @property
    def ack_packets(self) -> int:
        """ACK packets that started transmission."""
        return self._ack_packets

    @property
    def transmissions(self) -> int:
        """All packets that started transmission."""
        return len(self._intervals)

    def busy_time(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` spent transmitting."""
        if end <= start:
            raise AnalysisError(f"need end > start, got [{start}, {end}]")
        total = 0.0
        for t0, duration in self._intervals:
            t1 = t0 + duration
            overlap = min(t1, end) - max(t0, start)
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
        if end <= start:
            raise AnalysisError(f"need end > start, got [{start}, {end}]")
        bits = self.busy_time(start, end) * self.port.bandwidth
        return bits / (end - start)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinkMonitor({self.name!r}, transmissions={self.transmissions})"
