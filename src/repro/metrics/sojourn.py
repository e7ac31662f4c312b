"""Per-packet queueing-delay (sojourn) measurement.

Section 4.2's key quantity: "whenever an ACK packet has to wait in a
queue, the queueing delay has the same effect as increasing the pipe
size."  A :class:`SojournMonitor` pairs each packet's buffer entry with
its transmission start and records the wait, separated by packet kind,
so the *effective pipe* inflation caused by queued ACKs is directly
measurable.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.net.packet import Packet, PacketKind
from repro.net.port import OutputPort

__all__ = ["SojournMonitor", "SojournSample", "effective_pipe_packets"]


class SojournSample(NamedTuple):
    """One packet's time in the buffer (excludes its own transmission)."""

    departed_at: float
    wait: float
    is_data: bool
    conn_id: int


class SojournMonitor:
    """Measures buffer waiting times at one output port.

    Packets that bypass the queue (arriving at an idle transmitter)
    count as zero wait — they are the self-clocked case.
    """

    def __init__(self, port: OutputPort, name: str | None = None) -> None:
        self.port = port
        self.name = name or port.name
        self.samples: list[SojournSample] = []
        self._entered: dict[int, float] = {}
        port.queue.on_enqueue(self._on_enqueue)
        # Random-drop queues evict *buffered* packets (enqueued, never
        # departing); watch drops so their entry stamps cannot leak.
        port.queue.on_drop(self._on_drop)
        port.on_departure(self._on_departure)

    def _on_enqueue(self, time: float, packet: Packet) -> None:
        self._entered[packet.uid] = time

    def _on_drop(self, time: float, packet: Packet) -> None:
        self._entered.pop(packet.uid, None)

    def _on_departure(self, time: float, packet: Packet) -> None:
        entered = self._entered.pop(packet.uid, time)
        self.samples.append(SojournSample(
            time, time - entered, packet.kind is PacketKind.DATA,
            packet.conn_id))

    # ------------------------------------------------------------------
    def waits(self, data_only: bool | None = None,
              start: float = 0.0, end: float = float("inf")) -> np.ndarray:
        """Waiting times in seconds.

        ``data_only=True`` keeps DATA packets, ``False`` keeps ACKs,
        ``None`` keeps both.
        """
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
