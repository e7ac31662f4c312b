"""ACK arrival tracing at the source.

ACK-compression is defined at the *source*: ACKs that left the receiver
spaced one data-packet transmission time apart arrive bunched together
after traversing a non-empty queue.  :class:`AckArrivalLog` records each
ACK's arrival instant at the sender so the analysis layer can compute
inter-arrival statistics and compression ratios.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.net.packet import Packet
from repro.tcp.sender import Sender

__all__ = ["AckArrivalLog", "AckArrival"]


class AckArrival(NamedTuple):
    """One ACK reaching the sending endpoint."""

    time: float
    ack: int


class AckArrivalLog:
    """Records the ACK arrival process of one sender."""

    def __init__(self, sender: Sender) -> None:
        self.conn_id = sender.conn_id
        self.arrivals: list[AckArrival] = []
        sender.on_ack(self._on_ack)

    def _on_ack(self, time: float, packet: Packet) -> None:
        # tuple.__new__ is the C constructor AckArrival's own (Python)
        # __new__ would call: no frame per ACK.
        self.arrivals.append(tuple.__new__(AckArrival, (time, packet.ack)))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def times(self) -> np.ndarray:
        """Arrival instants as an array."""
        return np.asarray([a.time for a in self.arrivals], dtype=float)

    def inter_arrival_times(self, start: float = 0.0, end: float = float("inf")) -> np.ndarray:
        """Gaps between consecutive ACK arrivals within a window."""
        times = self.times
        mask = (times >= start) & (times < end)
        selected = times[mask]
        if len(selected) < 2:
            return np.empty(0, dtype=float)
        return np.diff(selected)
