"""ACK arrival tracing at the source.

ACK-compression is defined at the *source*: ACKs that left the receiver
spaced one data-packet transmission time apart arrive bunched together
after traversing a non-empty queue.  :class:`AckArrivalLog` records each
ACK's arrival instant at the sender so the analysis layer can compute
inter-arrival statistics and compression ratios.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.metrics.journal import Derived
from repro.tcp.sender import Sender

__all__ = ["AckArrivalLog", "AckArrival"]


class AckArrival(NamedTuple):
    """One ACK reaching the sending endpoint."""

    time: float
    ack: int


_new_arrival = partial(tuple.__new__, AckArrival)


class AckArrivalLog:
    """Records the ACK arrival process of one sender: its ``(now, ack,
    uid)`` records are all numbers, so the sink is the ``extend`` of an
    ``array('d')`` (:mod:`repro.metrics.journal`)."""

    arrivals = Derived()
    # A log restored from disk or preloaded has no sender: nothing pending.
    _journal: array | tuple = ()

    def __init__(self, sender: Sender) -> None:
        self.conn_id = sender.conn_id
        self.arrivals: list[AckArrival] = []
        self._journal = array("d")
        sender.on_ack(self._journal.extend)

    def _derive(self) -> None:
        journal = self._journal
        if not journal:
            return
        # tuple.__new__ is the C constructor AckArrival's own (Python)
        # __new__ would call: no frame per ACK.
        self.__dict__["arrivals"].extend(map(
            _new_arrival, zip(journal[0::3], map(int, journal[1::3]))))
        del journal[:]

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
