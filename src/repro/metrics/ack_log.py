"""ACK arrival tracing at the source.

ACK-compression is defined at the *source*: ACKs that left the receiver
spaced one data-packet transmission time apart arrive bunched together
after traversing a non-empty queue.  :class:`AckArrivalLog` records each
ACK's arrival instant at the sender so the analysis layer can compute
inter-arrival statistics and compression ratios.  It also journals the
RTT samples the sender's estimator accepts (Karn-filtered), which the
estimator itself consumes and discards.
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
    """Records the ACK arrival process and the accepted RTT samples of
    one sender: its ``(now, ack, uid)`` and ``(now, rtt_seconds)``
    records are all numbers, so each sink is the ``extend`` of an
    ``array('d')`` (:mod:`repro.metrics.journal`)."""

    arrivals = Derived()
    #: Accepted RTT samples in seconds, in the order the sender took them.
    rtt_samples = Derived()
    # A log preloaded without a sender has nothing pending.
    _journal: array | tuple = ()
    _rtt_journal: array | tuple = ()

    def __init__(self, sender: Sender) -> None:
        self.conn_id = sender.conn_id
        self.arrivals: list[AckArrival] = []
        self.rtt_samples: list[float] = []
        self._journal = array("d")
        self._rtt_journal = array("d")
        sender.on_ack(self._journal.extend)
        sender.on_rtt_sample(self._rtt_journal.extend)

    def _derive(self) -> None:
        journal = self._journal
        if journal:
            # tuple.__new__ is the C constructor AckArrival's own (Python)
            # __new__ would call: no frame per ACK.
            self.__dict__["arrivals"].extend(map(
                _new_arrival, zip(journal[0::3], map(int, journal[1::3]))))
            del journal[:]
        rtt = self._rtt_journal
        if rtt:
            self.__dict__["rtt_samples"].extend(rtt[1::2])
            del rtt[:]

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
