"""Congestion-window tracing.

Records ``cwnd`` (and ``ssthresh``) as step series per connection —
the signal of the paper's Figures 2, 5 and 7 — plus the loss-detection
instants the synchronization analysis keys off.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.metrics.journal import Derived
from repro.metrics.timeseries import StepSeries
from repro.tcp.sender import Sender

__all__ = ["CwndLog", "LossEvent"]


@dataclass(frozen=True)
class LossEvent:
    """One loss detection at a sender."""

    time: float
    conn_id: int
    trigger: str  # "dupack" or "timeout"
    seq: int


class CwndLog:
    """Traces the congestion state of one adaptive sender: its ``(now,
    cwnd, ssthresh)`` records are all numbers, so the sink is the
    ``extend`` of an ``array('d')`` whose strided columns become the two
    series (:mod:`repro.metrics.journal`)."""

    cwnd = Derived()
    ssthresh = Derived()
    losses = Derived()
    # A log preloaded without a sender has nothing pending.
    _journal: array | tuple = ()
    _loss_journal: list | tuple = ()

    def __init__(self, sender: Sender) -> None:
        self.conn_id = sender.conn_id
        self._journal = array("d")
        self._loss_journal: list[tuple[float, str, int]] = []
        self.cwnd = StepSeries(name=f"conn{sender.conn_id}:cwnd",
                               initial_value=sender.options.initial_cwnd)
        self.ssthresh = StepSeries(name=f"conn{sender.conn_id}:ssthresh",
                                   initial_value=sender.options.effective_initial_ssthresh)
        self.losses: list[LossEvent] = []
        sender.on_cwnd_change(self._journal.extend)
        sender.on_loss_detected(self._loss_journal.append)

    def _derive(self) -> None:
        journal = self._journal
        if journal:
            times = journal[0::3]
            self.__dict__["cwnd"].extend_columns(times, journal[1::3])
            self.__dict__["ssthresh"].extend_columns(times, journal[2::3])
            del journal[:]
        if self._loss_journal:
            self.__dict__["losses"].extend(
                LossEvent(time, self.conn_id, trigger, seq)
                for time, trigger, seq in self._loss_journal)
            self._loss_journal.clear()

    # ------------------------------------------------------------------
    @property
    def loss_times(self) -> list[float]:
        """Instants at which this sender detected a loss."""
        return [event.time for event in self.losses]

    def max_cwnd(self, start: float, end: float) -> float:
        """Largest cwnd reached in a window."""
        return self.cwnd.max_in(start, end)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CwndLog(conn={self.conn_id}, points={len(self.cwnd)})"
