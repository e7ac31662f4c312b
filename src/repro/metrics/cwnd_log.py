"""Congestion-window tracing.

Records ``cwnd`` (and ``ssthresh``) as step series per connection —
the signal of the paper's Figures 2, 5 and 7 — plus the loss-detection
instants the synchronization analysis keys off.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Traces the congestion state of one adaptive sender."""

    def __init__(self, sender: Sender) -> None:
        self.conn_id = sender.conn_id
        self.cwnd = StepSeries(name=f"conn{sender.conn_id}:cwnd",
                               initial_value=sender.options.initial_cwnd)
        self.ssthresh = StepSeries(name=f"conn{sender.conn_id}:ssthresh",
                                   initial_value=sender.options.effective_initial_ssthresh)
        self.losses: list[LossEvent] = []
        self._record_cwnd = self.cwnd.record
        self._record_ssthresh = self.ssthresh.record
        sender.on_cwnd_change(self._on_cwnd)
        sender.on_loss_detected(self._on_loss)

    def _on_cwnd(self, time: float, cwnd: float, ssthresh: float) -> None:
        self._record_cwnd(time, cwnd)
        self._record_ssthresh(time, ssthresh)

    def _on_loss(self, time: float, trigger: str, seq: int) -> None:
        self.losses.append(LossEvent(time=time, conn_id=self.conn_id,
                                     trigger=trigger, seq=seq))

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
