"""A paced fixed window — the paper's counterfactual.

Section 3.1 defines a *pacing* congestion control algorithm as one
where packets are "paced out according to some other criteria (such as,
for example, an estimate of the network bottleneck's transmission
rate)", and conjectures that **any nonpaced window-based algorithm**
exhibits clustering and hence ACK-compression.  The contrapositive is
testable: a sender that spaces its transmissions by the bottleneck data
transmission time should neither cluster nor induce ACK-compression.

:class:`PacedControl` is :class:`~repro.tcp.congestion.fixed.FixedWindowControl`
with one difference — *when* the window is filled.  It takes the
transport's fill seam (:meth:`CongestionControl.bind_fill`): wherever a
nonpaced flow would burst the whole usable window, a paced flow sends
at most one packet, never closer than ``pace_interval`` seconds to the
previous one however bunched its ACK arrivals are, and books a wake-up
for the next slot while window remains.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.errors import ProtocolError
from repro.tcp.congestion.fixed import FixedWindowControl

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.event import Event
    from repro.engine.simulator import Simulator
    from repro.tcp.sender import Sender

__all__ = ["PacedControl"]


class PacedControl(FixedWindowControl):
    """A constant window-``W`` policy whose sends are spaced in time.

    Parameters
    ----------
    pace_interval:
        Minimum spacing between consecutive transmissions, typically the
        bottleneck's data-packet transmission time (the "estimate of the
        network bottleneck's transmission rate" the paper suggests).
    """

    __slots__ = ("pace_interval", "_next_send", "_wake")

    def __init__(self, window: int, pace_interval: float) -> None:
        super().__init__(window)
        if pace_interval <= 0:
            raise ProtocolError(f"pace interval must be positive, got {pace_interval}")
        self.pace_interval = float(pace_interval)
        self._next_send = 0.0
        self._wake: Event | None = None

    def bind_fill(self, sim: "Simulator", t: "Sender") -> Callable[[], None]:
        return partial(self._pump, sim, t)

    def _pump(self, sim: "Simulator", t: "Sender") -> None:
        """Send if the window and the pacing clock both allow it."""
        if t.packets_out >= self.window:
            return
        now = sim.now
        if now + 1e-12 >= self._next_send:
            t.send_next()
            self._next_send = now + self.pace_interval
            if t.packets_out >= self.window:
                return
        # Window remains but the clock does not allow it yet: one
        # wake-up at the next slot, unless one is already pending (an
        # event stops being pending the moment it is dispatched).
        if self._wake is None or not self._wake.pending:
            self._wake = sim.schedule_at(
                max(self._next_send, now), self._pump, sim, t,
                label=f"conn{t.conn_id}:pace")
