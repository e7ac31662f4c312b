"""Timers built on the event calendar.

Two flavours:

:class:`OneShotTimer`
    A restartable single-fire timer (used for delayed-ACK timeouts).

:class:`CoarseTimer`
    Emulates BSD's coarse-grained retransmission timer.  4.3BSD ran the
    TCP slow timer every 500 ms and counted ticks; a timeout armed for
    ``n`` ticks therefore fires between ``(n-1) * 0.5 s`` and ``n * 0.5 s``
    after arming depending on phase.  This granularity matters for Tahoe
    dynamics — timeouts quantized to half-second boundaries are part of
    why loss recovery after a double drop is so slow (Section 4.3.1 of
    the paper).
"""

from __future__ import annotations

from typing import Callable

from repro.engine.event import Event, EventPriority
from repro.engine.simulator import Simulator

__all__ = ["OneShotTimer", "CoarseTimer", "BSD_TICK"]

BSD_TICK = 0.5  # seconds per slow-timeout tick in 4.3BSD


class OneShotTimer:
    """A cancellable, restartable single-shot timer."""

    def __init__(self, sim: Simulator, callback: Callable[[], None], label: str = "timer") -> None:
        self._sim = sim
        self._callback = callback
        self._label = label
        self._event: Event | None = None

    @property
    def armed(self) -> bool:
        """True if the timer will fire unless cancelled or restarted."""
        return self._event is not None and self._event.pending

    @property
    def expiry(self) -> float | None:
        """Absolute virtual time of the pending expiry, if armed."""
        return self._event.time if self.armed and self._event else None

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire, label=self._label)

    def cancel(self) -> None:
        """Disarm the timer if armed; no-op otherwise."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class CoarseTimer:
    """A tick-counting timer with BSD slow-timeout semantics.

    The global tick train runs at a fixed period aligned to t=0.  Arming
    for ``n`` ticks means "fire on the n-th tick boundary from now",
    which is between ``(n-1)*period`` and ``n*period`` seconds away.
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], None],
        period: float = BSD_TICK,
        label: str = "coarse-timer",
    ) -> None:
        if period <= 0:
            raise ValueError(f"tick period must be positive, got {period}")
        self._sim = sim
        self._callback = callback
        self._period = period
        self._label = label
        self._event: Event | None = None

    @property
    def period(self) -> float:
        """Seconds per tick."""
        return self._period

    @property
    def armed(self) -> bool:
        """True if a timeout is pending."""
        return self._event is not None and self._event.pending

    def ticks_for(self, seconds: float) -> int:
        """Convert a duration into a tick count, rounding up, minimum 1."""
        if seconds <= 0:
            return 1
        ticks = int(seconds / self._period)
        if ticks * self._period < seconds:
            ticks += 1
        return max(ticks, 1)

    def start_ticks(self, ticks: int) -> None:
        """Arm the timer to fire on the ``ticks``-th tick boundary from now.

        A re-arm that lands on the boundary already armed is a no-op: the
        pending event, and with it its place among same-time events, is
        kept from the first arm.
        """
        if ticks < 1:
            raise ValueError(f"tick count must be >= 1, got {ticks}")
        now = self._sim.now
        # Index of the next tick boundary strictly after `now`.
        next_boundary = int(now / self._period) + 1
        fire_at = (next_boundary + ticks - 1) * self._period
        # Re-arms are batched per tick boundary: a Tahoe sender restarts
        # its retransmit timer on every ACK, but within one tick period
        # every restart quantizes to the same boundary.  Keeping the
        # already-armed event avoids a cancel + reschedule per ACK (the
        # dominant source of cancelled-entry churn in the calendar).
        # The kept event also keeps its *first-arm* sequence number, so
        # timers expiring on one boundary fire in first-arm order, not
        # last-arm order as cancel + reschedule would give.  Dynamics
        # with many same-tick expirations depend on it (50 drop-tail
        # flows on the four-switch chain do; none of the 11 parity
        # scenarios does) — see docs/algorithms.md.
        # Both sides of the comparison come from the identical expression
        # over the same period, so float equality is exact here.
        event = self._event
        if event is not None and event.pending and event.time == fire_at:
            return
        self.cancel()
        self._event = self._sim.schedule_at(
            fire_at, self._fire, priority=EventPriority.EARLY, label=self._label
        )

    def start_seconds(self, seconds: float) -> None:
        """Arm using a duration, quantized up to whole ticks."""
        self.start_ticks(self.ticks_for(seconds))

    def cancel(self) -> None:
        """Disarm if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
