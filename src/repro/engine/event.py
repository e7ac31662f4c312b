"""Event primitives for the discrete-event engine.

An :class:`Event` is a callback, plus the positional arguments it will be
called with, scheduled at a simulated time.  Events are totally ordered
by ``(time, priority, sequence)`` so that simulations are deterministic:
two events at the same timestamp always fire in the order they were
scheduled (unless a priority says otherwise).

:class:`Event` is a handwritten ``__slots__`` class rather than a
dataclass: simulations allocate millions of these, and the constructor
is on the scheduling hot path.  Folding the owning simulator into
``__init__`` (instead of a post-construction attribute write) and
skipping dataclass machinery keeps per-event cost minimal.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.engine.simulator import Simulator


class EventPriority(enum.IntEnum):
    """Tie-break classes for events scheduled at the same instant.

    Lower values fire first.  The default for everything is ``NORMAL``;
    monitors that want to observe state *after* all same-time activity
    settled use ``LATE``, and bookkeeping that must precede packet motion
    (e.g. timer ticks) can use ``EARLY``.
    """

    EARLY = 0
    NORMAL = 1
    LATE = 2


class Event:
    """A single scheduled call, ``callback(*args)``.

    Instances are created by :meth:`repro.engine.simulator.Simulator.schedule`
    and should not be constructed directly.  The comparison order —
    ``(time, priority, sequence)`` — is the execution order.  Carrying
    the arguments on the event is what lets handlers be scheduled as
    pre-bound methods instead of a fresh closure per event.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "args", "label",
                 "cancelled", "_fired", "_owner")

    def __init__(self, time: float, priority: int, sequence: int,
                 callback: Callable[..., None], label: str = "",
                 owner: "Simulator | None" = None,
                 args: tuple[Any, ...] = ()) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.label = label
        self.cancelled = False
        self._fired = False
        self._owner = owner

    # ------------------------------------------------------------------
    # Ordering: (time, priority, sequence), matching the heap tuples.
    # ------------------------------------------------------------------
    def _key(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.sequence)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other: "Event") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Event") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Event") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Event") -> bool:
        return self._key() >= other._key()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Mark the event so it is skipped when popped from the calendar.

        The owning simulator (if any) is notified so it can account for
        the dead entry and compact its heap when too many accumulate.
        """
        if self.cancelled:
            return
        self.cancelled = True
        owner = self._owner
        if owner is not None and not self._fired:
            owner._event_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return not self.cancelled and not self._fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.sequence}, {self.label!r}, {state})"
