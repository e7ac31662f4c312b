"""The committed perf baseline: a frozen copy of the engine fast path.

This module is the *reference side* of the relative perf-regression
gate (see ``docs/performance.md``).  It is a self-contained snapshot of
the pure-Python bind-once dispatch kernel — the ``Event`` struct, the
schedule hot path, the bare drain loop, and the cancelled-entry
compaction — with **no** imports from ``repro``, so it stays exactly as
fast as the day it was committed no matter what happens to the live
tree.

The copy is deliberately *faithful*, not idealized: ``schedule`` keeps
the negative-delay guard, the (false) strict probe, the priority
normalization, and the event-factory indirection of the shipped
method, because the gate measures drift of the shipped kernel against
its own frozen self.  Strip those and the baseline becomes a lower
bound the live code can never reach, the measured "regression" sits
permanently above zero, and the gate's budget stops meaning anything.

The benchmark suite (``benchmarks/suite``, metric
``engine.vs_frozen_kernel_pct``) runs identical workloads on this kernel
and on the shipped :class:`repro.engine.simulator.Simulator` in
interleaved pairs; the median paired ratio is the shipped kernel's
regression relative to this baseline.  Because both sides run in the same process on the same
machine in the same minute, the number is machine-independent in a way
the absolute events-per-second figures never were.

Updating this file is how the baseline is legitimately moved: when the
live kernel gets *faster*, copy the new fast path here in the same PR
and say so (the gate is relative, so a stale slow baseline would let
real regressions hide inside the headroom).  Never touch it to make a
failing gate pass.

Frozen from: the PR 6 hot-path rebuild (bind-once dispatch loops,
hoisted schedule constants).
"""

from __future__ import annotations

import enum
import heapq
import math
from typing import Callable

__all__ = ["BaselineEvent", "BaselineEventPriority", "BaselineSimulator"]

_NORMAL = 1
_INF = math.inf
_isfinite = math.isfinite
_heappush = heapq.heappush
_heappop = heapq.heappop


class BaselineEventPriority(enum.IntEnum):
    """Frozen twin of ``repro.engine.event.EventPriority``."""

    EARLY = 0
    NORMAL = 1
    LATE = 2


_NORMAL_MEMBER = BaselineEventPriority.NORMAL


class BaselineEvent:
    """Frozen twin of ``repro.engine.event.Event`` (hot fields only)."""

    __slots__ = ("time", "priority", "sequence", "callback", "label",
                 "cancelled", "_fired", "_owner")

    def __init__(self, time: float, priority: int, sequence: int,
                 callback: Callable[[], None], label: str = "",
                 owner: "BaselineSimulator | None" = None) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False
        self._fired = False
        self._owner = owner

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        owner = self._owner
        if owner is not None and not self._fired:
            owner._event_cancelled()


class BaselineSimulator:
    """Frozen copy of the shipped simulator's untraced, non-strict path."""

    COMPACT_MIN_EVENTS = 128
    COMPACT_CANCELLED_FRACTION = 0.5

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, BaselineEvent]] = []
        self._sequence = 0
        self._events_processed = 0
        self._stop_requested = False
        self._cancelled_pending = 0
        # Mirrors the shipped bind-once resolution (non-strict, pure).
        self._strict = False
        self._event_factory = BaselineEvent

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None], *,
                 priority: BaselineEventPriority = BaselineEventPriority.NORMAL,
                 label: str = "") -> BaselineEvent:
        # Faithful frozen copy of Simulator.schedule (guards included).
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        if self._strict and not _isfinite(time):
            raise ValueError(f"non-finite timestamp t={time}")
        sequence = self._sequence
        self._sequence = sequence + 1
        prio = _NORMAL if priority is _NORMAL_MEMBER else int(priority)
        event = self._event_factory(time, prio, sequence, callback, label, self)
        _heappush(self._heap, (time, prio, sequence, event))
        return event

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        # Frozen copy of Simulator._drain_fast plus the until-advance.
        self._stop_requested = False
        heap = self._heap
        pop = _heappop
        until_t = _INF if until is None else until
        processed = self._events_processed
        budget = -1 if max_events is None else max(max_events - processed, 0)
        try:
            while heap:
                if self._stop_requested or budget == 0:
                    break
                entry = heap[0]
                if entry[0] > until_t:
                    break
                pop(heap)
                event = entry[3]
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                self._now = entry[0]
                event._fired = True
                event.callback()
                processed += 1
                budget -= 1
        finally:
            self._events_processed = processed
        if until is not None and self._now < until and not self._stop_requested:
            self._now = until

    def stop(self) -> None:
        self._stop_requested = True

    def compact(self) -> int:
        if not self._cancelled_pending:
            return 0
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._cancelled_pending = 0
        return before - len(heap)

    def _event_cancelled(self) -> None:
        self._cancelled_pending += 1
        heap_len = len(self._heap)
        if (heap_len >= self.COMPACT_MIN_EVENTS
                and self._cancelled_pending > heap_len * self.COMPACT_CANCELLED_FRACTION):
            self.compact()
