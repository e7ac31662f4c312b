"""The discrete-event simulation kernel.

The :class:`Simulator` keeps a calendar of scheduled calls in a binary
heap and advances virtual time by popping the earliest entry and
invoking its callback.  All model components (links, queues, TCP
endpoints, monitors) interact with the world only by scheduling events,
so a run is a pure function of its inputs: repeated runs produce
identical traces, which the reproduction experiments rely on.

Two calls put work on the calendar, one contract each:

- :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — work that
  may be revoked.  They return an :class:`~repro.engine.event.Event`
  whose :meth:`~repro.engine.event.Event.cancel` withdraws it, and take
  a ``priority``.  Timers, connection starts and the pacer use them.
- :meth:`Simulator.post` — fire-and-forget work at ``NORMAL`` priority.
  It returns nothing and builds no :class:`Event`.  Every per-packet hop
  (a port's ``txdone``, a link's ``arrive``, a host's ``proc``) is a
  post: nothing ever cancels one, and not constructing a handle is most
  of what a hop costs the calendar.

Both draw from one sequence counter, so same-timestamp order is
insertion order whichever call inserted.

Hot-path design — *bind once, branch never*:

- Every calendar entry is one tuple,
  ``(time, priority, sequence, callback, args, label, event)``, with
  ``event`` ``None`` for a post.  Heap sifting compares the leading
  ``(time, priority, sequence)`` at C speed (the sequence is unique, so
  no comparison reaches the callback), and dispatch reads the callback
  and its arguments off the tuple: an :class:`Event` is consulted only
  for its cancelled / fired bookkeeping.  The layout is private to this
  module.
- :meth:`run` samples the sanitizer flag and the tracer **once** and
  picks one of two drain loops.  The bare loop (:meth:`_drain_fast`)
  contains no strict checks, no tracer probes, and no observer code —
  hooks cost nothing when disabled.  :meth:`_drain_instrumented` is the
  same loop with the sanitizer check and the wall-clock sampling each
  guarded by a local around the callback.  Both execute events in
  exactly the same order with exactly the same state transitions; the
  instrumented loop only *adds* checks or sampling, never changes what
  runs.  The fast-path parity test, the differential test against the
  frozen ``benchmarks/baseline_kernel.py`` and ``repro parity --check``
  enforce this bit-for-bit.
- An entry carries the positional arguments of its callback
  (``post(delay, handler, packet)``), so model components schedule
  methods they bound once at construction — no closure is allocated and
  no extra frame entered per event — and :attr:`Simulator.now` is a
  plain attribute the drain loops write, not a property, so reading the
  clock in a handler is an attribute load.
- Cancelled events stay in the calendar (cancellation is O(1)) but are
  counted, and when they exceed :attr:`COMPACT_CANCELLED_FRACTION` of a
  sufficiently large calendar the heap is compacted in one pass.  Without
  this, refreshed retransmit timers leave a trail of dead entries that
  inflate every subsequent push/pop.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> def note(what):
...     fired.append((sim.now, what))
>>> _ = sim.schedule(1.5, note, "timer")
>>> sim.post(0.5, note, "hop")
>>> sim.run()
>>> fired
[(0.5, 'hop'), (1.5, 'timer')]
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter_ns
from typing import Any, Callable, Protocol

from repro.engine.event import Event, EventPriority
from repro.engine.sanitize import SanitizerError, sanitize_enabled
from repro.errors import SimulationError

__all__ = ["DispatchTracer", "Simulator"]

_NORMAL = int(EventPriority.NORMAL)
_NORMAL_MEMBER = EventPriority.NORMAL
_INF = math.inf
_isfinite = math.isfinite
_heappush = heapq.heappush
_heappop = heapq.heappop

#: One calendar entry: ``(time, priority, sequence, callback, args,
#: label, event)``; ``event`` is ``None`` for a :meth:`Simulator.post`.
_Entry = tuple[float, int, int, Callable[..., None], tuple[Any, ...], str,
               Event | None]


class DispatchTracer(Protocol):
    """What the engine needs from a tracer (see :mod:`repro.obs`).

    Defined as a protocol so the engine — the bottom layer — never
    imports the observability package that observes it.
    """

    def dispatch(self, sim_time: float, wall_ns: int, label: str,
                 calendar_size: int, sequence: int) -> None:
        """Record one executed event."""
        ...  # pragma: no cover


class Simulator:
    """A deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial virtual clock value in seconds.  Defaults to zero.
    strict:
        Enable the runtime invariant sanitizer for this simulator
        (see :mod:`repro.engine.sanitize`).  ``None`` (default) defers
        to the ``REPRO_SANITIZE`` environment variable.

    Attributes
    ----------
    now:
        Current virtual time in seconds.  Written only by the engine
        (the drain loops and the end-of-:meth:`run` clock advance);
        everything else reads it.
    """

    #: Calendar size below which compaction is never attempted.
    COMPACT_MIN_EVENTS = 128
    #: Cancelled fraction above which the calendar is compacted.
    COMPACT_CANCELLED_FRACTION = 0.5

    def __init__(self, start_time: float = 0.0, *,
                 strict: bool | None = None) -> None:
        self.now = float(start_time)
        self._heap: list[_Entry] = []
        self._sequence = 0
        self._running = False
        self._events_processed = 0
        self._stop_requested = False
        self._cancelled_pending = 0
        self._cancelled_total = 0
        self._compactions = 0
        self._strict = sanitize_enabled() if strict is None else bool(strict)
        self._tracer: DispatchTracer | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def strict(self) -> bool:
        """True when the runtime sanitizer checks this simulator's runs."""
        return self._strict

    @property
    def tracer(self) -> DispatchTracer | None:
        """The attached dispatch tracer, if any."""
        return self._tracer

    def set_tracer(self, tracer: DispatchTracer | None) -> None:
        """Attach (or with ``None`` detach) a dispatch tracer.

        The tracer is sampled once when :meth:`run` starts — the
        bare dispatch loop contains no tracer code at all (the fast
        path ``benchmarks/perf_gate.py`` holds against the frozen,
        hook-free kernel: ``engine.vs_frozen_kernel_pct``), so attaching or
        detaching from inside a callback takes effect on the next
        :meth:`run`/:meth:`step` call.  Tracing is observation-only;
        attaching a tracer never changes a run's trajectory.
        """
        self._tracer = tracer

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still in the calendar."""
        return len(self._heap) - self._cancelled_pending

    @property
    def cancelled_pending(self) -> int:
        """Number of cancelled events still occupying calendar slots."""
        return self._cancelled_pending

    @property
    def calendar_size(self) -> int:
        """Raw calendar length, cancelled entries included."""
        return len(self._heap)

    @property
    def cancelled_total(self) -> int:
        """Total events ever cancelled on this calendar (compacted or not)."""
        return self._cancelled_total

    @property
    def compactions(self) -> int:
        """Number of calendar compaction passes performed so far."""
        return self._compactions

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: EventPriority = EventPriority.NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Pass the handler's arguments here rather than closing over them
        (``schedule(delay, self._expire, conn)``, not a ``lambda``):
        the calendar entry carries them, so no closure is allocated and
        no extra frame entered.  ``priority`` and ``label`` are
        keyword-only and never reach the callback.

        Returns the :class:`Event`, whose :meth:`~Event.cancel` method can
        be used to revoke it (e.g. retransmit timers that get refreshed).
        Work nobody will revoke goes through :meth:`post`, which builds
        no :class:`Event`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        if self._strict and not _isfinite(time):
            raise SanitizerError(
                f"non-finite timestamp t={time} entering the calendar "
                f"(delay={delay}); model 'never' by not scheduling"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        prio = _NORMAL if priority is _NORMAL_MEMBER else int(priority)
        event = Event(time, prio, sequence, callback, label, self, args)
        _heappush(self._heap,
                  (time, prio, sequence, callback, args, label, event))
        return event

    def post(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> None:
        """Run ``callback(*args)`` ``delay`` seconds from now, irrevocably.

        The fire-and-forget twin of :meth:`schedule`: ``NORMAL``
        priority, no handle, nothing to cancel.  It draws from the same
        sequence counter, so a post and a schedule at one timestamp fire
        in the order they were made.  This is the per-packet hot path
        (every hop of every packet), so the push is inlined.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        if self._strict and not _isfinite(time):
            raise SanitizerError(
                f"non-finite timestamp t={time} entering the calendar "
                f"(delay={delay}); model 'never' by not scheduling"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        _heappush(self._heap,
                  (time, _NORMAL, sequence, callback, args, label, None))

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: EventPriority = EventPriority.NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} which is before now={self.now}"
            )
        time = float(time)
        if self._strict and not _isfinite(time):
            raise SanitizerError(
                f"non-finite timestamp t={time} entering the calendar; "
                "model 'never' by not scheduling"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        prio = int(priority)
        event = Event(time, prio, sequence, callback, label, self, args)
        _heappush(self._heap,
                  (time, prio, sequence, callback, args, label, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the calendar drains, ``until`` is reached, or
        ``max_events`` events have executed.

        ``max_events`` bounds the *cumulative* :attr:`events_processed`
        count, matching historical behavior: a second
        ``run(max_events=5)`` after five events have already executed
        does nothing.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return even if the calendar drained earlier, so utilization
        accounting over ``[0, until]`` is well defined.  The exceptions
        are :meth:`stop` and a spent ``max_events`` budget that leaves
        events at or before ``until`` pending: the clock then stays at
        the last executed event, so it never passes a pending one.

        Bind-once dispatch: the strict flag and the tracer are sampled
        here, once, to select the bare or the instrumented drain loop.
        The two differ only in the checks/instrumentation *around* each
        callback — dispatch order and state transitions are identical.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stop_requested = False
        try:
            if self._strict or self._tracer is not None:
                self._drain_instrumented(until, max_events)
            else:
                self._drain_fast(until, max_events)
        finally:
            self._running = False
        if until is not None and self.now < until and not self._stop_requested:
            # A spent event budget can leave live events at or before
            # `until`; jumping the clock over them would make the next
            # run step backwards in time.
            budget_spent = (max_events is not None
                            and self._events_processed >= max_events)
            next_time = self.peek_time() if budget_spent else None
            if next_time is None or next_time > until:
                self.now = until

    # Both drain loops keep `events_processed` in a local and write it
    # back in `finally` so counters survive a raising callback.  Nothing
    # in the tree reads `events_processed` mid-run (callbacks included),
    # so the deferred write-back is unobservable.  Cancelled pops never
    # consume `max_events` budget (they are skips, not executions).  A
    # post has no handle (`entry[6] is None`) and so no bookkeeping.

    def _drain_fast(self, until: float | None, max_events: int | None) -> None:
        """The bare loop: no sanitizer, no tracer — nothing but dispatch."""
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
                event = entry[6]
                if event is not None:
                    if event.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    event._fired = True
                self.now = entry[0]
                entry[3](*entry[4])
                processed += 1
                budget -= 1
        finally:
            self._events_processed = processed

    def _drain_instrumented(self, until: float | None,
                            max_events: int | None) -> None:
        """The bare loop plus per-pop sanitizer invariants (when strict)
        and/or wall-clock sampling around each callback (when traced)."""
        strict = self._strict
        tracer = self._tracer
        dispatch = None if tracer is None else tracer.dispatch
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
                event = entry[6]
                if event is not None and event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                if strict:
                    self._sanitize_pop(entry)
                self.now = entry[0]
                if event is not None:
                    event._fired = True
                if dispatch is None:
                    entry[3](*entry[4])
                else:
                    # +1: the popped entry itself still counts toward the
                    # calendar depth the handler ran at.
                    depth = len(heap) + 1
                    begin = perf_counter_ns()
                    entry[3](*entry[4])
                    dispatch(entry[0], perf_counter_ns() - begin,
                             entry[5], depth, entry[2])
                processed += 1
                budget -= 1
        finally:
            self._events_processed = processed

    def step(self) -> bool:
        """Execute exactly one (non-cancelled) event.

        Returns ``True`` if an event ran, ``False`` if the calendar is empty.
        """
        before = self._events_processed
        self._stop_requested = False
        self._drain_instrumented(None, before + 1)
        return self._events_processed > before

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    def peek_time(self) -> float | None:
        """Time of the next pending event, or ``None`` if none remain."""
        heap = self._heap
        while heap and (event := heap[0][6]) is not None and event.cancelled:
            _heappop(heap)
            self._cancelled_pending -= 1
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # Sanitizer
    # ------------------------------------------------------------------
    def _sanitize_pop(self, entry: _Entry) -> None:
        """Strict-mode invariants checked as an entry leaves the calendar.

        A pop behind the clock means the calendar order itself was
        corrupted (e.g. an entry injected directly into the heap); that
        holds for posts and handles alike.  For a handle, the entry
        snapshotted ``(time, priority, sequence)`` when the event was
        scheduled; divergence means somebody mutated the event's
        ordering fields afterwards, and a re-fire means one callback ran
        twice.  No lint rule duplicates these checks.
        """
        time, priority, sequence, event = entry[0], entry[1], entry[2], entry[6]
        if time < self.now:
            what = (repr(event) if event is not None
                    else f"post(seq={sequence}, {entry[5]!r})")
            raise SanitizerError(
                f"monotonic clock violation: popped event {what} at "
                f"t={time} with clock already at now={self.now}"
            )
        if event is None:
            return
        if (event.time != time or event.priority != priority
                or event.sequence != sequence):
            raise SanitizerError(
                "event ordering fields mutated after scheduling: heap entry "
                f"(t={time}, prio={priority}, seq={sequence}) vs event "
                f"(t={event.time}, prio={event.priority}, seq={event.sequence})"
            )
        if event._fired:
            raise SanitizerError(f"event {event!r} fired twice")

    # ------------------------------------------------------------------
    # Cancellation accounting
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Drop cancelled entries from the calendar and re-heapify.

        Returns the number of entries removed.  Safe to call at any time;
        :meth:`run` triggers it automatically via :meth:`Event.cancel`
        when the cancelled fraction crosses
        :attr:`COMPACT_CANCELLED_FRACTION`.
        """
        if not self._cancelled_pending:
            return 0
        heap = self._heap
        before = len(heap)
        # In place: the drain loops hold a local alias to the heap list
        # across callbacks, and a callback may trigger this compaction.
        heap[:] = [entry for entry in heap
                   if (event := entry[6]) is None or not event.cancelled]
        heapq.heapify(heap)
        self._cancelled_pending = 0
        self._compactions += 1
        return before - len(heap)

    def _event_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` for events owned by this calendar."""
        self._cancelled_pending += 1
        self._cancelled_total += 1
        heap_len = len(self._heap)
        if (heap_len >= self.COMPACT_MIN_EVENTS
                and self._cancelled_pending > heap_len * self.COMPACT_CANCELLED_FRACTION):
            self.compact()
