"""Unit tests for repro.engine.simulator."""

import pytest

from repro.engine import EventPriority, Simulator
from repro.errors import SimulationError


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_run_until_advances_clock_even_when_drained(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_without_until_stops_at_last_event(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert sim.now == 3.0


class TestScheduling:
    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_zero_delay_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append(3))
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(2.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_same_time_fifo(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("late"), priority=EventPriority.LATE)
        sim.schedule(1.0, lambda: order.append("early"), priority=EventPriority.EARLY)
        sim.schedule(1.0, lambda: order.append("normal"))
        sim.run()
        assert order == ["early", "normal", "late"]

    def test_callback_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(sim.now)
            if n > 0:
                sim.schedule(1.0, lambda: chain(n - 1))

        sim.schedule(1.0, lambda: chain(3))
        sim.run()
        assert seen == [1.0, 2.0, 3.0, 4.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(True))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancelled_event_not_counted(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1

    def test_cancel_from_within_callback(self):
        sim = Simulator()
        fired = []
        victim = sim.schedule(2.0, lambda: fired.append("victim"))
        sim.schedule(1.0, lambda: victim.cancel())
        sim.run()
        assert fired == []


class TestRunControl:
    def test_until_excludes_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        sim.run()
        assert fired == [1, 5]

    def test_until_includes_events_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [2]

    def test_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4

    def test_stop_from_callback(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(1)
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_step_runs_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_reentrancy_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        event = sim.schedule(4.0, lambda: None)
        sim.schedule(7.0, lambda: None)
        assert sim.peek_time() == 4.0
        event.cancel()
        assert sim.peek_time() == 7.0

    def test_pending_events_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        victim = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        victim.cancel()
        assert sim.pending_events == 1
        assert sim.cancelled_pending == 1
        assert sim.calendar_size == 2


@pytest.mark.parametrize("strict", [False, True],
                         ids=["fast", "instrumented"])
class TestLoopSemantics:
    """Run-control semantics both drain loops must share (a strict
    simulator runs the instrumented loop)."""

    def test_budget_is_cumulative_across_runs(self, strict):
        sim = Simulator(strict=strict)
        for index in range(10):
            sim.schedule(float(index), lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4
        sim.run(max_events=4)
        assert sim.events_processed == 4
        sim.run(max_events=7)
        assert sim.events_processed == 7

    def test_spent_budget_does_not_jump_the_clock_past_pending_events(
            self, strict):
        sim = Simulator(strict=strict)
        fired = []
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run(until=10.0, max_events=1)
        assert sim.now == 1.0  # not 10.0: two events are still due
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert sim.now == 10.0

    def test_spent_budget_still_advances_over_an_empty_horizon(self, strict):
        sim = Simulator(strict=strict)
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        sim.schedule(50.0, lambda: None)
        sim.run(until=10.0, max_events=1)
        assert sim.now == 10.0

    def test_stop_from_callback(self, strict):
        sim = Simulator(strict=strict)
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: pytest.fail("ran past stop()"))
        sim.run()
        assert sim.now == 1.0
        assert sim.events_processed == 1


class _RecordingTracer:
    """Minimal DispatchTracer: remembers the labels it was shown."""

    def __init__(self):
        self.labels = []

    def dispatch(self, sim_time, wall_ns, label, calendar_size, sequence):
        self.labels.append(label)


@pytest.mark.parametrize("strict, traced", [
    (False, False), (True, False), (False, True), (True, True),
], ids=["bare", "strict", "traced", "strict+traced"])
class TestScheduledArguments:
    """``schedule``/``schedule_at`` carry the callback's positional
    arguments on the event; both drain loops deliver them."""

    @staticmethod
    def _sim(strict, traced):
        sim = Simulator(strict=strict)
        tracer = _RecordingTracer() if traced else None
        sim.set_tracer(tracer)
        return sim, tracer

    def test_schedule_delivers_arguments(self, strict, traced):
        sim, tracer = self._sim(strict, traced)
        seen = []
        event = sim.schedule(1.0, lambda a, b: seen.append((sim.now, a, b)),
                             "x", 2, label="pair",
                             priority=EventPriority.LATE)
        sim.schedule(1.0, lambda: seen.append((sim.now,)))
        assert event.args == ("x", 2)
        assert event.label == "pair" and event.priority == EventPriority.LATE
        sim.run()
        # LATE fires after the NORMAL event scheduled later at the same time.
        assert seen == [(1.0,), (1.0, "x", 2)]
        if tracer is not None:
            assert tracer.labels == ["", "pair"]

    def test_schedule_at_delivers_arguments(self, strict, traced):
        sim, _ = self._sim(strict, traced)
        seen = []
        sim.schedule_at(2.5, lambda *args: seen.append((sim.now, args)),
                        1, 2, 3, label="triple")
        sim.run()
        assert seen == [(2.5, (1, 2, 3))]

    def test_step_delivers_arguments(self, strict, traced):
        sim, _ = self._sim(strict, traced)
        seen = []
        sim.schedule(1.0, seen.append, "only")
        assert sim.step() is True
        assert seen == ["only"]

    def test_cancelled_event_never_calls(self, strict, traced):
        sim, tracer = self._sim(strict, traced)
        seen = []
        sim.schedule(1.0, seen.append, "kept")
        sim.schedule(1.0, seen.append, "cancelled").cancel()
        sim.schedule_at(2.0, seen.append, "cancelled too").cancel()
        sim.run()
        assert seen == ["kept"]
        assert sim.events_processed == 1
        if tracer is not None:
            assert len(tracer.labels) == 1

    def test_keywords_are_not_forwarded_to_the_callback(self, strict, traced):
        sim, _ = self._sim(strict, traced)
        seen = []

        def handler(*args, **kwargs):
            seen.append((args, kwargs))

        sim.schedule(0.0, handler, 1, label="l", priority=EventPriority.EARLY)
        sim.run()
        assert seen == [((1,), {})]


class TestCompaction:
    def test_manual_compact_drops_cancelled_entries(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for event in events[:4]:
            event.cancel()
        assert sim.compact() == 4
        assert sim.calendar_size == 6
        assert sim.cancelled_pending == 0
        sim.run()
        assert sim.events_processed == 6

    def test_compact_on_clean_calendar_is_a_noop(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.compact() == 0
        assert sim.calendar_size == 1

    def test_automatic_compaction_bounds_the_calendar(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None)
                  for i in range(1000)]
        for event in events[:600]:
            event.cancel()
        # Cancelling crossed the threshold, so dead entries were dropped.
        assert sim.calendar_size < 1000
        assert sim.pending_events == 400
        assert sim.calendar_size - sim.cancelled_pending == 400
        sim.run()
        assert sim.events_processed == 400

    def test_small_calendars_are_never_compacted(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        assert sim.calendar_size == 10  # below COMPACT_MIN_EVENTS
        assert sim.pending_events == 0
        sim.run()
        assert sim.events_processed == 0
        assert sim.calendar_size == 0
        assert sim.cancelled_pending == 0

    def test_timer_churn_stays_bounded(self):
        """The refreshed retransmit-timer pattern must not accumulate
        dead calendar entries."""
        sim = Simulator()
        stale = None
        for _ in range(10_000):
            if stale is not None:
                stale.cancel()
            stale = sim.schedule(1_000.0, lambda: None)
        assert sim.pending_events == 1
        assert sim.calendar_size < 1000
        sim.run()
        assert sim.events_processed == 1
        assert sim.calendar_size == 0

    def test_ordering_preserved_across_compaction(self):
        sim = Simulator()
        order = []
        keep = []
        for i in range(300):
            event = sim.schedule(float(i + 1), lambda i=i: order.append(i))
            if i % 3 == 0:
                keep.append(i)
            else:
                event.cancel()
        sim.run()
        assert order == keep

    def test_compaction_during_run_keeps_future_events(self):
        """A callback that triggers auto-compaction must not detach the
        running loop from the calendar: events scheduled afterwards (and
        events already pending) still execute."""
        sim = Simulator()
        fired = []

        def churn_and_reschedule():
            # Cross the compaction threshold from inside a callback.
            doomed = [sim.schedule(50.0, lambda: None) for _ in range(300)]
            for event in doomed:
                event.cancel()
            sim.schedule(1.0, lambda: fired.append("after-compaction"))

        sim.schedule(1.0, churn_and_reschedule)
        sim.schedule(10.0, lambda: fired.append("pre-existing"))
        sim.run()
        assert fired == ["after-compaction", "pre-existing"]
        assert sim.calendar_size == 0

    def test_peek_time_updates_cancelled_accounting(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.cancelled_pending == 1
        assert sim.peek_time() == 2.0
        assert sim.cancelled_pending == 0

    def test_cancel_after_firing_does_not_corrupt_accounting(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()
        assert sim.cancelled_pending == 0
