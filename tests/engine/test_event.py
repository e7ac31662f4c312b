"""Unit tests for repro.engine.event."""

import pytest

from repro.engine.event import Event, EventPriority


def _event(time=0.0, priority=EventPriority.NORMAL, seq=0, label=""):
    return Event(time=time, priority=int(priority), sequence=seq,
                 callback=lambda: None, label=label)


class TestOrdering:
    def test_earlier_time_sorts_first(self):
        assert _event(time=1.0) < _event(time=2.0)

    def test_same_time_lower_priority_value_first(self):
        early = _event(time=1.0, priority=EventPriority.EARLY)
        late = _event(time=1.0, priority=EventPriority.LATE)
        assert early < late

    def test_same_time_same_priority_fifo_by_sequence(self):
        first = _event(time=1.0, seq=1)
        second = _event(time=1.0, seq=2)
        assert first < second

    def test_priority_enum_order(self):
        assert EventPriority.EARLY < EventPriority.NORMAL < EventPriority.LATE

    def test_time_dominates_priority(self):
        late_but_early_time = _event(time=1.0, priority=EventPriority.LATE)
        early_but_late_time = _event(time=2.0, priority=EventPriority.EARLY)
        assert late_but_early_time < early_but_late_time


class TestLifecycle:
    def test_new_event_is_pending(self):
        assert _event().pending

    def test_cancel_clears_pending(self):
        event = _event()
        event.cancel()
        assert event.cancelled
        assert not event.pending

    def test_fired_event_not_pending(self):
        event = _event()
        event._fired = True
        assert not event.pending

    def test_cancel_is_idempotent(self):
        event = _event()
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_callback_not_part_of_comparison(self):
        a = Event(time=1.0, priority=1, sequence=1, callback=lambda: 1)
        b = Event(time=1.0, priority=1, sequence=1, callback=lambda: 2)
        assert not a < b and not b < a


class TestFootprint:
    def test_events_are_slotted(self):
        event = _event()
        assert not hasattr(event, "__dict__")

    def test_fired_flag_is_a_real_field(self):
        event = _event()
        assert event._fired is False
        event._fired = True
        assert event._fired is True

    def test_double_cancel_notifies_owner_once(self):
        calls = []

        class Owner:
            def _event_cancelled(self):
                calls.append(1)

        event = _event()
        event._owner = Owner()
        event.cancel()
        event.cancel()
        assert calls == [1]
