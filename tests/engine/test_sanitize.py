"""Runtime sanitizer invariants on the event engine (strict mode)."""

import heapq

import pytest

from repro.engine import Simulator
from repro.engine.event import Event
from repro.engine.sanitize import SANITIZE_ENV, sanitize_enabled
from repro.errors import SanitizerError, SimulationError


def _noop():
    pass


class TestEnablement:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert not sanitize_enabled()
        assert not Simulator().strict

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert sanitize_enabled()
        assert Simulator().strict

    @pytest.mark.parametrize("value", ["0", "false", "", "off"])
    def test_falsy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert not sanitize_enabled()
        assert not Simulator().strict

    def test_explicit_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert not Simulator(strict=False).strict
        monkeypatch.delenv(SANITIZE_ENV)
        assert Simulator(strict=True).strict


class TestFiniteTimestamps:
    def test_strict_rejects_infinite_delay(self):
        sim = Simulator(strict=True)
        with pytest.raises(SanitizerError, match="non-finite"):
            sim.schedule(float("inf"), _noop)

    def test_strict_rejects_nan_absolute_time(self):
        sim = Simulator(strict=True)
        with pytest.raises(SanitizerError, match="non-finite"):
            sim.schedule_at(float("nan"), _noop)

    def test_non_strict_accepts_infinite_delay(self):
        event = Simulator(strict=False).schedule(float("inf"), _noop)
        assert event.time == float("inf")

    @pytest.mark.parametrize("delay", [float("inf"), float("nan")])
    def test_strict_rejects_non_finite_post(self, delay):
        sim = Simulator(strict=True)
        with pytest.raises(SanitizerError, match="non-finite"):
            sim.post(delay, _noop)
        assert sim.calendar_size == 0


class TestPost:
    def test_negative_delay_is_a_simulation_error(self):
        for strict in (False, True):
            sim = Simulator(strict=strict)
            with pytest.raises(SimulationError, match="into the past"):
                sim.post(-1e-9, _noop)
            assert sim.calendar_size == 0

    def test_post_returns_no_handle_and_fires(self):
        sim = Simulator(strict=True)
        fired = []
        assert sim.post(0.25, fired.append, "hop", label="x:arrive") is None
        sim.run()
        assert fired == ["hop"] and sim.now == 0.25
        assert sim.events_processed == 1


class TestPopInvariants:
    def test_past_event_injected_into_heap_trips_monotonic_check(self):
        sim = Simulator(strict=True)
        sim.schedule(1.0, _noop)
        sim.run()
        assert sim.now == 1.0
        stale = Event(0.5, 1, 999, _noop)
        heapq.heappush(sim._heap, (0.5, 1, 999, _noop, (), "", stale))
        with pytest.raises(SanitizerError, match="monotonic clock violation"):
            sim.run()

    def test_past_post_injected_into_heap_trips_monotonic_check(self):
        sim = Simulator(strict=True)
        sim.post(1.0, _noop)
        sim.run()
        assert sim.now == 1.0
        heapq.heappush(sim._heap, (0.5, 1, 999, _noop, (), "x:arrive", None))
        with pytest.raises(SanitizerError,
                           match=r"monotonic clock violation: popped event "
                                 r"post\(seq=999, 'x:arrive'\)"):
            sim.run()

    def test_ordering_field_mutation_after_scheduling_trips(self):
        sim = Simulator(strict=True)
        event = sim.schedule(1.0, _noop)
        event.time = 0.9  # desynchronizes the event from its heap entry
        with pytest.raises(SanitizerError, match="mutated after scheduling"):
            sim.run()

    def test_duplicate_heap_entry_trips_double_fire(self):
        sim = Simulator(strict=True)
        event = sim.schedule(1.0, _noop)
        heapq.heappush(sim._heap,
                       (event.time, event.priority, event.sequence,
                        event.callback, event.args, event.label, event))
        with pytest.raises(SanitizerError, match="fired twice"):
            sim.run()

    def test_non_strict_ignores_mutation(self):
        sim = Simulator(strict=False)
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(sim.now))
        event.time = 0.9
        sim.run()
        assert fired == [1.0]  # fires at the heap-snapshot time regardless


class TestStrictRunsAreUnchanged:
    def test_strict_mode_produces_identical_trace(self):
        def trace(strict):
            sim = Simulator(strict=strict)
            fired = []
            for delay in (0.5, 0.25, 0.25, 1.0):
                sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
            sim.run()
            return fired, sim.events_processed

        assert trace(True) == trace(False)
