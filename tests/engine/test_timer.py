"""Unit tests for repro.engine.timer."""

import pytest

from repro.engine import BSD_TICK, CoarseTimer, OneShotTimer, Simulator


class TestOneShotTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = OneShotTimer(sim, lambda: fired.append(sim.now))
        timer.start(1.5)
        sim.run()
        assert fired == [1.5]

    def test_not_armed_initially(self):
        sim = Simulator()
        timer = OneShotTimer(sim, lambda: None)
        assert not timer.armed
        assert timer.expiry is None

    def test_armed_while_pending(self):
        sim = Simulator()
        timer = OneShotTimer(sim, lambda: None)
        timer.start(1.0)
        assert timer.armed
        assert timer.expiry == 1.0

    def test_restart_replaces_pending_expiry(self):
        sim = Simulator()
        fired = []
        timer = OneShotTimer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(5.0)
        sim.run()
        assert fired == [5.0]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = OneShotTimer(sim, lambda: fired.append(True))
        timer.start(1.0)
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_cancel_without_start_is_noop(self):
        sim = Simulator()
        OneShotTimer(sim, lambda: None).cancel()

    def test_can_restart_after_firing(self):
        sim = Simulator()
        fired = []
        timer = OneShotTimer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0]

    def test_not_armed_after_firing(self):
        sim = Simulator()
        timer = OneShotTimer(sim, lambda: None)
        timer.start(1.0)
        sim.run()
        assert not timer.armed


class TestCoarseTimer:
    def test_fires_on_tick_boundary(self):
        sim = Simulator()
        fired = []
        timer = CoarseTimer(sim, lambda: fired.append(sim.now), period=0.5)
        # Arming at t=0 for 1 tick fires at the first boundary after 0.
        timer.start_ticks(1)
        sim.run()
        assert fired == [0.5]

    def test_mid_tick_arming_rounds_to_boundary(self):
        sim = Simulator()
        fired = []
        timer = CoarseTimer(sim, lambda: fired.append(sim.now), period=0.5)
        sim.schedule(0.3, lambda: timer.start_ticks(2))
        sim.run()
        # Next boundary after 0.3 is 0.5; second boundary is 1.0.
        assert fired == [1.0]

    def test_ticks_for_rounds_up(self):
        sim = Simulator()
        timer = CoarseTimer(sim, lambda: None, period=0.5)
        assert timer.ticks_for(0.4) == 1
        assert timer.ticks_for(0.5) == 1
        assert timer.ticks_for(0.6) == 2
        assert timer.ticks_for(1.0) == 2

    def test_ticks_for_nonpositive_is_one(self):
        sim = Simulator()
        timer = CoarseTimer(sim, lambda: None, period=0.5)
        assert timer.ticks_for(0.0) == 1
        assert timer.ticks_for(-1.0) == 1

    def test_start_seconds_quantizes(self):
        sim = Simulator()
        fired = []
        timer = CoarseTimer(sim, lambda: fired.append(sim.now), period=0.5)
        sim.schedule(0.2, lambda: timer.start_seconds(0.7))
        sim.run()
        # 0.7s -> 2 ticks; boundaries 0.5 and 1.0 after t=0.2.
        assert fired == [1.0]

    def test_restart_cancels_previous(self):
        sim = Simulator()
        fired = []
        timer = CoarseTimer(sim, lambda: fired.append(sim.now), period=0.5)
        timer.start_ticks(1)
        timer.start_ticks(4)
        sim.run()
        assert fired == [2.0]

    def test_rearm_onto_same_boundary_keeps_first_arm_order(self):
        """Re-arming onto the boundary already armed keeps the pending
        event and its first-arm sequence number: A, armed before B,
        still fires before B after being re-armed later than B."""
        sim = Simulator()
        fired = []
        a = CoarseTimer(sim, lambda: fired.append("A"), period=0.5)
        b = CoarseTimer(sim, lambda: fired.append("B"), period=0.5)
        a.start_ticks(2)
        b.start_ticks(2)
        a.start_ticks(2)
        sim.run()
        assert fired == ["A", "B"]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        timer = CoarseTimer(sim, lambda: fired.append(True), period=0.5)
        timer.start_ticks(1)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            CoarseTimer(Simulator(), lambda: None, period=0.0)

    def test_invalid_tick_count_rejected(self):
        timer = CoarseTimer(Simulator(), lambda: None)
        with pytest.raises(ValueError):
            timer.start_ticks(0)

    def test_default_period_is_bsd_tick(self):
        timer = CoarseTimer(Simulator(), lambda: None)
        assert timer.period == BSD_TICK == 0.5

    def test_armed_flag(self):
        sim = Simulator()
        timer = CoarseTimer(sim, lambda: None)
        assert not timer.armed
        timer.start_ticks(2)
        assert timer.armed
        sim.run()
        assert not timer.armed
