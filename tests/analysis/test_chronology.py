"""Unit tests for repro.analysis.chronology."""

import pytest

from repro.analysis import (
    SquareTransition,
    detect_square_cycles,
    transitions_are_complementary,
)
from repro.errors import AnalysisError
from repro.metrics import StepSeries


def _square(levels, dwell=2.0, ramp_steps=10, ramp_dt=0.01):
    """A square wave visiting ``levels``, ramping between them quickly."""
    series = StepSeries()
    t = 0.0
    current = levels[0]
    series.record(t, current)
    for target in levels[1:]:
        t += dwell
        step = (target - current) / ramp_steps
        for i in range(1, ramp_steps + 1):
            series.record(t + i * ramp_dt, current + step * i)
        t += ramp_steps * ramp_dt
        current = target
    series.record(t + dwell, current)
    return series, t + dwell


class TestDetection:
    def test_finds_rises_and_falls(self):
        series, end = _square([0, 20, 0, 20])
        transitions = detect_square_cycles(series, 0.0, end,
                                           min_swing=10, max_transition_time=0.5)
        kinds = [t.rising for t in transitions]
        assert kinds == [True, False, True]
        assert all(t.magnitude >= 18 for t in transitions)

    def test_slow_drift_ignored(self):
        series = StepSeries()
        for i in range(100):
            series.record(i * 1.0, float(i))  # 1 packet/s drift
        transitions = detect_square_cycles(series, 0.0, 100.0,
                                           min_swing=10, max_transition_time=0.5)
        assert transitions == []

    def test_small_swings_ignored(self):
        series, end = _square([0, 3, 0, 3])
        transitions = detect_square_cycles(series, 0.0, end,
                                           min_swing=10, max_transition_time=0.5)
        assert transitions == []

    def test_empty_series(self):
        assert detect_square_cycles(StepSeries(), 0.0, 1.0,
                                    min_swing=1, max_transition_time=1.0) == []

    def test_errors(self):
        series, end = _square([0, 20])
        with pytest.raises(AnalysisError):
            detect_square_cycles(series, 0.0, end, min_swing=0,
                                 max_transition_time=1.0)
        with pytest.raises(AnalysisError):
            detect_square_cycles(series, 0.0, end, min_swing=5,
                                 max_transition_time=0.0)


class TestTransitionProperties:
    def test_rising_flag_and_magnitude(self):
        up = SquareTransition(start=0.0, end=0.1, from_level=5, to_level=15)
        down = SquareTransition(start=1.0, end=1.1, from_level=15, to_level=5)
        assert up.rising and not down.rising
        assert up.magnitude == down.magnitude == 10
        assert up.duration == pytest.approx(0.1)

    def test_overlap(self):
        a = SquareTransition(start=0.0, end=1.0, from_level=0, to_level=10)
        b = SquareTransition(start=0.5, end=1.5, from_level=10, to_level=0)
        c = SquareTransition(start=2.0, end=3.0, from_level=0, to_level=10)
        assert a.overlaps(b)
        assert not a.overlaps(c)
        assert a.overlaps(c, slack=1.5)


class TestComplementarity:
    def test_perfectly_coupled(self):
        falls = [SquareTransition(0.0, 0.1, 20, 0), SquareTransition(5.0, 5.1, 20, 0)]
        rises = [SquareTransition(0.05, 0.15, 0, 20), SquareTransition(5.02, 5.12, 0, 20)]
        assert transitions_are_complementary(falls, rises, slack=0.0) == 1.0

    def test_uncoupled(self):
        falls = [SquareTransition(0.0, 0.1, 20, 0)]
        rises = [SquareTransition(9.0, 9.1, 0, 20)]
        assert transitions_are_complementary(falls, rises, slack=0.1) == 0.0

    def test_no_falls_raises(self):
        with pytest.raises(AnalysisError):
            transitions_are_complementary([], [])


class TestOnFigure8:
    @pytest.fixture(scope="class")
    def fig8(self):
        from repro.scenarios import paper, run

        return run(paper.figure8(duration=200.0, warmup=150.0))

    @staticmethod
    def _transitions(result, port):
        start, end = result.window
        return detect_square_cycles(result.traces.queue(port).lengths,
                                    start, end, min_swing=5,
                                    max_transition_time=1.0)

    def test_section_42_coupling(self, fig8):
        """End to end: Q1's falls coincide with Q2's rises and vice versa."""
        tr1 = self._transitions(fig8, "sw1->sw2")
        tr2 = self._transitions(fig8, "sw2->sw1")
        for falling, rising in ((tr1, tr2), (tr2, tr1)):
            falls = [t for t in falling if not t.rising]
            rises = [t for t in rising if t.rising]
            assert transitions_are_complementary(falls, rises) >= 0.9

    def test_packet_count_falls_are_byte_artifacts(self, fig8):
        """Section 4.2's parenthetical: the rapid decreases "reflect the
        fact that the queue length is measured in the number of packets
        rather than in bytes" — the departing packets are 50 B ACKs, so
        the byte occupancy drops ~10% of what data departures would."""
        monitor = fig8.traces.queue("sw1->sw2")
        falls = [t for t in self._transitions(fig8, "sw1->sw2")
                 if not t.rising]
        assert falls
        ratios = [(monitor.byte_lengths.value_at(fall.start)
                   - monitor.byte_lengths.value_at(fall.end))
                  / (fall.magnitude * 500.0) for fall in falls]
        assert sum(ratios) / len(ratios) < 0.25
