"""Unit tests for repro.metrics.timeseries."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.metrics import StepSeries


def make_series(points, initial=0.0):
    series = StepSeries(name="test", initial_value=initial)
    series.extend(points)
    return series


class TestRecording:
    def test_empty_series(self):
        series = StepSeries(initial_value=3.0)
        assert len(series) == 0
        assert series.last_value == 3.0
        assert series.first_time is None
        assert series.last_time is None

    def test_record_and_iterate(self):
        series = make_series([(1.0, 10.0), (2.0, 20.0)])
        assert list(series) == [(1.0, 10.0), (2.0, 20.0)]
        assert series.first_time == 1.0
        assert series.last_time == 2.0
        assert series.last_value == 20.0

    def test_time_must_be_nondecreasing(self):
        series = make_series([(2.0, 1.0)])
        with pytest.raises(AnalysisError):
            series.record(1.0, 5.0)

    def test_same_time_records_allowed(self):
        series = make_series([(1.0, 1.0), (1.0, 2.0)])
        assert len(series) == 2

    def test_numpy_views(self):
        series = make_series([(1.0, 5.0), (2.0, 7.0)])
        assert np.array_equal(series.times, [1.0, 2.0])
        assert np.array_equal(series.values, [5.0, 7.0])

    def test_numpy_views_read_the_columns_in_place(self):
        series = make_series([(1, 5), (2.0, 7.0)])  # ints coerce on append
        times, values = series.times, series.values
        assert times.dtype == values.dtype == np.float64
        assert np.shares_memory(times, series.times)
        with pytest.raises(ValueError):
            values[0] = 99.0  # a view of the series itself, so read-only
        del times, values
        series.record(3.0, 9.0)  # no view alive: the columns grow again
        assert list(series) == [(1.0, 5.0), (2.0, 7.0), (3.0, 9.0)]


class TestValueAt:
    def test_before_first_point_is_initial(self):
        series = make_series([(1.0, 10.0)], initial=-1.0)
        assert series.value_at(0.5) == -1.0

    def test_at_and_after_points(self):
        series = make_series([(1.0, 10.0), (3.0, 30.0)])
        assert series.value_at(1.0) == 10.0
        assert series.value_at(2.0) == 10.0
        assert series.value_at(3.0) == 30.0
        assert series.value_at(99.0) == 30.0

    def test_same_instant_last_wins(self):
        series = make_series([(1.0, 10.0), (1.0, 20.0)])
        assert series.value_at(1.0) == 20.0


class TestWindow:
    def test_window_carries_in_value(self):
        series = make_series([(1.0, 10.0), (5.0, 50.0)])
        window = series.window(2.0, 6.0)
        assert window.value_at(2.0) == 10.0
        assert window.value_at(5.5) == 50.0

    def test_window_excludes_outside_points(self):
        series = make_series([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        window = series.window(1.5, 2.5)
        assert list(window) == [(1.5, 1.0), (2.0, 2.0)]

    def test_window_invalid_range(self):
        with pytest.raises(AnalysisError):
            make_series([(1.0, 1.0)]).window(5.0, 2.0)


class TestSample:
    def test_regular_grid(self):
        series = make_series([(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)])
        grid, values = series.sample(0.0, 3.0, 0.5)
        assert np.allclose(grid, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        assert np.allclose(values, [0, 0, 10, 10, 20, 20])

    def test_sample_empty_series_uses_initial(self):
        series = StepSeries(initial_value=7.0)
        _, values = series.sample(0.0, 1.0, 0.25)
        assert np.all(values == 7.0)

    def test_sample_before_first_point(self):
        series = make_series([(10.0, 5.0)], initial=1.0)
        _, values = series.sample(0.0, 20.0, 5.0)
        assert np.allclose(values, [1.0, 1.0, 5.0, 5.0])

    def test_invalid_dt(self):
        with pytest.raises(AnalysisError):
            make_series([(0.0, 1.0)]).sample(0.0, 1.0, 0.0)

    def test_invalid_range(self):
        with pytest.raises(AnalysisError):
            make_series([(0.0, 1.0)]).sample(1.0, 1.0, 0.1)


class TestTimeAverage:
    def test_constant_series(self):
        series = make_series([(0.0, 4.0)])
        assert series.time_average(0.0, 10.0) == 4.0

    def test_step_change_weighted(self):
        series = make_series([(0.0, 0.0), (5.0, 10.0)])
        # Half the window at 0, half at 10.
        assert series.time_average(0.0, 10.0) == pytest.approx(5.0)

    def test_window_not_aligned_to_points(self):
        series = make_series([(0.0, 2.0), (4.0, 6.0)])
        # [2,6]: 2 seconds at 2, 2 seconds at 6 -> 4.
        assert series.time_average(2.0, 6.0) == pytest.approx(4.0)

    def test_invalid_window(self):
        with pytest.raises(AnalysisError):
            make_series([(0.0, 1.0)]).time_average(5.0, 5.0)


class TestExtremes:
    def test_max_min_in_window(self):
        series = make_series([(0.0, 1.0), (1.0, 9.0), (2.0, 3.0), (10.0, 99.0)])
        assert series.max_in(0.0, 5.0) == 9.0
        assert series.min_in(0.5, 5.0) == 1.0

    def test_max_includes_carried_value(self):
        series = make_series([(0.0, 7.0)])
        assert series.max_in(3.0, 5.0) == 7.0


class TestFractionAtOrBelow:
    def test_always_below(self):
        series = make_series([(0.0, 0.0)])
        assert series.fraction_at_or_below(0.0, 0.0, 10.0) == 1.0

    def test_half_below(self):
        series = make_series([(0.0, 0.0), (5.0, 10.0)])
        assert series.fraction_at_or_below(0.0, 0.0, 10.0) == pytest.approx(0.5)

    def test_threshold_inclusive(self):
        series = make_series([(0.0, 3.0)])
        assert series.fraction_at_or_below(3.0, 0.0, 1.0) == 1.0

    def test_empty_queue_fraction_use_case(self):
        # Queue busy [0,4), empty [4,10).
        series = make_series([(0.0, 5.0), (4.0, 0.0)])
        assert series.fraction_at_or_below(0.0, 0.0, 10.0) == pytest.approx(0.6)


class TestWindowBoundaries:
    """Exact-breakpoint semantics of window/sample/time_average.

    The contract: windows are half-open ``[start, end)`` with the
    carried-in value re-anchored at ``start``; a change-point exactly at
    ``start`` is superseded by the carried value (last-wins at one
    instant), and one exactly at ``end`` is excluded.
    """

    def test_change_point_exactly_at_start(self):
        series = make_series([(1.0, 5.0), (2.0, 7.0)])
        out = series.window(1.0, 3.0)
        # value_at(1.0) is 5.0 (last wins), re-anchored at start.
        assert list(out) == [(1.0, 5.0), (2.0, 7.0)]

    def test_change_point_exactly_at_end_excluded(self):
        series = make_series([(1.0, 5.0), (3.0, 9.0)])
        assert list(series.window(0.0, 3.0)) == [(0.0, 0.0), (1.0, 5.0)]

    def test_empty_series_window_carries_initial(self):
        series = StepSeries(initial_value=4.0)
        assert list(series.window(2.0, 5.0)) == [(2.0, 4.0)]

    def test_single_point_window(self):
        series = make_series([(2.0, 8.0)])
        assert list(series.window(0.0, 10.0)) == [(0.0, 0.0), (2.0, 8.0)]
        assert list(series.window(2.0, 10.0)) == [(2.0, 8.0)]
        assert list(series.window(3.0, 10.0)) == [(3.0, 8.0)]

    def test_degenerate_window_start_equals_end(self):
        series = make_series([(1.0, 5.0)])
        assert list(series.window(1.0, 1.0)) == [(1.0, 5.0)]

    def test_duplicate_instants_last_wins_at_start(self):
        series = make_series([(1.0, 5.0), (1.0, 6.0), (1.0, 7.0)])
        assert list(series.window(1.0, 2.0)) == [(1.0, 7.0)]


class TestSampleBoundaries:
    def test_grid_point_on_change_takes_new_value(self):
        series = make_series([(0.0, 1.0), (2.0, 9.0)])
        grid, values = series.sample(0.0, 4.0, 1.0)
        assert list(grid) == [0.0, 1.0, 2.0, 3.0]
        assert list(values) == [1.0, 1.0, 9.0, 9.0]

    def test_end_is_exclusive(self):
        series = make_series([(0.0, 1.0)])
        grid, _ = series.sample(0.0, 2.0, 1.0)
        assert list(grid) == [0.0, 1.0]

    def test_grid_before_first_point_uses_initial(self):
        series = make_series([(5.0, 3.0)], initial=1.5)
        _, values = series.sample(0.0, 10.0, 2.5)
        assert list(values) == [1.5, 1.5, 3.0, 3.0]

    def test_empty_series_samples_initial(self):
        series = StepSeries(initial_value=2.0)
        grid, values = series.sample(0.0, 3.0, 1.0)
        assert list(values) == [2.0] * len(grid)


class TestTimeAverageBoundaries:
    def test_change_exactly_at_start(self):
        series = make_series([(1.0, 4.0)])
        assert series.time_average(1.0, 3.0) == pytest.approx(4.0)

    def test_change_exactly_at_end_contributes_nothing(self):
        series = make_series([(0.0, 2.0), (4.0, 100.0)])
        assert series.time_average(0.0, 4.0) == pytest.approx(2.0)

    def test_empty_series_averages_initial(self):
        series = StepSeries(initial_value=7.0)
        assert series.time_average(0.0, 5.0) == pytest.approx(7.0)

    def test_single_point_mid_window(self):
        series = make_series([(5.0, 10.0)], initial=0.0)
        assert series.time_average(0.0, 10.0) == pytest.approx(5.0)

    def test_duplicate_instants_use_last_value_forward(self):
        series = make_series([(2.0, 1.0), (2.0, 3.0)])
        # [0,2): initial 0; [2,4): 3 (last record at t=2 wins).
        assert series.time_average(0.0, 4.0) == pytest.approx(1.5)
