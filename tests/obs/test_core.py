"""Unit tests for the snapshot row constructors and the time-weighted
step-series fold."""

import pytest

from repro.errors import AnalysisError
from repro.metrics.timeseries import StepSeries
from repro.obs.harvest import counter, gauge, histogram, holding_times, rate
from repro.units import TIME_EPSILON


class TestScalarRows:
    def test_counter_and_gauge_rows_are_floats(self):
        assert counter("repro_test_total", {"port": "a"}, "h", 3) == {
            "name": "repro_test_total", "type": "counter",
            "labels": {"port": "a"}, "help": "h", "value": 3.0}
        row = gauge("repro_test_depth", {}, "h", 2)
        assert row["type"] == "gauge"
        assert type(row["value"]) is float and row["value"] == 2.0


class TestHistogram:
    def hist(self, buckets, observations):
        return histogram("repro_test", {}, "", buckets, observations)

    def test_bucket_placement_inclusive_upper(self):
        row = self.hist((1.0, 2.0, 4.0),
                        [(v, 1.0) for v in (0.5, 1.0, 1.5, 4.0, 100.0)])
        assert row["counts"] == [2.0, 1.0, 1.0, 1.0]  # +Inf last
        assert row["count"] == 5.0
        assert row["sum"] == pytest.approx(107.0)
        assert row["buckets"] == [1.0, 2.0, 4.0]

    def test_weighted_observations(self):
        row = self.hist((10.0,), [(5.0, 2.5), (20.0, 0.5),
                                  (0.0, 0.0)])  # zero weight: dropped
        assert row["count"] == 3.0
        assert row["counts"] == [2.5, 0.5]


class TestRate:
    def rate(self, times):
        return rate("repro_test", {}, "", 1.0, times)

    def test_window_slides_on_sim_time(self):
        assert self.rate([0.0, 0.5])["last_per_second"] == 2.0
        # The event at 0.0 leaves the window (<= cutoff).
        assert self.rate([0.0, 0.5, 1.2])["last_per_second"] == 2.0
        row = self.rate([0.0, 0.5, 1.2, 5.0])
        assert row["last_per_second"] == 1.0
        assert row["total"] == 4.0
        assert row["peak_per_second"] == 2.0
        assert row["window"] == 1.0

    def test_no_events(self):
        row = self.rate([])
        assert (row["total"], row["peak_per_second"],
                row["last_per_second"]) == (0.0, 0.0, 0.0)


class TestObserveStepSeries:
    """Edge cases of the time-weighted fold feeding the histograms
    (:func:`holding_times`)."""

    def hist(self, series, start, end):
        return histogram("repro_test", {}, "", (1.0, 2.0, 4.0, 8.0),
                         holding_times(series, start, end))

    def test_empty_series_spends_whole_window_at_initial_value(self):
        series = StepSeries("q", initial_value=3.0)
        assert holding_times(series, 10.0, 25.0) == [(3.0, 15.0)]
        row = self.hist(series, 10.0, 25.0)
        # 3.0 lands in the (2, 4] bucket, the whole window long.
        assert row["counts"] == [0.0, 0.0, 15.0, 0.0, 0.0]
        assert row["count"] == 15.0

    def test_single_sample_before_window(self):
        series = StepSeries("q")
        series.record(1.0, 5.0)
        row = self.hist(series, 10.0, 20.0)
        assert row["count"] == pytest.approx(10.0)
        assert row["counts"][3] == pytest.approx(10.0)  # 5.0 in (4, 8]

    def test_single_sample_inside_window(self):
        series = StepSeries("q", initial_value=0.0)
        series.record(15.0, 6.0)
        # 5s at the initial 0.0, then 5s at 6.0.
        assert holding_times(series, 10.0, 20.0) == [(0.0, 5.0), (6.0, 5.0)]

    def test_duplicate_timestamps_are_zero_duration_last_wins(self):
        series = StepSeries("q")
        series.record(10.0, 1.0)
        series.record(12.0, 3.0)
        series.record(12.0, 7.0)  # same instant: the 3.0 holds for 0s
        assert holding_times(series, 10.0, 20.0) == [
            (1.0, 2.0), (3.0, 0.0), (7.0, 8.0)]
        row = self.hist(series, 10.0, 20.0)
        assert row["counts"][:4] == [2.0, 0.0, 0.0, 8.0]
        assert row["count"] == pytest.approx(10.0)

    def test_change_point_exactly_at_window_start(self):
        series = StepSeries("q", initial_value=1.0)
        series.record(10.0, 5.0)
        # value_at(start) already sees the 5.0 recorded at start.
        assert holding_times(series, 10.0, 12.0) == [(5.0, 2.0)]

    def test_change_point_exactly_at_window_end_excluded(self):
        series = StepSeries("q", initial_value=1.0)
        series.record(12.0, 5.0)
        # The [start, end) window drops the point at end: no 5.0 segment.
        assert holding_times(series, 10.0, 12.0) == [(1.0, 2.0)]

    def test_window_boundaries_at_exact_epsilon_multiples(self):
        # Change-points and window edges all sit on the TIME_EPSILON
        # grid, the finest spacing two distinct event times can have.
        series = StepSeries("q", initial_value=0.0)
        series.record(2 * TIME_EPSILON, 1.0)
        series.record(3 * TIME_EPSILON, 3.0)
        series.record(5 * TIME_EPSILON, 7.0)
        row = self.hist(series, 2 * TIME_EPSILON, 5 * TIME_EPSILON)
        # [2eps, 3eps) at 1.0, [3eps, 5eps) at 3.0; the point at end is
        # outside the half-open window.
        assert row["counts"][0] == pytest.approx(TIME_EPSILON)
        assert row["counts"][2] == pytest.approx(2 * TIME_EPSILON)
        assert row["counts"][3] == pytest.approx(0.0)
        assert row["count"] == pytest.approx(3 * TIME_EPSILON)

    def test_count_telescopes_to_window_length(self):
        series = StepSeries("q")
        for k in range(100):
            series.record(k * 0.1, float(k % 9))
        assert self.hist(series, 1.0, 9.0)["count"] == pytest.approx(8.0)

    def test_empty_window_is_noop(self):
        series = StepSeries("q")
        series.record(1.0, 5.0)
        assert self.hist(series, 10.0, 10.0)["count"] == 0.0

    def test_backwards_window_rejected(self):
        with pytest.raises(AnalysisError):
            holding_times(StepSeries("q"), 10.0, 9.0)
