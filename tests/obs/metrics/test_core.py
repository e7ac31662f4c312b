"""Unit tests for the metric instruments, the registry and the
time-weighted step-series fold."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.metrics.timeseries import StepSeries
from repro.obs.registry import (
    CWND_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Rate,
    observe_step_series,
)
from repro.units import TIME_EPSILON


class TestCounter:
    def test_accumulates(self):
        c = Counter("repro_test_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_decrease(self):
        c = Counter("repro_test_total")
        with pytest.raises(ConfigurationError):
            c.inc(-1)


class TestGauge:
    def test_last_set_wins(self):
        g = Gauge("repro_test_depth")
        g.set(4)
        g.set(2.0)
        assert g.value == 2.0
        assert g.snapshot() == {"value": 2.0}


class TestHistogram:
    def test_bucket_placement_inclusive_upper(self):
        h = Histogram("repro_test", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 4.0, 100.0):
            h.observe(v)
        assert h.counts == [2.0, 1.0, 1.0, 1.0]  # +Inf last
        assert h.count == 5.0
        assert h.sum == pytest.approx(107.0)

    def test_weighted_observations(self):
        h = Histogram("repro_test", buckets=(10.0,))
        h.observe_weighted(5.0, 2.5)
        h.observe_weighted(20.0, 0.5)
        assert h.count == 3.0
        assert h.counts == [2.5, 0.5]
        h.observe_weighted(0.0, 0.0)  # zero weight: dropped
        assert h.count == 3.0
        with pytest.raises(ConfigurationError):
            h.observe_weighted(1.0, -0.1)

    def test_layout_validation(self):
        with pytest.raises(ConfigurationError):
            Histogram("repro_test", buckets=())
        with pytest.raises(ConfigurationError):
            Histogram("repro_test", buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("repro_test", buckets=(1.0, 1.0, 2.0))


class TestRate:
    def test_window_slides_on_sim_time(self):
        r = Rate("repro_test", window=1.0)
        r.mark(0.0)
        r.mark(0.5)
        assert r.current == 2.0
        r.mark(1.2)  # the mark at 0.0 leaves the window (<= cutoff)
        assert r.current == 2.0
        r.mark(5.0)
        assert r.current == 1.0
        assert r.total == 4.0
        assert r.peak == 2.0

    def test_time_must_not_go_backwards(self):
        r = Rate("repro_test")
        r.mark(1.0)
        with pytest.raises(ConfigurationError):
            r.mark(0.5)

    def test_positive_window_required(self):
        with pytest.raises(ConfigurationError):
            Rate("repro_test", window=0.0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_drops_total", {"port": "a"})
        b = reg.counter("repro_drops_total", {"port": "a"})
        assert a is b
        assert len(reg) == 1
        assert reg.counter("repro_drops_total", {"port": "b"}) is not a

    def test_type_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x")
        with pytest.raises(ConfigurationError):
            reg.gauge("repro_x")
        reg.histogram("repro_h", buckets=CWND_BUCKETS)
        with pytest.raises(ConfigurationError):
            reg.histogram("repro_h", buckets=(1.0, 2.0))
        reg.rate("repro_r")
        with pytest.raises(ConfigurationError):
            reg.counter("repro_r")

    def test_name_and_label_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("Bad-Name")
        with pytest.raises(ConfigurationError):
            reg.counter("repro_ok", {"Bad-Label": "x"})

    def test_snapshot_sorted_and_json_stable(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("repro_z_total", {"port": "b"}).inc(2)
            reg.counter("repro_z_total", {"port": "a"}).inc(1)
            reg.gauge("repro_a_depth", help="h").set(3)
            return reg

        one, two = build().snapshot(), build().snapshot()
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
        names = [(row["name"], row["labels"]) for row in one["metrics"]]
        assert names == [("repro_a_depth", {}),
                         ("repro_z_total", {"port": "a"}),
                         ("repro_z_total", {"port": "b"})]
        assert list(one) == ["metrics"]

    def test_get(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", {"k": "v"})
        assert reg.get("repro_x_total", {"k": "v"}) is c
        assert reg.get("repro_x_total") is None


class TestObserveStepSeries:
    """Edge cases of the time-weighted fold feeding the histograms."""

    def hist(self, buckets=(1.0, 2.0, 4.0, 8.0)):
        return Histogram("repro_test", buckets=buckets)

    def test_empty_series_spends_whole_window_at_initial_value(self):
        series = StepSeries("q", initial_value=3.0)
        h = self.hist()
        observe_step_series(h, series, 10.0, 25.0)
        assert h.count == pytest.approx(15.0)
        # 3.0 lands in the (2, 4] bucket, the whole window long.
        assert h.counts[2] == pytest.approx(15.0)
        assert sum(h.counts) == pytest.approx(15.0)

    def test_single_sample_before_window(self):
        series = StepSeries("q")
        series.record(1.0, 5.0)
        h = self.hist()
        observe_step_series(h, series, 10.0, 20.0)
        assert h.count == pytest.approx(10.0)
        assert h.counts[3] == pytest.approx(10.0)  # 5.0 in (4, 8]

    def test_single_sample_inside_window(self):
        series = StepSeries("q", initial_value=0.0)
        series.record(15.0, 6.0)
        h = self.hist()
        observe_step_series(h, series, 10.0, 20.0)
        # 5s at the initial 0.0, then 5s at 6.0.
        assert h.counts[0] == pytest.approx(5.0)
        assert h.counts[3] == pytest.approx(5.0)
        assert h.count == pytest.approx(10.0)

    def test_duplicate_timestamps_are_zero_duration_last_wins(self):
        series = StepSeries("q")
        series.record(10.0, 1.0)
        series.record(12.0, 3.0)
        series.record(12.0, 7.0)  # same instant: the 3.0 holds for 0s
        h = self.hist()
        observe_step_series(h, series, 10.0, 20.0)
        assert h.counts[0] == pytest.approx(2.0)   # value 1.0 for [10, 12)
        assert h.counts[1] == pytest.approx(0.0)   # 3.0 held for zero time
        assert h.counts[3] == pytest.approx(8.0)   # 7.0 for [12, 20)
        assert h.count == pytest.approx(10.0)

    def test_change_point_exactly_at_window_start(self):
        series = StepSeries("q", initial_value=1.0)
        series.record(10.0, 5.0)
        h = self.hist()
        observe_step_series(h, series, 10.0, 12.0)
        # value_at(start) already sees the 5.0 recorded at start.
        assert h.counts[3] == pytest.approx(2.0)
        assert h.counts[0] == pytest.approx(0.0)

    def test_change_point_exactly_at_window_end_excluded(self):
        series = StepSeries("q", initial_value=1.0)
        series.record(12.0, 5.0)
        h = self.hist()
        observe_step_series(h, series, 10.0, 12.0)
        # The [start, end) window drops the point at end: no 5.0 segment.
        assert h.counts[0] == pytest.approx(2.0)
        assert h.counts[3] == pytest.approx(0.0)

    def test_window_boundaries_at_exact_epsilon_multiples(self):
        # Change-points and window edges all sit on the TIME_EPSILON
        # grid, the finest spacing two distinct event times can have.
        series = StepSeries("q", initial_value=0.0)
        series.record(2 * TIME_EPSILON, 1.0)
        series.record(3 * TIME_EPSILON, 3.0)
        series.record(5 * TIME_EPSILON, 7.0)
        h = self.hist()
        observe_step_series(h, series, 2 * TIME_EPSILON, 5 * TIME_EPSILON)
        # [2eps, 3eps) at 1.0, [3eps, 5eps) at 3.0; the point at end is
        # outside the half-open window.
        assert h.counts[0] == pytest.approx(TIME_EPSILON)
        assert h.counts[2] == pytest.approx(2 * TIME_EPSILON)
        assert h.counts[3] == pytest.approx(0.0)
        assert h.count == pytest.approx(3 * TIME_EPSILON)

    def test_count_telescopes_to_window_length(self):
        series = StepSeries("q")
        for k in range(100):
            series.record(k * 0.1, float(k % 9))
        h = self.hist()
        observe_step_series(h, series, 1.0, 9.0)
        assert h.count == pytest.approx(8.0)

    def test_empty_window_is_noop(self):
        series = StepSeries("q")
        series.record(1.0, 5.0)
        h = self.hist()
        observe_step_series(h, series, 10.0, 10.0)
        assert h.count == 0.0

    def test_backwards_window_rejected(self):
        h = self.hist()
        with pytest.raises(ConfigurationError):
            observe_step_series(h, StepSeries("q"), 10.0, 9.0)
