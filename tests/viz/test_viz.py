"""Unit tests for repro.viz (ASCII plots and CSV export)."""

import csv
import math

import pytest

from repro.errors import AnalysisError
from repro.metrics import DropLog, StepSeries
from repro.metrics.drop_log import DropRecord
from repro.viz import (
    plot_series,
    plot_two_series,
    series_to_rows,
    write_drops_csv,
    write_series_csv,
)


def _wave(duration=10.0):
    series = StepSeries(name="wave")
    t = 0.0
    while t < duration:
        series.record(t, 5 + 5 * math.sin(t))
        t += 0.05
    return series


class TestAsciiPlot:
    def test_plot_has_expected_dimensions(self):
        text = plot_series(_wave(), 0.0, 10.0, width=60, height=10)
        lines = text.splitlines()
        # title + height rows + axis + label row
        assert len(lines) == 1 + 10 + 2
        assert all(len(line) <= 60 + 10 for line in lines[1:11])

    def test_plot_contains_markers(self):
        text = plot_series(_wave(), 0.0, 10.0)
        assert "*" in text

    def test_title_used(self):
        text = plot_series(_wave(), 0.0, 10.0, title="my title")
        assert text.splitlines()[0] == "my title"

    def test_default_title_is_series_name(self):
        text = plot_series(_wave(), 0.0, 10.0)
        assert "wave" in text.splitlines()[0]

    def test_two_series_uses_both_markers(self):
        a, b = _wave(), _wave()
        text = plot_two_series(a, b, 0.0, 10.0)
        assert "*" in text and "o" in text

    def test_invalid_window(self):
        with pytest.raises(AnalysisError):
            plot_series(_wave(), 5.0, 5.0)
        with pytest.raises(AnalysisError):
            plot_two_series(_wave(), _wave(), 5.0, 1.0)

    def test_y_max_clamps_scale(self):
        text = plot_series(_wave(), 0.0, 10.0, y_max=100.0, height=8)
        assert "100.0" in text

    def test_constant_series_does_not_crash(self):
        series = StepSeries(name="flat")
        series.record(0.0, 0.0)
        text = plot_series(series, 0.0, 10.0)
        assert "flat" in text


class TestCsvExport:
    def test_series_roundtrip(self, tmp_path):
        series = _wave(duration=1.0)
        path = write_series_csv(series, tmp_path / "wave.csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["time_s", "value"]
        assert len(rows) == len(series) + 1
        assert float(rows[1][0]) == pytest.approx(series.times[0])

    def test_series_to_rows(self):
        series = StepSeries()
        series.record(1.0, 2.0)
        assert series_to_rows(series) == [(1.0, 2.0)]

    def test_drops_csv(self, tmp_path):
        drops = DropLog()
        drops.records.append(DropRecord(
            time=1.5, queue="sw1->sw2", conn_id=2, is_data=True,
            seq=17, is_retransmit=True))
        path = write_drops_csv(drops, tmp_path / "drops.csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "time_s"
        assert rows[1][1:] == ["sw1->sw2", "2", "data", "17", "1"]

    def test_custom_header(self, tmp_path):
        series = StepSeries()
        series.record(0.0, 1.0)
        path = write_series_csv(series, tmp_path / "x.csv",
                                header=("t", "qlen"))
        assert path.read_text().splitlines()[0] == "t,qlen"


class TestDeparturesCsv:
    def test_departure_trace_export(self, tmp_path):
        from repro.metrics.port_monitor import DepartureRecord
        from repro.viz import write_departures_csv

        departures = [
            DepartureRecord(time=0.08, conn_id=1, is_data=True, seq=3,
                            size=500, uid=1),
            DepartureRecord(time=0.088, conn_id=2, is_data=False, seq=7,
                            size=50, uid=2),
        ]
        path = write_departures_csv(departures, tmp_path / "trace.csv")
        rows = path.read_text().splitlines()
        assert rows[0] == "time_s,conn_id,kind,seq_or_ack,bytes"
        assert rows[1].endswith("1,data,3,500")
        assert rows[2].endswith("2,ack,7,50")

    def test_real_run_trace(self, tmp_path):
        from repro.scenarios import paper, run
        from repro.viz import write_departures_csv

        result = run(paper.two_way(0.01, duration=30.0, warmup=10.0))
        departures = result.traces.queue("sw1->sw2").departures
        path = write_departures_csv(departures, tmp_path / "trace.csv")
        assert len(path.read_text().splitlines()) == len(departures) + 1
