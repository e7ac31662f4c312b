"""Unit tests for repro.scenarios.sweeps."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import families, paper, sweep


class TestSweep:
    def test_runs_each_value_in_order(self):
        points = sweep(
            lambda tau: paper.two_way(tau, duration=30.0, warmup=10.0),
            [0.01, 1.0],
            lambda result: {"events": float(result.events_processed)},
        )
        assert [p.value for p in points] == [0.01, 1.0]
        assert all(p.measurements["events"] > 0 for p in points)

    def test_non_config_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(lambda v: "not a config", [1], lambda r: {})

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(lambda v: paper.figure4(), [], lambda r: {})

    def test_finish_events_report_progress_in_order(self):
        seen = []
        points = sweep(
            lambda tau: paper.two_way(tau, duration=30.0, warmup=10.0),
            [0.01, 1.0],
            lambda result: {"events": float(result.events_processed)},
            on_progress=seen.append,
        )
        assert [event.measurements for event in seen
                if event.phase == "finish"] == [p.measurements for p in points]

    def test_utilization_extract_is_per_direction(self):
        points = sweep(
            lambda buffers: paper.figure4(buffer_packets=buffers,
                                          duration=40.0, warmup=10.0),
            [10, 20],
            families.utilization_extract,
        )
        assert len(points) == 2
        for point in points:
            assert set(point.measurements) == {"util:sw1->sw2", "util:sw2->sw1"}
            for util in point.measurements.values():
                assert 0.0 <= util <= 1.0
