"""Saving a run and re-analysing it.

A run is a pure function of its config, so its saved form is the
scenario document: ``save_config`` writes it, and ``load_config``
followed by ``run`` gives back a full ``ScenarioResult`` that every
analysis accepts unchanged.
"""

import json

import numpy as np
import pytest

from repro.analysis import compression_stats, detect_epochs
from repro.scenarios import config_from_dict, load_config, paper, run, save_config


@pytest.fixture(scope="module")
def result():
    return run(paper.figure4(duration=120.0, warmup=40.0))


@pytest.fixture(scope="module")
def saved_path(result, tmp_path_factory):
    return save_config(result.config, tmp_path_factory.mktemp("run") / "run.json")


@pytest.fixture(scope="module")
def rerun(saved_path):
    return run(load_config(saved_path))


def _same_series(a, b):
    return (np.array_equal(a.times, b.times)
            and np.array_equal(a.values, b.values))


class TestRoundTrip:
    def test_save_creates_json(self, result, saved_path):
        document = json.loads(saved_path.read_text())
        assert document["name"] == result.config.name
        assert config_from_dict(document) == result.config

    def test_queues_survive(self, result, rerun):
        original = result.queue_series("sw1->sw2")
        restored = rerun.queue_series("sw1->sw2")
        assert _same_series(restored, original)
        assert restored.max_in(40.0, 120.0) == original.max_in(40.0, 120.0)

    def test_cwnds_survive(self, result, rerun):
        assert set(rerun.traces.cwnds) == {1, 2}
        for conn_id, log in result.traces.cwnds.items():
            assert _same_series(rerun.traces.cwnd(conn_id).cwnd, log.cwnd)

    def test_drops_survive(self, result, rerun):
        assert len(rerun.traces.drops) > 0
        assert rerun.traces.drops.records == result.traces.drops.records

    def test_utilizations_and_meta(self, result, rerun):
        assert rerun.utilizations() == result.utilizations()
        assert rerun.window == result.window
        assert rerun.config.seed == result.config.seed
        assert rerun.summary() == result.summary()


class TestAnalysesOnReruns:
    def test_epoch_detection_works_offline(self, result, rerun):
        live = detect_epochs(result.traces.drops, start=40.0, end=120.0)
        offline = detect_epochs(rerun.traces.drops, start=40.0, end=120.0)
        assert len(live) > 0
        assert offline == live

    def test_compression_stats_work_offline(self, result, rerun):
        live = compression_stats(result.traces.ack_log(1),
                                 data_tx_time=0.08, start=40.0, end=120.0)
        offline = compression_stats(rerun.traces.ack_log(1),
                                    data_tx_time=0.08, start=40.0, end=120.0)
        assert offline.compressed_fraction == live.compressed_fraction
        assert offline.compression_factor == live.compression_factor


class TestRecordsRoundTrip:
    def test_ack_arrivals_round_trip_as_equal_records(self, result, rerun):
        for conn_id, log in result.traces.acks.items():
            restored = rerun.traces.ack_log(conn_id)
            assert restored.arrivals == log.arrivals
            assert restored.rtt_samples == log.rtt_samples

    def test_compression_stats_identical_offline(self, result, rerun):
        start, end = result.window
        for conn_id in result.traces.acks:
            live = compression_stats(result.traces.ack_log(conn_id),
                                     data_tx_time=0.08, start=start, end=end)
            offline = compression_stats(rerun.traces.ack_log(conn_id),
                                        data_tx_time=0.08, start=start, end=end)
            assert offline == live
