"""Unit tests for repro.io (trace persistence)."""

import hashlib
import json

import pytest

from repro.analysis import compression_stats, detect_epochs
from repro.errors import AnalysisError
from repro.io import load_result, save_result
from repro.scenarios import paper, run


@pytest.fixture(scope="module")
def result():
    return run(paper.figure4(duration=120.0, warmup=40.0))


class TestRoundTrip:
    def test_save_creates_json(self, result, tmp_path):
        path = save_result(result, tmp_path / "run.json")
        document = json.loads(path.read_text())
        assert document["format_version"] == 1
        assert document["name"] == result.config.name

    def test_queues_survive(self, result, tmp_path):
        saved = load_result(save_result(result, tmp_path / "run.json"))
        original = result.queue_series("sw1->sw2")
        restored = saved.queues["sw1->sw2"]
        assert len(restored) == len(original)
        assert restored.value_at(100.0) == original.value_at(100.0)
        assert restored.max_in(40.0, 120.0) == original.max_in(40.0, 120.0)

    def test_cwnds_survive(self, result, tmp_path):
        saved = load_result(save_result(result, tmp_path / "run.json"))
        assert set(saved.cwnds) == {1, 2}
        assert saved.cwnds[1].value_at(100.0) == \
            result.traces.cwnd(1).cwnd.value_at(100.0)

    def test_drops_survive(self, result, tmp_path):
        saved = load_result(save_result(result, tmp_path / "run.json"))
        assert len(saved.drops) == len(result.traces.drops)
        assert saved.drops.records[0] == result.traces.drops.records[0]

    def test_utilizations_and_meta(self, result, tmp_path):
        saved = load_result(save_result(result, tmp_path / "run.json"))
        assert saved.utilizations == result.utilizations()
        assert saved.window == result.window
        assert saved.meta["seed"] == result.config.seed


    def test_saved_document_is_byte_identical_to_the_eager_monitors(
            self, result, tmp_path):
        """The same run saved by the parent of the commit that made the
        monitors derive their series on read (236,690 bytes): queue
        lengths, cwnd, ACK arrivals and drops land in the file exactly
        as when every record was folded in as it happened."""
        saved = save_result(result, tmp_path / "run.json").read_bytes()
        assert hashlib.sha256(saved).hexdigest() == (
            "73e20cb64bda8fb4bc5bf67133fa4e8f4b599945760ee2207eb492e40c95ef70")


class TestAnalysesOnSavedRuns:
    def test_epoch_detection_works_offline(self, result, tmp_path):
        saved = load_result(save_result(result, tmp_path / "run.json"))
        live = detect_epochs(result.traces.drops, start=40.0, end=120.0)
        offline = detect_epochs(saved.drops, start=40.0, end=120.0)
        assert len(live) == len(offline)

    def test_compression_stats_work_offline(self, result, tmp_path):
        saved = load_result(save_result(result, tmp_path / "run.json"))
        live = compression_stats(result.traces.ack_log(1),
                                 data_tx_time=0.08, start=40.0, end=120.0)
        offline = compression_stats(saved.acks[1],
                                    data_tx_time=0.08, start=40.0, end=120.0)
        assert offline.compressed_fraction == live.compressed_fraction
        assert offline.compression_factor == live.compression_factor


class TestVersioning:
    def test_wrong_version_rejected(self, result, tmp_path):
        path = save_result(result, tmp_path / "run.json")
        document = json.loads(path.read_text())
        document["format_version"] = 999
        path.write_text(json.dumps(document))
        with pytest.raises(AnalysisError):
            load_result(path)


class TestRecordsRoundTrip:
    def test_ack_arrivals_round_trip_as_equal_records(self, result, tmp_path):
        saved = load_result(save_result(result, tmp_path / "run.json"))
        for conn_id, log in result.traces.acks.items():
            restored = saved.acks[conn_id].arrivals
            assert restored == log.arrivals
            assert {type(a) for a in restored} == {type(log.arrivals[0])}

    def test_compression_stats_identical_offline(self, result, tmp_path):
        saved = load_result(save_result(result, tmp_path / "run.json"))
        start, end = result.window
        for conn_id in result.traces.acks:
            live = compression_stats(result.traces.ack_log(conn_id),
                                     data_tx_time=0.08, start=start, end=end)
            offline = compression_stats(saved.acks[conn_id],
                                        data_tx_time=0.08, start=start, end=end)
            assert offline == live
