"""SweepTelemetry: what it reads from a sweep's books, and its document."""

import json

import pytest

from repro.obs.telemetry import TELEMETRY_SCHEMA, SweepTelemetry, write_telemetry
from repro.parallel import ResultCache
from repro.resilience import FAULTS_ENV, ResilienceConfig, ResilienceReport
from repro.scenarios import paper
from repro.scenarios.sweeps import sweep


def make_config(tau):
    return paper.two_way(tau, duration=20.0, warmup=5.0)


def extract(result):
    return {"events": float(result.events_processed)}


def point_snapshot(drops=5.0, util=0.5, rtt_weight=2.0, rate_total=10.0,
                   peak=4.0):
    return {
        "metrics": [
            {"name": "repro_queue_drops_total", "type": "counter",
             "labels": {"port": "a->b"}, "value": drops},
            {"name": "repro_link_utilization_ratio", "type": "gauge",
             "labels": {"port": "a->b"}, "value": util},
            {"name": "repro_tcp_rtt_seconds", "type": "histogram",
             "labels": {"conn": "1"}, "buckets": [0.1, 1.0],
             "counts": [rtt_weight, 1.0, 0.0], "sum": 0.3, "count": rtt_weight + 1.0},
            {"name": "repro_link_departures", "type": "rate",
             "labels": {"port": "a->b"}, "window": 1.0,
             "total": rate_total, "peak_per_second": peak,
             "last_per_second": 1.0},
        ]
    }


def fold(tele, snapshot, worker="w0", wall=0.5, events=1000):
    tele.fold_point(worker, wall, events, snapshot)


class TestProgressStream:
    def test_live_and_cached_points_counted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        journal = tmp_path / "journal.jsonl"
        sweep(make_config, [0.01], extract, cache=cache)
        sweep(make_config, [1.0], extract,
              resilience=ResilienceConfig(journal=journal))
        tele = SweepTelemetry()
        sweep(make_config, [0.01, 1.0, 2.0], extract, cache=cache,
              resilience=ResilienceConfig(journal=journal), telemetry=tele)
        doc = tele.document()
        assert (doc["points"], doc["done"], doc["failed"]) == (3, 3, 0)
        assert doc["live_points"] == 1
        assert doc["cached_points"] == 2
        assert doc["journal"] == {"restored": 1, "appends": 2}
        (worker,) = tele.workers
        assert tele.workers[worker]["points"] == 1
        assert tele.workers[worker]["events"] == tele.total_events > 0
        assert tele.events_per_second == pytest.approx(
            tele.total_events / tele.total_point_wall)

    def test_retry_and_fail_phases(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@0*9")
        tele = SweepTelemetry()
        sweep(make_config, [0.01], extract, telemetry=tele,
              resilience=ResilienceConfig(retries=1, allow_partial=True,
                                          backoff_base=0.01, backoff_cap=0.02))
        doc = tele.document()
        assert doc["retried_attempts"] == 1
        assert doc["failed"] == 1
        assert doc["errors"] == 2
        assert doc["done"] == 0

    def test_wall_histogram_fed_by_live_points_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep(make_config, [0.01], extract, cache=cache)
        tele = SweepTelemetry()
        sweep(make_config, [0.01, 1.0], extract, cache=cache, telemetry=tele)
        hist = tele.registry.get("repro_sweep_point_wall_seconds")
        assert hist.count == 1.0

    def test_cache_hit_ratio_is_live_inside_on_progress(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep(make_config, [0.01, 1.0], extract, cache=cache)
        tele = SweepTelemetry()
        seen = []
        sweep(make_config, [0.01, 1.0], extract, cache=cache, telemetry=tele,
              on_progress=lambda _: seen.append(tele.cache_hit_ratio))
        assert seen == [1.0, 1.0]
        assert tele.document()["cache"]["hits"] == 2


class TestFoldPoint:
    def test_counters_and_rates_sum_gauges_min_max(self):
        tele = SweepTelemetry()
        fold(tele, point_snapshot(drops=5.0, util=0.25, rate_total=10.0,
                                  peak=4.0))
        fold(tele, point_snapshot(drops=2.0, util=0.75, rate_total=3.0,
                                  peak=9.0))
        doc = tele.document()
        rows = {(r["name"], tuple(sorted(r["labels"].items())))
                : r for r in doc["point_aggregate"]}
        drops = rows[("repro_queue_drops_total", (("port", "a->b"),))]
        assert drops["value"] == 7.0
        assert drops["points"] == 2
        util = rows[("repro_link_utilization_ratio", (("port", "a->b"),))]
        assert util["min"] == 0.25 and util["max"] == 0.75
        assert util["total"] == pytest.approx(1.0)
        rate = rows[("repro_link_departures", (("port", "a->b"),))]
        assert rate["total"] == 13.0
        assert rate["peak_per_second"] == 9.0

    def test_histograms_merge_bucket_by_bucket(self):
        tele = SweepTelemetry()
        fold(tele, point_snapshot(rtt_weight=2.0))
        fold(tele, point_snapshot(rtt_weight=4.0))
        doc = tele.document()
        rtt = next(r for r in doc["point_aggregate"]
                   if r["name"] == "repro_tcp_rtt_seconds")
        assert rtt["counts"] == [6.0, 2.0, 0.0]
        assert rtt["count"] == 8.0

    def test_mismatched_bucket_layouts_never_merge(self):
        tele = SweepTelemetry()
        fold(tele, point_snapshot())
        drifted = point_snapshot()
        drifted["metrics"][2]["buckets"] = [0.5, 2.0]
        fold(tele, drifted)
        rtt = next(r for r in tele.document()["point_aggregate"]
                   if r["name"] == "repro_tcp_rtt_seconds")
        assert rtt["counts"] == [2.0, 1.0, 0.0]  # second point skipped

    def test_none_and_malformed_snapshots_ignored(self):
        tele = SweepTelemetry()
        fold(tele, None, wall=0.2, events=100)
        fold(tele, {"metrics": "nope"}, worker="w1", wall=0.3, events=200)
        assert tele.document()["point_aggregate"] == []
        # The point's execution statistics still count.
        assert tele.total_events == 300
        assert tele.total_point_wall == pytest.approx(0.5)
        assert tele.workers["w1"]["events"] == 200

    def test_aggregate_total_sums_counters_across_labels(self):
        tele = SweepTelemetry()
        snap = point_snapshot(drops=5.0)
        other = point_snapshot(drops=7.0)
        other["metrics"][0]["labels"] = {"port": "b->a"}
        fold(tele, snap)
        fold(tele, other)
        assert tele.aggregate_total("repro_queue_drops_total") == 12.0
        assert tele.aggregate_total("repro_link_utilization_ratio") == 0.0


class TestInfrastructureCounters:
    def test_cache_and_journal_accounting(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep(make_config, [0.01], extract, cache=cache)
        tele = SweepTelemetry()
        sweep(make_config, [0.01, 1.0], extract, cache=cache, telemetry=tele,
              resilience=ResilienceConfig(journal=tmp_path / "j.jsonl"))
        # Deltas from the moment of binding: the cold sweep's miss is not
        # this sweep's.
        assert tele.since_bound() == (1, 1, 0, 2)
        assert tele.cache_hit_ratio == pytest.approx(0.5)
        assert tele.document()["journal"]["appends"] == 2
        assert SweepTelemetry().cache_hit_ratio == 0.0

    def test_record_report(self):
        tele = SweepTelemetry()
        doc = tele.document()
        assert (doc["timeouts"], doc["crashes"], doc["errors"]) == (0, 0, 0)
        tele.bind(ResilienceReport(timeouts=2, crashes=1, errors=3))
        doc = tele.document()
        assert (doc["timeouts"], doc["crashes"], doc["errors"]) == (2, 1, 3)


class TestDocument:
    def test_schema_and_core_fields(self):
        tele = SweepTelemetry()
        unbound = tele.document()
        assert unbound["points"] == unbound["done"] == 0
        assert unbound["cache"] == {"hits": 0, "misses": 0, "quarantined": 0,
                                    "hit_ratio": 0.0}
        tele.bind(ResilienceReport(points=3, live=1))
        fold(tele, None)
        doc = tele.document()
        assert doc["schema"] == TELEMETRY_SCHEMA
        assert doc["points"] == 3
        assert doc["done"] == 1
        assert doc["cache"]["hit_ratio"] == 0.0
        assert doc["execution"]["total_events"] == 1000
        assert set(doc) == set(unbound)
        json.dumps(doc)  # JSON-able throughout

    def test_write_telemetry_directory_and_file(self, tmp_path):
        tele = SweepTelemetry()
        into_dir = write_telemetry(tele, tmp_path)
        assert into_dir.name == "sweep.telemetry.json"
        explicit = write_telemetry(tele, tmp_path / "t.json")
        assert json.loads(explicit.read_text())["schema"] == TELEMETRY_SCHEMA
