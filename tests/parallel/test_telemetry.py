"""How a sweep is observed: PointProgress notifications and per-point manifests."""

import json

from repro.parallel import PointProgress, ResultCache, cache_key, config_hash
from repro.scenarios import paper
from repro.scenarios.sweeps import sweep


def make_config(tau):
    return paper.two_way(tau, duration=20.0, warmup=5.0)


def extract(result):
    return {"events": float(result.events_processed)}


class TestPointProgress:
    def test_serial_run_emits_start_and_finish(self):
        seen = []
        sweep(make_config, [0.01, 1.0], extract, on_progress=seen.append)
        assert [(p.index, p.phase) for p in seen] == [
            (0, "start"), (0, "finish"), (1, "start"), (1, "finish")]
        finishes = [p for p in seen if p.phase == "finish"]
        assert all(not p.cached for p in finishes)
        assert all(p.wall_seconds > 0 for p in finishes)
        assert all(p.events_processed > 0 for p in finishes)
        assert all(p.worker for p in seen)

    def test_cache_hits_finish_immediately(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep(make_config, [0.01, 1.0], extract, cache=cache)
        seen = []
        sweep(make_config, [0.01, 1.0], extract, cache=cache,
              on_progress=seen.append)
        assert [(p.index, p.phase, p.cached) for p in seen] == [
            (0, "finish", True), (1, "finish", True)]
        assert all(p.worker == "cache" for p in seen)

    def test_progress_is_optional(self):
        points = sweep(make_config, [0.01], extract)
        assert len(points) == 1

    def test_progress_dataclass_defaults(self):
        progress = PointProgress(index=3, phase="start")
        assert not progress.cached
        assert progress.wall_seconds == 0.0


class TestPointManifests:
    def test_live_points_write_manifests(self, tmp_path):
        manifest_dir = tmp_path / "manifests"
        values = [0.01, 1.0]
        sweep(make_config, values, extract, manifest=manifest_dir)
        documents = sorted(manifest_dir.glob("*.manifest.json"))
        assert len(documents) == len(values)
        for value in values:
            config = make_config(value)
            path = manifest_dir / f"{config_hash(config)[:12]}-s{config.seed}.manifest.json"
            data = json.loads(path.read_text())
            assert data["source"] == "live"
            assert data["events_processed"] > 0
            assert data["config_hash"] == config_hash(config)
            # The manifest addresses the exact cache entry of the point.
            assert data["cache_key"] == cache_key(config, extract)

    def test_cached_points_keep_identity_drop_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        manifest_dir = tmp_path / "manifests"
        sweep(make_config, [0.01], extract, cache=cache, manifest=manifest_dir)
        live = json.loads(next(manifest_dir.glob("*.json")).read_text())
        assert live["source"] == "live"

        rerun_dir = tmp_path / "manifests-warm"
        sweep(make_config, [0.01], extract, cache=cache, manifest=rerun_dir)
        cached = json.loads(next(rerun_dir.glob("*.json")).read_text())
        assert cached["source"] == "cache"
        assert cached["events_processed"] is None
        for field in ("run_id", "config_hash", "cache_key", "seed"):
            assert cached[field] == live[field]
