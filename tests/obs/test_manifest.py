"""Unit tests for repro.obs.manifest: run identity and provenance."""

import json
import shutil

import pytest

from repro.obs import (
    OBS_SCHEMA_VERSION,
    Tracer,
    build_manifest,
    relativize_artifacts,
    run_id_for,
    write_manifest,
)
from repro.parallel import (
    CACHE_SCHEMA_VERSION,
    PointIdentity,
    ResultCache,
    cache_key,
    config_hash,
)
from repro.parallel.cache import code_digest
from repro.scenarios import FlowSpec, ScenarioConfig, run
from repro.scenarios.families import utilization_extract


def small_config(**kwargs):
    defaults = dict(
        name="obs-manifest",
        flows=(FlowSpec(src="host1", dst="host2"),),
        duration=5.0,
        warmup=1.0,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def _identity(config):
    """What a sweep under ``utilization_extract`` names ``config``."""
    return PointIdentity(key=cache_key(config, utilization_extract),
                         config_hash=config_hash(config),
                         run_id=run_id_for(config))


class TestRunId:
    def test_deterministic_and_config_addressed(self):
        config = small_config()
        assert run_id_for(config) == run_id_for(small_config())
        assert run_id_for(config) == f"{config_hash(config)[:12]}-s{config.seed}"

    def test_distinct_configs_distinct_ids(self):
        assert run_id_for(small_config()) != run_id_for(small_config(duration=6.0))

    def test_seed_visible_in_id(self):
        assert run_id_for(small_config(seed=7)).endswith("-s7")


class TestBuildManifest:
    def test_live_manifest_fields(self):
        config = small_config()
        tracer = Tracer()
        result = run(config, trace=tracer)
        manifest = build_manifest(config, source="live",
                                  events_processed=result.events_processed,
                                  wall_seconds=result.wall_seconds,
                                  tracer=tracer)
        assert manifest.run_id == run_id_for(config)
        assert manifest.scenario == config.name
        assert manifest.config_hash == config_hash(config)
        assert manifest.cache_key is None
        assert manifest.source == "live"
        assert manifest.events_processed == result.events_processed
        assert manifest.peak_calendar == tracer.peak_calendar
        assert manifest.obs_schema == OBS_SCHEMA_VERSION
        assert manifest.cache_schema == CACHE_SCHEMA_VERSION
        assert sum(manifest.event_categories.values()) == result.events_processed
        # Untraced runs do not pay for calendar bookkeeping.
        untraced = build_manifest(config,
                                  events_processed=result.events_processed)
        assert untraced.peak_calendar is None
        assert untraced.event_categories is None

    def test_cache_manifest_has_identity_but_no_stats(self):
        config = small_config()
        manifest = build_manifest(config, source="cache",
                                  identity=_identity(config))
        assert manifest.source == "cache"
        assert manifest.events_processed is None
        assert manifest.wall_seconds is None
        assert manifest.peak_calendar is None
        assert manifest.cache_key == cache_key(config, utilization_extract)

    def test_cache_key_matches_result_cache_addressing(self, tmp_path):
        # The manifest must point at the exact file the cache would use.
        config = small_config()
        cache = ResultCache(tmp_path)
        stored = cache.put(cache_key(config, utilization_extract), {"u": 1.0},
                           config=config)
        manifest = build_manifest(config, source="cache",
                                  identity=_identity(config))
        assert stored.stem == manifest.cache_key

    def test_invalid_source_rejected(self):
        with pytest.raises(ValueError):
            build_manifest(small_config(), source="replay")

    def test_journal_and_failed_are_valid_sources(self):
        for source in ("journal", "failed"):
            manifest = build_manifest(small_config(), source=source)
            assert manifest.source == source

    def test_attempts_and_failure_recorded(self):
        from repro.resilience import AttemptRecord, PointFailure

        config = small_config()
        failure = PointFailure(
            index=3, run_id=run_id_for(config),
            config_hash=config_hash(config), scenario=config.name,
            attempts=2, kind="timeout", message="exceeded 5.0s",
            history=(AttemptRecord(attempt=1, outcome="timeout",
                                   wall_seconds=5.0),))
        manifest = build_manifest(config, source="failed", attempts=2,
                                  failure=failure)
        assert manifest.attempts == 2
        assert manifest.failure is not None
        assert manifest.failure["kind"] == "timeout"
        assert manifest.failure["history"][0]["outcome"] == "timeout"

    def test_attempts_default_and_validation(self):
        assert build_manifest(small_config()).attempts == 1
        with pytest.raises(ValueError):
            build_manifest(small_config(), attempts=0)


class TestWriteManifest:
    def test_directory_target_uses_run_id(self, tmp_path):
        config = small_config()
        manifest = build_manifest(config)
        path = write_manifest(manifest, tmp_path)
        assert path.name == f"{manifest.run_id}.manifest.json"
        data = json.loads(path.read_text())
        assert data["config_hash"] == config_hash(config)
        assert data["code_digest"] == code_digest()

    def test_explicit_file_target(self, tmp_path):
        manifest = build_manifest(small_config())
        target = tmp_path / "point.json"
        assert write_manifest(manifest, target) == target
        assert json.loads(target.read_text())["run_id"] == manifest.run_id

    def test_round_trip_is_stable(self, tmp_path):
        manifest = build_manifest(small_config())
        first = write_manifest(manifest, tmp_path / "a.json").read_text()
        second = write_manifest(manifest, tmp_path / "b.json").read_text()
        assert first == second


class TestArtifacts:
    def test_default_is_empty(self, tmp_path):
        manifest = build_manifest(small_config())
        assert manifest.artifacts == {}
        data = json.loads(write_manifest(manifest, tmp_path).read_text())
        assert data["artifacts"] == {}

    def test_paths_recorded_relative_to_manifest_dir(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        trace = results / "trace.json"
        trace.write_text("{}")
        sibling = tmp_path / "metrics.prom"
        sibling.write_text("")
        manifest = build_manifest(small_config())
        path = write_manifest(manifest, results,
                              artifacts={"chrome_trace": trace,
                                         "prometheus": sibling})
        data = json.loads(path.read_text())
        assert data["artifacts"] == {"chrome_trace": "trace.json",
                                     "prometheus": "../metrics.prom"}
        # The in-memory manifest is untouched (frozen; written copy only).
        assert manifest.artifacts == {}

    def test_relative_inputs_resolved_against_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "m.prom").write_text("")
        manifest = build_manifest(small_config())
        path = write_manifest(manifest, tmp_path / "out",
                              artifacts={"prometheus": "out/m.prom"})
        assert json.loads(path.read_text())["artifacts"] == {
            "prometheus": "m.prom"}

    def test_manifest_survives_directory_move(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        trace = results / "trace.json"
        trace.write_text("{}")
        manifest = build_manifest(small_config())
        path = write_manifest(manifest, results,
                              artifacts={"chrome_trace": trace})
        moved = tmp_path / "archived"
        shutil.move(results, moved)
        data = json.loads((moved / path.name).read_text())
        resolved = moved / data["artifacts"]["chrome_trace"]
        assert resolved.exists()

    def test_preexisting_artifacts_relativized_and_merged(self, tmp_path):
        from dataclasses import replace

        manifest = replace(build_manifest(small_config()),
                           artifacts={"journal": str(tmp_path / "j.jsonl")})
        path = write_manifest(manifest, tmp_path / "sub",
                              artifacts={"prometheus": tmp_path / "m.prom"})
        assert json.loads(path.read_text())["artifacts"] == {
            "journal": "../j.jsonl", "prometheus": "../m.prom"}

    def test_relativize_artifacts_sorted_posix(self, tmp_path):
        rel = relativize_artifacts(
            {"b": tmp_path / "deep" / "b.json", "a": tmp_path / "a.json"},
            tmp_path)
        assert list(rel) == ["a", "b"]
        assert rel == {"a": "a.json", "b": "deep/b.json"}
