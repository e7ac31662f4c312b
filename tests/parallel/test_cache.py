"""Unit tests for repro.parallel.cache."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.obs.manifest import run_id_for
from repro.parallel.cache import (
    CACHE_SCHEMA_VERSION,
    PointIdentity,
    ResultCache,
    cache_key,
    canonical_config_json,
    code_digest,
    config_hash,
    default_cache_dir,
)
from repro.parallel.runner import resolve_cache
from repro.scenarios import config_from_dict, config_to_dict, paper
from repro.scenarios.families import timeouts_extract, utilization_extract


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _config(**overrides):
    base = paper.figure4(duration=50.0, warmup=10.0)
    return base.with_updates(**overrides) if overrides else base


class TestCacheKey:
    def test_equal_configs_share_a_key(self):
        assert cache_key(_config()) == cache_key(_config())

    def test_key_survives_serialization_round_trip(self):
        config = _config()
        rebuilt = config_from_dict(config_to_dict(config))
        assert cache_key(rebuilt) == cache_key(config)
        assert canonical_config_json(rebuilt) == canonical_config_json(config)

    def test_any_field_change_changes_the_key(self):
        base = cache_key(_config())
        assert cache_key(_config(seed=2)) != base
        assert cache_key(_config(buffer_packets=21)) != base
        assert cache_key(_config(duration=51.0)) != base

    def test_extractor_identity_is_part_of_the_key(self):
        config = _config()
        assert (cache_key(config, utilization_extract)
                != cache_key(config, timeouts_extract))
        assert cache_key(config, utilization_extract) != cache_key(config)

    def test_code_digest_is_part_of_every_key(self, monkeypatch):
        """A key names the tree that measured; the config hash and run
        id name the config alone."""
        config = _config()
        keys = (cache_key(config), cache_key(config, utilization_extract))
        identity = PointIdentity.of(config, "")
        monkeypatch.setattr("repro.parallel.cache._CODE_DIGEST", "0" * 64)
        assert cache_key(config) != keys[0]
        assert cache_key(config, utilization_extract) != keys[1]
        assert config_hash(config) == identity.config_hash
        assert run_id_for(config) == identity.run_id

    def test_key_is_hex_sha256(self):
        key = cache_key(_config())
        assert len(key) == 64
        int(key, 16)  # raises if not hex


class TestResultCache:
    def test_miss_then_hit_round_trip(self, cache):
        config = _config()
        key = cache_key(config, utilization_extract)
        assert cache.get(key) is None
        measurements = {"util:sw1->sw2": 0.7012345678901234}
        cache.put(key, measurements, config=config)
        assert cache.get(key) == measurements
        assert (cache.hits, cache.misses) == (1, 1)

    def test_floats_survive_exactly(self, cache):
        measurements = {"x": 0.1 + 0.2, "y": 1e-17, "z": 123456789.987654321}
        cache.put("k" * 64, measurements)
        assert cache.get("k" * 64) == measurements

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        config = _config()
        path = cache.put(cache_key(config), {"a": 1.0}, config=config)
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(cache_key(config)) is None
        assert not path.exists()
        assert cache.quarantined == 1

    def test_unserialisable_put_leaves_no_temp_file(self, cache):
        """An extractor returning a numpy integer fails the put — and the
        failed write must not strand a truncated ``<key>.tmp.<pid>`` in
        the cache tree, where nothing counts or removes it."""
        config = _config()
        with pytest.raises(TypeError, match="int64"):
            cache.put(cache_key(config), {"drops": np.int64(3)}, config=config)
        assert sorted(cache.root.rglob("*.tmp.*")) == []
        assert len(cache) == 0
        assert cache.get(cache_key(config)) is None
        cache.put(cache_key(config), {"drops": 3}, config=config)
        assert cache.get(cache_key(config)) == {"drops": 3}

    def test_failed_write_leaves_no_temp_file(self, cache, monkeypatch):
        """A write that dies half-way (a full disk) removes its temp file
        and re-raises."""
        def torn_write(path, text):
            with open(path, "w") as handle:
                handle.write(text[:10])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError, match="No space left"):
            cache.put("k" * 64, {"a": 1.0})
        assert sorted(cache.root.rglob("*.tmp.*")) == []

    def test_len_and_clear(self, cache):
        cache.put("a" * 64, {"a": 1.0})
        cache.put("b" * 64, {"a": 2.0})
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get("a" * 64) is None

    def test_entries_are_self_describing(self, cache):
        config = _config()
        path = cache.put(cache_key(config), {"a": 1.0}, config=config)
        document = json.loads(path.read_text())
        assert document["schema"] == CACHE_SCHEMA_VERSION
        assert document["config"] == config_to_dict(config)
        assert document["code_digest"] == code_digest()

    def test_importing_repro_does_not_load_the_linter(self):
        """Importing the cache loads no linter and reads no source file:
        workers and fleet agents import it to simulate, and the code
        digest is taken on a process's first key."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        probe = ("import repro.parallel, repro.obs, sys; "
                 "from repro.parallel import cache; "
                 "assert cache._CODE_DIGEST is None; assert not any("
                 "m.startswith('repro.analysis.lint') for m in sys.modules)")
        subprocess.run([sys.executable, "-c", probe], check=True, env=env)

    def test_schema_version_partitions_entries(self, cache, monkeypatch):
        key = cache_key(_config())
        cache.put(key, {"a": 1.0})
        monkeypatch.setattr("repro.parallel.cache.CACHE_SCHEMA_VERSION", 99)
        fresh = ResultCache(cache.root)
        assert fresh.get(key) is None


class TestDefaults:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"

    def test_resolve_cache_forms(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        existing = ResultCache(tmp_path)
        assert resolve_cache(existing) is existing
        from_path = resolve_cache(tmp_path / "p")
        assert isinstance(from_path, ResultCache)
        assert from_path.root == tmp_path / "p"
        assert isinstance(resolve_cache(True), ResultCache)
