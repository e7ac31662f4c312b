"""A sweep point is identified once: the runner's up-front identities
are the one-shot ``cache_key`` / ``config_hash`` / ``run_id_for``, byte
for byte, wherever the runner hands them — cache, journal, failure
report, manifests — and extractor fingerprints do not depend on the
process that computes them.  The bytes themselves, which caches on
users' disks are addressed by, are pinned by the cache listing and
manifests of ``test_ledger_transcripts.py`` and, for every config shape
``repro report`` runs, by :data:`REPORT_PLAN_SHA256`."""

import functools
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.registry import EXPERIMENTS, experiment_ids
from repro.obs.manifest import run_id_for
from repro.parallel import (
    ParallelSweepRunner,
    ResultCache,
    cache_key,
    config_hash,
)
from repro.parallel.cache import PointIdentity, _extractor_fingerprint
from repro.resilience import ResilienceConfig
from repro.scenarios import families, paper, sweep

GRID = families.phase_grid((2, 8, 32), (10, 40), (1.0,))
STUB = {"stub": 1.0}


#: SHA-256 over the sorted ``exp_id,config_hash,run_id`` lines of every
#: point ``repro report`` plans (49 configs: chain, RED at four
#: thresholds, fixed-window, paced and AIMD flows beside plain Tahoe),
#: recorded before flow and queue validation was memoised.
REPORT_PLAN_SHA256 = (
    "5feaa7dcee60799864c3aa206e7dd9537ab650816aec7381e3dd90c08bf85bf3")


class AlwaysHit:
    """A ``cache=`` that answers every key and remembers what it was asked,
    so no point simulates and the runner's keys are observable."""

    def __init__(self):
        self.asked = []

    def get(self, key):
        self.asked.append(key)
        return STUB

    def put(self, key, measurements, config=None):  # pragma: no cover
        raise AssertionError("every point should have been a hit")


def _one_shot(config, extract):
    return PointIdentity(key=cache_key(config, extract),
                         config_hash=config_hash(config),
                         run_id=run_id_for(config))


class TestRunnerIdentity:
    @pytest.mark.parametrize("mode", ["plain", "policy", "journal"])
    def test_runner_names_points_as_the_one_shots_do(self, mode, tmp_path):
        configs = [families.manyflow_config(case) for case in GRID]
        expected = [_one_shot(config, families.sync_extract)
                    for config in configs]
        resilience = {
            "plain": None,
            "policy": ResilienceConfig(),
            "journal": ResilienceConfig(journal=tmp_path / "journal.jsonl"),
        }[mode]
        cache = AlwaysHit()
        runner = ParallelSweepRunner(cache=cache, resilience=resilience)
        results = runner.run_configs(configs, families.sync_extract,
                                     manifest_dir=tmp_path / "manifests")
        assert results == [STUB] * len(configs)
        assert cache.asked == [identity.key for identity in expected]
        for identity in expected:
            document = json.loads(
                (tmp_path / "manifests"
                 / f"{identity.run_id}.manifest.json").read_text())
            assert PointIdentity(document["cache_key"],
                                 document["config_hash"],
                                 document["run_id"]) == identity
        if mode == "journal":
            lines = [json.loads(line) for line in
                     (tmp_path / "journal.jsonl").read_text().splitlines()]
            assert [PointIdentity(line["key"], line["config_hash"],
                                  line["run_id"])
                    for line in lines] == expected

    def test_manifests_alone_still_identify_points(self, tmp_path):
        # No cache, no policy: the manifest is the only consumer.
        config = paper.figure4(duration=5.0, warmup=2.0)
        ParallelSweepRunner().run_configs(
            [config], families.utilization_extract, manifest_dir=tmp_path)
        identity = _one_shot(config, families.utilization_extract)
        document = json.loads(
            (tmp_path / f"{identity.run_id}.manifest.json").read_text())
        assert document["cache_key"] == identity.key
        assert document["config_hash"] == identity.config_hash

    def test_failure_report_carries_the_same_identity(self):
        config = paper.figure4(duration=5.0, warmup=2.0)
        runner = ParallelSweepRunner(resilience=ResilienceConfig(
            retries=0, allow_partial=True))
        assert runner.run_configs([config], _raising_extract) == [None]
        (failure,) = runner.last_report.failures
        assert failure.run_id == run_id_for(config)
        assert failure.config_hash == config_hash(config)


def _raising_extract(result):
    raise RuntimeError("no measurements today")


class Thresholded:
    """A callable-instance extractor."""

    def __init__(self, threshold):
        self.threshold = threshold

    def __call__(self, result):
        return {"over": float(result.events_processed > self.threshold)}


def test_report_plan_identities_are_pinned():
    """The names every ``repro report`` point is cached, journalled and
    manifested under.  The ledger transcripts pin only plain drop-tail
    Tahoe configs, so this is the one check that sees a serialisation
    change confined to policy parameters: writing integral float
    parameters as JSON integers (RED's ``"max_th":120.0`` as ``120``)
    round-trips to an equal config that runs identically, and re-keys
    every RED and AIMD entry on users' disks."""
    rows = sorted((exp_id, config_hash(config), run_id_for(config))
                  for exp_id in experiment_ids()
                  for config in EXPERIMENTS.factory(exp_id).plan())
    assert len(rows) == 49
    blob = "\n".join(",".join(row) for row in rows)
    assert hashlib.sha256(blob.encode()).hexdigest() == REPORT_PLAN_SHA256


class TestExtractorFingerprint:
    def test_equal_partials_built_separately_agree(self):
        one = functools.partial(families.sync_extract, 3, scale=2.0, name="a")
        two = functools.partial(families.sync_extract, 3, name="a", scale=2.0)
        assert one is not two
        assert _extractor_fingerprint(one) == _extractor_fingerprint(two)

    def test_partial_is_its_function_plus_its_bound_arguments(self):
        bare = _extractor_fingerprint(families.sync_extract)
        wrapped = _extractor_fingerprint(
            functools.partial(families.sync_extract))
        assert wrapped.startswith(bare) and wrapped != bare
        assert (_extractor_fingerprint(
                    functools.partial(families.utilization_extract))
                != wrapped)

    def test_different_bound_arguments_differ(self):
        fingerprints = {
            _extractor_fingerprint(functools.partial(families.sync_extract)),
            _extractor_fingerprint(functools.partial(families.sync_extract, 1)),
            _extractor_fingerprint(functools.partial(families.sync_extract, 2)),
            _extractor_fingerprint(
                functools.partial(families.sync_extract, scale=1)),
            _extractor_fingerprint(
                functools.partial(families.sync_extract, scale=2)),
        }
        assert len(fingerprints) == 5

    def test_callable_instance_is_fingerprinted_by_its_class(self):
        fingerprint = _extractor_fingerprint(Thresholded(10))
        assert fingerprint == _extractor_fingerprint(Thresholded(10))
        assert fingerprint.startswith(f"{__name__}.Thresholded:")
        # The class source was found and hashed, not the empty string.
        assert not fingerprint.endswith(":e3b0c44298fc1c14")

    def test_no_fingerprint_embeds_a_memory_address(self):
        for extract in (families.sync_extract,
                        functools.partial(families.sync_extract, 1, scale=2),
                        functools.partial(functools.partial(
                            families.sync_extract, 1), 2),
                        Thresholded(10), Thresholded(10).__call__,
                        _raising_extract):
            assert "0x" not in _extractor_fingerprint(extract), extract

    def test_partial_fingerprint_is_the_same_in_another_process(self):
        # The bug this guards: a repr()-named partial never hit across
        # processes and filled the cache with orphans.
        probe = ("import functools; from repro.scenarios import families; "
                 "from repro.parallel.cache import _extractor_fingerprint; "
                 "print(_extractor_fingerprint(functools.partial("
                 "families.sync_extract, 1, scale=2)))")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        elsewhere = subprocess.run(
            [sys.executable, "-c", probe], check=True, env=env,
            stdout=subprocess.PIPE, text=True).stdout.strip()
        assert elsewhere == _extractor_fingerprint(
            functools.partial(families.sync_extract, 1, scale=2))


EDITED_MODULE = "edited_extractor_probe"
EXTRACTOR_SOURCE = """
def extract(result):
    return {{"value": {value}}}
"""


def test_fingerprint_follows_the_code_that_runs(tmp_path, monkeypatch):
    """Editing an extractor's file does not move the fingerprint of the
    code already imported — that code still runs, so a warm sweep must
    still hit — and re-importing the edited file does move it.  Keyed on
    the file's text instead, the sweep after the edit would file the old
    code's measurements under the new source's key."""
    module_path = tmp_path / f"{EDITED_MODULE}.py"
    module_path.write_text(EXTRACTOR_SOURCE.format(value=1.0))
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        module = importlib.import_module(EDITED_MODULE)
        imported = _extractor_fingerprint(module.extract)

        make_config = functools.partial(families.manyflow_config,
                                        duration=5.0, warmup=2.0)
        values = [(2, 10, 0.0)]
        cache = ResultCache(tmp_path / "cache")
        cold = sweep(make_config, values, module.extract, cache=cache, jobs=1)

        module_path.write_text(EXTRACTOR_SOURCE.format(value=2.0))
        later = module_path.stat().st_mtime + 10
        os.utime(module_path, (later, later))
        assert _extractor_fingerprint(module.extract) == imported
        warm = sweep(make_config, values, module.extract, cache=cache, jobs=1)
        assert (cache.hits, cache.misses) == (1, 1)
        assert warm == cold
        assert warm[0].measurements == {"value": 1.0}

        reloaded = importlib.reload(module)
        assert reloaded.extract(None) == {"value": 2.0}
        assert _extractor_fingerprint(reloaded.extract) != imported
    finally:
        sys.modules.pop(EDITED_MODULE, None)
