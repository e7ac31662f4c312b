"""What a sweep lets an observer see, pinned against recorded transcripts.

``ledger_transcripts.json`` was captured on the commit *before* the
runner's point accounting moved into one ledger, by running this module
as a script there (``PYTHONPATH=src python -m
tests.parallel.test_ledger_transcripts``).  A ``telemetry`` section per
drill was added later and stripped again when the sweep telemetry was
deleted, every other key byte-identical both times; the order of a
second per-point callback was stripped when it was deleted (it was the
finish events' index order, checked on all five drills).  Five
drills over one four-point family cover every way a point ends —
simulated, replayed from the cache, restored from a journal, retried,
failed for good — and each transcript holds everything an observer of
``run_configs`` can see: the progress events, ``--report``, the
per-point manifests, the journal lines and the cache directory
listing, with wall-clock fields nulled and live worker names reduced to
their kind.

``jobs=1`` must reproduce a transcript exactly, order included;
``jobs=2`` completes points in any order, so it is held to the same
transcript as multisets.  Every key folds in digests of the code on
disk, which any edit moves, so the drills run under :data:`CODE_DIGEST`
and :data:`FILE_DIGEST` in their place (``test_cache.py`` checks that
the live digest enters the key).  Regenerate the file only when
something it pins is *meant* to move (a cache schema bump, a new key
recipe).  The cache listing and manifests are also the one pin on the
bytes of a point's cache key, config hash and run id, which caches on
users' disks are addressed by: a changed key recipe or extractor name
fails here alone.
"""

import json
from pathlib import Path

import pytest

from repro.parallel import ParallelSweepRunner, ResultCache
from repro.parallel import cache as cache_module
from repro.resilience import FAULTS_ENV, ResilienceConfig
from repro.scenarios import families

TRANSCRIPTS = Path(__file__).with_name("ledger_transcripts.json")

CONFIGS = [families.conjecture_config(case, duration=5.0, warmup=2.0)
           for case in families.CONJECTURE_CASES[:4]]
extract = families.utilization_extract

#: Stand-ins for the package's code digest and the extractor file's.
CODE_DIGEST = "c0de" * 16
FILE_DIGEST = "f11e" * 4

pytestmark = pytest.mark.usefixtures("fast_backoff")
#: Keys nulled wherever they appear.
_SCRUBBED = ("wall_seconds",)
_REPLAYED = ("journal", "cache", "")


def _scrub(document):
    """Null what no two runs share; name live workers by kind."""
    if isinstance(document, dict):
        return {key: None if key in _SCRUBBED
                else _kind(value) if key == "worker" else _scrub(value)
                for key, value in document.items()}
    if isinstance(document, (list, tuple)):
        return [_scrub(item) for item in document]
    return document


def _kind(worker: str) -> str:
    return worker if worker in _REPLAYED else "process"


def _fixed_source_fingerprint(name, code, named):
    return f"{name}:{FILE_DIGEST}"


def _fix_digests(setattr) -> None:
    """Key every point under the stand-in digests."""
    setattr(cache_module, "_CODE_DIGEST", CODE_DIGEST)
    setattr(cache_module, "_source_fingerprint", _fixed_source_fingerprint)


def _observe(root: Path, jobs: int, policy=None, *, configs=CONFIGS,
             cache=True, observed=True) -> dict:
    """One ``run_configs`` call and everything it left behind."""
    events = []
    runner = ParallelSweepRunner(
        jobs=jobs, cache=ResultCache(root / "cache") if cache else None,
        resilience=policy)
    results = runner.run_configs(
        configs, extract, on_progress=events.append,
        manifest_dir=root / "manifests" if observed else None)
    # A finish event carries what the sweep returns for its point.
    assert all(event.measurements == results[event.index]
               for event in events if event.phase == "finish")
    journal = root / "journal.jsonl"
    return {
        "results": results,
        "events": [[event.phase, event.index, event.cached,
                    _kind(event.worker), event.attempt] for event in events],
        "report": (_scrub(runner.last_report.to_dict())
                   if runner.last_report is not None else None),
        "manifests": [_scrub(json.loads(path.read_text())) for path
                      in sorted((root / "manifests").glob("*.json"))],
        "journal": ([_scrub(json.loads(line))
                     for line in journal.read_text().splitlines()]
                    if journal.exists() else []),
        "cache": sorted(path.relative_to(root / "cache").as_posix()
                        for path in (root / "cache").rglob("*")
                        if path.is_file()),
    }


def _journaled(root: Path, **policy) -> ResilienceConfig:
    return ResilienceConfig(journal=root / "journal.jsonl", **policy)


def _cold(root, jobs):
    return _observe(root, jobs)


def _warm(root, jobs):
    """Every point a cache hit, checkpointed into a fresh journal."""
    _observe(root, jobs, observed=False)
    return _observe(root, jobs, _journaled(root))


def _resume(root, jobs):
    """Two points journaled by an earlier, cacheless run; then all four."""
    _observe(root, jobs, _journaled(root), configs=CONFIGS[:2], cache=False,
             observed=False)
    return _observe(root, jobs, _journaled(root))


def _retried(root, jobs):
    return _observe(root, jobs, _journaled(root, retries=2))


def _failed(root, jobs):
    return _observe(root, jobs,
                    _journaled(root, retries=1, allow_partial=True))


#: name -> (REPRO_FAULTS spec, drill)
DRILLS = {
    "cold": ("", _cold),
    "warm": ("", _warm),
    "resume": ("", _resume),
    "raise@1": ("raise@1", _retried),
    "raise@2*9": ("raise@2*9", _failed),
}


def _as_multisets(transcript: dict) -> dict:
    """Forget completion order: what ``jobs > 1`` may not promise."""
    return {**transcript,
            "events": sorted(transcript["events"]),
            "journal": sorted(transcript["journal"],
                              key=lambda line: line["index"])}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", DRILLS)
def test_a_sweep_reads_as_it_did_before_the_ledger(name, jobs, tmp_path,
                                                   monkeypatch):
    spec, drill = DRILLS[name]
    monkeypatch.setenv(FAULTS_ENV, spec)
    _fix_digests(monkeypatch.setattr)
    recorded = json.loads(TRANSCRIPTS.read_text())[name]
    # Through JSON, as the recording went: tuples and int keys flatten.
    seen = json.loads(json.dumps(drill(tmp_path, jobs)))
    if jobs > 1:
        seen, recorded = _as_multisets(seen), _as_multisets(recorded)
    assert seen == recorded


if __name__ == "__main__":  # pragma: no cover - the recording session
    import os
    import tempfile

    from repro.resilience import policy

    policy.BACKOFF_BASE, policy.BACKOFF_CAP = 0.01, 0.02  # as fast_backoff
    _fix_digests(setattr)

    def _record(drill, jobs: int) -> dict:
        with tempfile.TemporaryDirectory() as scratch:
            return json.loads(json.dumps(drill(Path(scratch), jobs)))

    recording = {}
    for name, (spec, drill) in DRILLS.items():
        os.environ[FAULTS_ENV] = spec
        recording[name] = _record(drill, 1)
        # One file serves both parametrisations only if this holds here.
        assert (_as_multisets(_record(drill, 2))
                == _as_multisets(recording[name])), name
    TRANSCRIPTS.write_text(json.dumps(recording, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {TRANSCRIPTS}")
