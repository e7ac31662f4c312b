"""Concurrent ResultCache.put: racing writers must never tear an entry.

At-least-once distributed execution makes duplicate completions normal,
so two processes routinely put the same key at the same instant.  The
invariants under test: equal payloads converge on exactly one valid
entry, a detected payload mismatch quarantines both copies, and no
interleaving ever leaves a partial (``*.tmp.*``) file or an unparseable
entry behind.
"""

import json
import multiprocessing
import warnings

import pytest

from repro.parallel.cache import ResultCache

KEY = "a" * 64
PAYLOAD = {"fwd": 0.625, "rev": 0.125}
OTHER = {"fwd": 0.999, "rev": 0.001}


def _put_from_child(args):
    """Runs in a forked worker: one put against the shared directory."""
    root, payload = args
    with warnings.catch_warnings():
        # Conflicting writers provoke the quarantine warning on purpose,
        # and a forked worker inherits tier-1's error::RuntimeWarning.
        warnings.filterwarnings("ignore", message="quarantined conflicting",
                                category=RuntimeWarning)
        ResultCache(root).put(KEY, payload)


def _tmp_leftovers(root):
    return [path for path in root.rglob("*") if ".tmp." in path.name]


class TestConcurrentPut:
    def test_racing_equal_writers_converge_on_one_entry(self, tmp_path):
        root = tmp_path / "cache"
        with multiprocessing.get_context("fork").Pool(8) as pool:
            pool.map(_put_from_child, [(root, PAYLOAD)] * 16)
        cache = ResultCache(root)
        assert cache.get(KEY) == PAYLOAD
        assert len(cache) == 1
        assert cache.quarantined == 0
        assert not cache.quarantine_dir.exists()
        assert _tmp_leftovers(root) == []
        # The surviving entry is complete, self-describing JSON.
        document = json.loads(cache._path(KEY).read_text())
        assert document["measurements"] == PAYLOAD

    def test_racing_conflicting_writers_never_tear(self, tmp_path):
        root = tmp_path / "cache"
        jobs = [(root, PAYLOAD if i % 2 == 0 else OTHER) for i in range(16)]
        with multiprocessing.get_context("fork").Pool(8) as pool:
            pool.map(_put_from_child, jobs)
        cache = ResultCache(root)
        stored = cache._peek(cache._path(KEY))
        # Either the conflict was caught (both quarantined, no entry) or
        # one complete payload won the final rename — never a torn file.
        assert stored in (None, PAYLOAD, OTHER)
        assert _tmp_leftovers(root) == []


class TestPutContentCheck:
    def test_equal_put_dedupes_without_rewriting(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = cache.put(KEY, PAYLOAD)
        before = first.stat().st_mtime_ns
        second = cache.put(KEY, dict(PAYLOAD))
        assert second == first
        assert first.stat().st_mtime_ns == before  # not rewritten

    def test_conflicting_put_quarantines_both(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(KEY, PAYLOAD)
        with pytest.warns(RuntimeWarning, match="conflicting"):
            result = cache.put(KEY, OTHER)
        assert result is None
        assert cache.get(KEY) is None              # no entry survives
        assert cache.quarantined == 1
        quarantined = json.loads(
            (cache.quarantine_dir / f"{KEY}.conflict.json").read_text())
        assert quarantined["accepted"] == PAYLOAD
        assert quarantined["duplicate"] == OTHER
        assert (cache.quarantine_dir / f"{KEY}.json").exists()
        assert (cache.quarantine_dir / f"{KEY}.reason.txt").exists()

    def test_put_over_damaged_entry_repairs_it(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(KEY, PAYLOAD)
        path.write_text('{"torn')
        assert cache.put(KEY, PAYLOAD) == path
        assert cache.get(KEY) == PAYLOAD
        assert cache.quarantined == 0
