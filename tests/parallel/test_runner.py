"""Unit tests for repro.parallel.runner.

The parallel-vs-serial equivalence tests use short fixed-window runs:
spawn workers cost real wall time, so the grid is small, but the
assertion is exact — measurements must be byte-identical across paths.
"""

import functools
import time

import pytest

from repro.errors import ConfigurationError
from repro.parallel import ParallelSweepRunner, ResultCache
from repro.scenarios import families, sweep

from .test_protocol import make_probe

# The fig-8/fig-9 conjecture corner of the grid: small and large pipe.
CASES = [(30, 25, 0.01), (30, 5, 0.01), (30, 25, 1.0), (26, 25, 1.0)]
make_config = functools.partial(families.conjecture_config,
                                duration=30.0, warmup=15.0)


class TestSerial:
    def test_points_in_input_order(self):
        runner = ParallelSweepRunner(jobs=1)
        points = runner.run(make_config, CASES[:2],
                            families.utilization_extract)
        assert [p.value for p in points] == CASES[:2]
        for point in points:
            assert set(point.measurements) == {"util:sw1->sw2",
                                               "util:sw2->sw1"}

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ParallelSweepRunner(jobs=0)

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelSweepRunner().run(make_config, [],
                                      families.utilization_extract)

    def test_non_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelSweepRunner().run(lambda v: "nope", [1],
                                      families.utilization_extract)


class TestParallelEquivalence:
    def test_jobs4_identical_to_serial(self):
        serial = sweep(make_config, CASES, families.utilization_extract)
        parallel = sweep(make_config, CASES, families.utilization_extract,
                         jobs=4)
        assert parallel == serial  # byte-identical SweepPoints

    def test_unordered_completion_still_input_ordered(self):
        runner = ParallelSweepRunner(jobs=2)
        points = runner.run(make_config, CASES,
                            families.utilization_extract)
        assert [p.value for p in points] == CASES

    def test_plain_jobs2_spawns_two_workers_once(self):
        """No policy, same long-lived workers: every point reports a
        start and a finish, all from the two processes spawned up front."""
        events = []
        ParallelSweepRunner(jobs=2).run(
            make_config, CASES, families.utilization_extract,
            on_progress=events.append)
        for phase in ("start", "finish"):
            assert sorted(event.index for event in events
                          if event.phase == phase) == list(range(len(CASES)))
        assert len({event.worker for event in events}) == 2

    def test_unpicklable_extract_is_a_clean_error(self):
        with pytest.raises(ConfigurationError, match="picklable"):
            sweep(make_config, CASES[:2], lambda r: {}, jobs=2)

    def test_imported_closure_factory_is_refused_before_any_worker(self):
        """The extractor comes from a factory in another module, so no
        lambda or nested `def` is visible here; the runner still refuses
        it, and does so before a process is spawned or a point started."""
        import multiprocessing

        events = []
        with pytest.raises(ConfigurationError, match="picklable"):
            ParallelSweepRunner(jobs=2).run(
                make_config, CASES[:2], make_probe(),
                on_progress=events.append)
        assert events == []
        assert multiprocessing.active_children() == []

    def test_stdin_main_module_is_a_clean_error(self, monkeypatch):
        """A __main__ that spawn children cannot re-import (piped stdin
        script) must raise instead of hanging in a worker respawn loop."""
        import sys
        import types

        fake_main = types.ModuleType("__main__")
        fake_main.__file__ = "<stdin>"
        fake_main.__spec__ = None
        monkeypatch.setitem(sys.modules, "__main__", fake_main)
        with pytest.raises(ConfigurationError, match="re-import"):
            sweep(make_config, CASES[:2], families.utilization_extract,
                  jobs=2)

    def test_spawn_errors_name_the_jobs1_workaround(self, monkeypatch):
        """Both unspawnable-__main__ diagnostics must tell the user the
        serial fallback exists."""
        import sys
        import types

        from repro.parallel.backends.local import _check_spawnable_main

        fake_main = types.ModuleType("__main__")
        fake_main.__file__ = "<stdin>"
        fake_main.__spec__ = None
        monkeypatch.setitem(sys.modules, "__main__", fake_main)
        with pytest.raises(ConfigurationError, match="jobs=1"):
            _check_spawnable_main()

        worker_main = types.ModuleType("__main__")
        worker_main.__file__ = "whatever.py"
        worker_main.__spec__ = None
        monkeypatch.setitem(sys.modules, "__main__", worker_main)
        monkeypatch.setattr(
            "multiprocessing.current_process",
            lambda: types.SimpleNamespace(name="repro-worker-1",
                                          daemon=True))
        with pytest.raises(ConfigurationError, match="jobs=1"):
            _check_spawnable_main()


class TestCacheIntegration:
    def test_second_sweep_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        started = time.perf_counter()
        cold = sweep(make_config, CASES[:2], families.utilization_extract,
                     cache=cache)
        cold_seconds = time.perf_counter() - started
        assert (cache.hits, cache.misses) == (0, 2)
        started = time.perf_counter()
        warm = sweep(make_config, CASES[:2], families.utilization_extract,
                     cache=cache)
        warm_seconds = time.perf_counter() - started
        assert (cache.hits, cache.misses) == (2, 2)
        assert warm == cold
        # A warm sweep is disk reads only (the suite's
        # `phase_sweep_cache` workload measures the ratio at > 100x).
        assert cold_seconds >= 5.0 * warm_seconds

    def test_parallel_populates_cache_serial_reads_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        parallel = sweep(make_config, CASES[:2],
                         families.utilization_extract,
                         jobs=2, cache=cache)
        warm = sweep(make_config, CASES[:2], families.utilization_extract,
                     cache=cache)
        assert warm == parallel
        assert cache.hits == 2

    def test_partial_hits_only_simulate_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep(make_config, CASES[:1], families.utilization_extract,
              cache=cache)
        cache.hits = cache.misses = 0
        points = sweep(make_config, CASES[:2], families.utilization_extract,
                       cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert [p.value for p in points] == CASES[:2]


class TestPerConfigExtractors:
    """One sweep with one extractor per config — how ``repro report``
    runs every experiment's points through one pool."""

    EXTRACTS = [families.utilization_extract, families.timeouts_extract]

    def test_each_point_is_measured_and_keyed_by_its_own_extractor(
            self, tmp_path):
        configs = [make_config(case) for case in CASES[:2]]
        cache = ResultCache(tmp_path)
        mixed = ParallelSweepRunner(jobs=2, cache=cache).run_configs(
            configs, self.EXTRACTS)
        assert mixed == [ParallelSweepRunner().run_configs([config], extract)[0]
                         for config, extract in zip(configs, self.EXTRACTS)]
        warm = ResultCache(tmp_path)
        ParallelSweepRunner(cache=warm).run_configs(configs, self.EXTRACTS)
        ParallelSweepRunner(cache=warm).run_configs(
            configs[1:], families.utilization_extract)
        assert (warm.hits, warm.misses) == (2, 1)

    def test_one_extractor_per_config(self):
        with pytest.raises(ConfigurationError, match="2 extractors for 1 configs"):
            ParallelSweepRunner().run_configs([make_config(CASES[0])],
                                              self.EXTRACTS)


def _finishes(events):
    return [(event.index, event.measurements) for event in events
            if event.phase == "finish"]


class TestProgressCallback:
    def test_finish_events_carry_every_point(self):
        events = []
        points = sweep(make_config, CASES[:2], families.utilization_extract,
                       on_progress=events.append)
        assert _finishes(events) == [(index, point.measurements)
                                     for index, point in enumerate(points)]
        assert all(event.measurements is None for event in events
                   if event.phase != "finish")

    def test_finish_events_fire_for_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = sweep(make_config, CASES[:2], families.utilization_extract,
                       cache=cache)
        events = []
        sweep(make_config, CASES[:2], families.utilization_extract,
              cache=cache, on_progress=events.append)
        assert all(event.cached for event in events)
        assert _finishes(events) == [(index, point.measurements)
                                     for index, point in enumerate(points)]
