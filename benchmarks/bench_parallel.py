"""Microbenchmarks for the parallel sweep runner and the result cache.

Measures what the ``repro.parallel`` subsystem is for: a worker pool
must beat the serial path on a real multi-point sweep, and a warm cache
must turn a sweep into pure disk reads (orders of magnitude faster than
simulating).  Results are asserted identical across all paths — the
speed-ups are only interesting because the numbers don't move.
"""

import functools
import time

from repro.parallel import ParallelSweepRunner, ResultCache
from repro.scenarios import families, sweep

from benchmarks.conftest import run_once

# Four fixed-window cases, long enough that simulation dominates the
# worker-pool spawn overhead.
CASES = families.CONJECTURE_CASES[:4]
_make_config = functools.partial(families.conjecture_config,
                                 duration=120.0, warmup=60.0)


def test_parallel_sweep_matches_serial(benchmark, record):
    """jobs=4 must return byte-identical points, measured for speed."""
    serial_start = time.perf_counter()
    serial = sweep(_make_config, CASES, families.utilization_extract)
    serial_elapsed = time.perf_counter() - serial_start

    parallel = run_once(benchmark, lambda: sweep(
        _make_config, CASES, families.utilization_extract, jobs=4))

    record(serial_seconds=round(serial_elapsed, 3),
           n_points=len(CASES))
    assert parallel == serial


def test_warm_cache_skips_simulation(benchmark, record, tmp_path):
    """A warm-cache sweep must be >= 5x faster than the cold run."""
    cache = ResultCache(tmp_path / "cache")

    cold_start = time.perf_counter()
    cold = sweep(_make_config, CASES, families.utilization_extract,
                 cache=cache)
    cold_elapsed = time.perf_counter() - cold_start
    assert cache.misses == len(CASES)

    warm = run_once(benchmark, lambda: sweep(
        _make_config, CASES, families.utilization_extract, cache=cache))
    warm_elapsed = benchmark.stats.stats.mean

    record(cold_seconds=round(cold_elapsed, 3),
           warm_seconds=round(warm_elapsed, 5),
           speedup=round(cold_elapsed / warm_elapsed, 1))
    assert warm == cold
    assert cache.hits == len(CASES)
    assert cold_elapsed / warm_elapsed >= 5.0


def test_runner_order_independence(benchmark, record):
    """Unordered completion still yields input-ordered points."""
    runner = ParallelSweepRunner(jobs=2)
    points = run_once(benchmark, lambda: runner.run(
        _make_config, CASES, families.utilization_extract))
    record(n_points=len(points))
    assert [p.value for p in points] == list(CASES)
