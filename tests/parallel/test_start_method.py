"""How ``jobs > 1`` workers are started, and that it never shows.

On Linux a single-threaded parent forks its workers; any other parent
spawns them.  The two must be indistinguishable in what a sweep
returns: a forked worker inherits the parent's heap, so a measurement
that leaned on state the parent left behind would differ here.
"""

import gc
import multiprocessing
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.obs.telemetry import SweepTelemetry
from repro.parallel import ParallelSweepRunner
from repro.parallel.backends import local
from repro.scenarios import families

CONFIGS = [families.manyflow_config(case, duration=20.0, warmup=5.0)
           for case in [(2, 20, 1.0), (4, 30, 1.0), (8, 40, 1.0),
                        (3, 25, 0.0)]]

linux = pytest.mark.skipif(not sys.platform.startswith("linux"),
                           reason="workers fork on Linux only")


def worker_state(result):
    """Where this point ran, from inside the process that ran it."""
    return {"start_method": multiprocessing.get_start_method(),
            "gc_enabled": gc.isenabled(),
            "heap_frozen": gc.get_freeze_count() > 0}


@contextmanager
def helper_thread():
    """A second live Python thread for the duration of the block."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait, name="helper")
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join(5.0)
        assert not thread.is_alive()


def sweep(extract, metered=False):
    telemetry = SweepTelemetry() if metered else None
    results = ParallelSweepRunner(jobs=2).run_configs(
        CONFIGS, extract, telemetry=telemetry)
    return results, telemetry


def aggregate(telemetry):
    """Every simulated number the metered points reported, one entry
    per value: all rows but the wall clock's.

    Workers fold in completion order, so float sums may differ in the
    last place between runs; anything inherited would differ by far
    more.
    """
    values = {}
    for row in telemetry.document()["point_aggregate"]:
        if "wall" in row["name"]:
            continue
        key = (row["name"], tuple(sorted(row["labels"].items())))
        for field, value in row.items():
            if isinstance(value, list):
                for position, item in enumerate(value):
                    values[key + (field, position)] = item
            elif isinstance(value, (int, float)):
                values[key + (field,)] = value
    return values


class TestStartMethod:
    @linux
    def test_single_threaded_linux_parent_forks(self):
        assert threading.active_count() == 1, threading.enumerate()
        assert local._start_method() == "fork"
        results, _ = sweep(worker_state)
        assert {point["start_method"] for point in results} == {"fork"}

    def test_parent_with_helper_thread_spawns(self):
        with helper_thread():
            assert local._start_method() == "spawn"
            results, _ = sweep(worker_state)
        assert {point["start_method"] for point in results} == {"spawn"}

    def test_other_platforms_spawn(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert local._start_method() == "spawn"

    @linux
    def test_forked_worker_collects_but_not_what_it_inherited(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            results, _ = sweep(worker_state)
        finally:
            if was_enabled:
                gc.enable()
        assert all(point == {"start_method": "fork", "gc_enabled": True,
                             "heap_frozen": True} for point in results)


@linux
class TestForkSpawnEquivalence:
    def test_serial_fork_and_spawn_measure_alike(self):
        serial = ParallelSweepRunner(jobs=1).run_configs(
            CONFIGS, families.sync_extract)
        forked, _ = sweep(families.sync_extract)
        with helper_thread():
            spawned, _ = sweep(families.sync_extract)
        assert forked == serial
        assert spawned == serial

    def test_metered_points_carry_nothing_from_the_parent(self):
        # The parent meters every point first: a registry or harvest
        # state it kept would ride into the forked workers.
        serial_telemetry = SweepTelemetry()
        serial = ParallelSweepRunner(jobs=1).run_configs(
            CONFIGS, families.sync_extract, telemetry=serial_telemetry)
        forked, fork_telemetry = sweep(families.sync_extract, metered=True)
        with helper_thread():
            spawned, spawn_telemetry = sweep(families.sync_extract,
                                             metered=True)
        assert forked == serial
        assert spawned == serial
        expected = aggregate(serial_telemetry)
        assert aggregate(fork_telemetry) == pytest.approx(expected, rel=1e-9)
        assert aggregate(spawn_telemetry) == pytest.approx(expected, rel=1e-9)
        assert (fork_telemetry.total_events == spawn_telemetry.total_events
                == serial_telemetry.total_events)
