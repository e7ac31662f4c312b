"""How ``jobs > 1`` workers and local fleet agents are started, and
that it never shows.

On Linux a single-threaded parent forks its workers and its default
agents; any other parent spawns them, and so does a fleet given its own
``command=``.  The two must be indistinguishable in what a sweep
returns: a forked worker inherits the parent's heap, so a measurement
that leaned on state the parent left behind would differ here.
"""

import gc
import multiprocessing
import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.parallel import ParallelSweepRunner, WorkerBackend
from repro.parallel.backends import local
from repro.parallel.backends.worker import default_agent_command
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


class AgentProbe:
    """Progress callback: each agent's parent PID and argv, read from
    ``/proc`` when its first point starts (the agent is alive then)."""

    def __init__(self):
        self.agents = {}

    def __call__(self, event):
        if event.phase != "start" or event.worker in self.agents:
            return
        pid = int(event.worker.rsplit(":", 1)[1])  # agentN@host:pid
        stat = Path(f"/proc/{pid}/stat").read_text()
        argv = Path(f"/proc/{pid}/cmdline").read_bytes().split(b"\0")
        self.agents[event.worker] = (int(stat.rsplit(")", 1)[1].split()[1]),
                                     b" ".join(argv).decode())

    def spawned(self):
        """Whether the agents that ran points run ``repro worker
        serve``: ``{True}``, ``{False}``, or both.  Every one must be a
        child of this process either way."""
        assert self.agents
        assert {ppid for ppid, _ in self.agents.values()} == {os.getpid()}
        return {" ".join(default_agent_command()[-3:]) in argv
                for _, argv in self.agents.values()}


@pytest.fixture
def agent_path(monkeypatch):
    """Spawned agents re-import repro; make sure they can find it."""
    monkeypatch.setenv("PYTHONPATH", str(Path(repro.__file__).parents[1]))


def sweep(extract, backend=None, on_progress=None):
    return ParallelSweepRunner(jobs=2, backend=backend).run_configs(
        CONFIGS, extract, on_progress=on_progress)


def fleet_sweep(extract, command=None):
    """A two-agent fleet sweep; also returns who ran it."""
    probe = AgentProbe()
    results = sweep(extract, WorkerBackend(workers=2, command=command), probe)
    return results, probe


class TestStartMethod:
    @linux
    def test_single_threaded_linux_parent_forks(self):
        assert threading.active_count() == 1, threading.enumerate()
        assert local._start_method() == "fork"
        results = sweep(worker_state)
        assert {point["start_method"] for point in results} == {"fork"}

    def test_parent_with_helper_thread_spawns(self):
        with helper_thread():
            assert local._start_method() == "spawn"
            results = sweep(worker_state)
        assert {point["start_method"] for point in results} == {"spawn"}

    def test_other_platforms_spawn(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert local._start_method() == "spawn"

    @linux
    def test_forked_worker_collects_but_not_what_it_inherited(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            results = sweep(worker_state)
        finally:
            if was_enabled:
                gc.enable()
        assert all(point == {"start_method": "fork", "gc_enabled": True,
                             "heap_frozen": True} for point in results)


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"),
                                reason="reads each agent's /proc entry")


@needs_proc
@pytest.mark.usefixtures("agent_path")
class TestAgentStart:
    @linux
    def test_single_threaded_linux_parent_forks_its_agents(self):
        assert threading.active_count() == 1, threading.enumerate()
        _, probe = fleet_sweep(families.sync_extract)
        assert probe.spawned() == {False}

    @linux
    def test_forked_agent_collects_but_not_what_it_inherited(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            results, _ = fleet_sweep(worker_state)
        finally:
            if was_enabled:
                gc.enable()
        assert all(point["gc_enabled"] and point["heap_frozen"]
                   for point in results)

    def test_parent_with_helper_thread_spawns_its_agents(self):
        with helper_thread():
            _, probe = fleet_sweep(families.sync_extract)
        assert probe.spawned() == {True}

    @pytest.mark.parametrize("wrap", [[], ["sh", "-c", 'exec "$@"', "sh"]],
                             ids=["direct", "wrapped"])
    def test_custom_command_spawns_its_agents(self, wrap):
        # ``wrapped`` is shaped like ``ssh host python -m repro worker
        # serve``: another program starts the agent and hands it its stdio.
        serial = ParallelSweepRunner(jobs=1).run_configs(
            CONFIGS, families.sync_extract)
        results, probe = fleet_sweep(
            families.sync_extract, command=[*wrap, *default_agent_command()])
        assert probe.spawned() == {True}
        assert results == serial


@linux
class TestForkSpawnEquivalence:
    def test_serial_fork_and_spawn_measure_alike(self):
        serial = ParallelSweepRunner(jobs=1).run_configs(
            CONFIGS, families.sync_extract)
        forked = sweep(families.sync_extract)
        with helper_thread():
            spawned = sweep(families.sync_extract)
        assert forked == serial
        assert spawned == serial

    @needs_proc
    @pytest.mark.usefixtures("agent_path")
    def test_serial_forked_and_spawned_fleets_measure_alike(self):
        serial = ParallelSweepRunner(jobs=1).run_configs(
            CONFIGS, families.sync_extract)
        forked, fork_probe = fleet_sweep(families.sync_extract)
        with helper_thread():
            spawned, spawn_probe = fleet_sweep(families.sync_extract)
        assert fork_probe.spawned() == {False}
        assert spawn_probe.spawned() == {True}
        assert forked == serial
        assert spawned == serial
