"""A sweep whose parent is SIGKILLed leaves no worker behind.

Each worker's pipe has one parent end, held by the coordinating
process alone; when that process dies the worker reads EOF — or fails
its next send — and leaves as soon as its point ends.  A forked worker
inherits copies of every parent end open at the fork, its own
included, and would wait on its pipe forever unless it closed them.
Both transports are held to this: the local pool's pipe workers and
the fleet's local agents.
"""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.resilience import FAULTS_ENV

#: Seconds each of the helper's two points sleeps before simulating.
POINT_S = 3.0

HELPER = """
from repro.parallel import ParallelSweepRunner, WorkerBackend
from repro.scenarios import families

def announce(event):
    print(event.phase, event.index, flush=True)

configs = [families.manyflow_config((2, 20, 1.0), duration=10.0, warmup=5.0)
           for _ in range(4)]
ParallelSweepRunner(jobs=2, backend={backend}).run_configs(
    configs, families.sync_extract, on_progress=announce)
"""


def _children(pid: int) -> set[int]:
    children = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue  # raced with exit
            if int(fields[1]) == pid:
                children.add(int(entry.name))
    return children


def _alive(pid: int) -> bool:
    """Running, that is: a zombie has exited and only awaits its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _await_starts(stream, count: int, timeout: float) -> None:
    """Read the helper's progress until ``count`` points have started."""
    seen = b""
    deadline = time.monotonic() + timeout
    while seen.count(b"start") < count:
        ready, _, _ = select.select(
            [stream], [], [], max(0.0, deadline - time.monotonic()))
        assert ready, f"points not started after {timeout} s: {seen!r}"
        chunk = os.read(stream.fileno(), 4096)
        assert chunk, "the helper exited before its points started"
        seen += chunk


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs /proc to find the helper's workers")
@pytest.mark.parametrize("backend", ["None", "WorkerBackend(workers=2)"],
                         ids=["pool", "fleet"])
def test_sigkilled_parent_leaves_no_worker_behind(backend):
    env = {**os.environ, FAULTS_ENV: f"slow@0:{POINT_S};slow@1:{POINT_S}",
           "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    workers: set[int] = set()
    with subprocess.Popen([sys.executable, "-c",
                           HELPER.format(backend=backend)], env=env,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as helper:
        try:
            _await_starts(helper.stdout, 2, timeout=60.0)
            workers = _children(helper.pid)
            assert len(workers) >= 2, workers
            helper.send_signal(signal.SIGKILL)
            helper.wait(timeout=10.0)
            deadline = time.monotonic() + POINT_S + 5.0
            while ((alive := {pid for pid in workers if _alive(pid)})
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert not alive, f"workers outlived their parent: {alive}"
            # They left quietly: every writer of the helper's stderr is
            # gone, so this reads to EOF.
            assert b"Traceback" not in helper.stderr.read()
        finally:
            helper.kill()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
