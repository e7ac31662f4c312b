"""Suite-wide fixtures: the tier-1 process/thread/fd leak guard."""

import gc
import multiprocessing
import os
import threading
import time
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

#: Daemon threads the sweep machinery names; a daemon thread cannot keep
#: the interpreter alive, so only these are held to account.
_OURS = ("pump-", "heartbeat-", "repro-")


def _child_pids() -> set[int]:
    """This process's children, however they were started — worker
    agents are ``subprocess.Popen`` children that ``multiprocessing``
    never hears of.  Zombies count: nobody waited for them; the spawn
    context's resource tracker, which lives as long as we do, does not.
    POSIX with ``/proc`` only; elsewhere the guard sees
    ``multiprocessing`` alone."""
    children = set()
    if not os.path.isdir("/proc/self"):
        return children
    me = os.getpid()
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue  # raced with exit
            if int(fields[1]) == me and int(entry.name) != tracker:
                children.add(int(entry.name))
    return children


def _open_fds() -> int:
    """Descriptors this process holds, less the pipe to the spawn
    context's resource tracker (started by the first spawn, kept as long
    as we live); 0 without ``/proc``."""
    if not os.path.isdir("/proc/self/fd"):
        return 0
    tracker = getattr(resource_tracker._resource_tracker, "_fd", None)
    return sum(1 for fd in os.listdir("/proc/self/fd") if int(fd) != tracker)


def _leaks(threads_before: set, children_before: set[int],
           fds_before: int) -> list[str]:
    children = [f"process {child.name}"
                for child in multiprocessing.active_children()]
    children += [f"child pid {pid}"
                 for pid in sorted(_child_pids() - children_before)]
    threads = [f"thread {thread.name}" for thread in threading.enumerate()
               if thread.is_alive() and thread not in threads_before
               and (not thread.daemon or thread.name.startswith(_OURS))]
    fds = _open_fds() - fds_before
    if fds > 0:
        # Unreachable objects may still hold some: collect them before
        # blaming the test (only then — a full collection per test
        # would cost a quarter of the guarded tests' run time).
        gc.collect()
        fds = _open_fds() - fds_before
    return children + threads + ([f"{fds} fd(s)"] if fds > 0 else [])


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves a child process, one of our threads or an
    open descriptor behind — long-lived sweep workers make a forgotten
    shutdown path a leak, not a zombie that exits by itself."""
    threads_before = set(threading.enumerate())
    children_before = _child_pids()
    fds_before = _open_fds()
    yield
    deadline = time.monotonic() + 2.0  # a stopping thread may still be unwinding
    while ((leaks := _leaks(threads_before, children_before, fds_before))
           and time.monotonic() < deadline):
        time.sleep(0.05)
    assert not leaks, f"test leaked: {', '.join(leaks)}"


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retry after 0.01 s, capped at 0.02 s, instead of the policy's
    seconds; the backoff schedule itself is covered in
    ``tests/resilience/test_policy.py``.  The delay is computed in the
    parent, so patching the parent's constants is enough."""
    from repro.resilience import policy

    monkeypatch.setattr(policy, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(policy, "BACKOFF_CAP", 0.02)
