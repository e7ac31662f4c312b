"""Suite-wide fixtures: the tier-1 process/thread leak guard."""

import multiprocessing
import threading
import time

import pytest

#: Directories whose tests drive sweep workers, servers and agents.
_GUARDED = ("tests/parallel/", "tests/resilience/", "tests/integration/")


def _leaks(threads_before: set) -> list[str]:
    children = [f"process {child.name}"
                for child in multiprocessing.active_children()]
    threads = [f"thread {thread.name}" for thread in threading.enumerate()
               if thread.is_alive() and not thread.daemon
               and thread not in threads_before]
    return children + threads


@pytest.fixture(autouse=True)
def no_leaked_workers(request):
    """Fail a test that leaves a child process or a non-daemon thread
    behind — long-lived sweep workers make a forgotten shutdown path a
    leak, not a zombie that exits by itself."""
    if not request.node.nodeid.startswith(_GUARDED):
        yield
        return
    threads_before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0  # a stopping thread may still be unwinding
    while (leaks := _leaks(threads_before)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not leaks, f"test leaked: {', '.join(leaks)}"
