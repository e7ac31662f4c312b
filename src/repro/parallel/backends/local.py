"""The local execution backend: this host's processes, no network.

``LocalBackend.execute`` is pre-flight checks, a crew of pipe workers
and :func:`~repro.parallel.backends.coordinator.coordinate`.  With
``jobs > 1`` the crew has ``jobs`` slots: long-lived ``repro-worker-N``
processes, each started once and fed one point at a time over its own
duplex pipe as pickled tuples.  With ``jobs == 1`` the crew has no
slots and the same loop runs every attempt in this process — no
pickling requirements, and no process boundary to enforce a timeout
across.  What a policy adds (deadlines, crash containment, retries) is
the coordinator's business, not this module's.

Where each start method applies: on Linux, when this process runs no
other Python thread, workers are forked from it and start serving at
once; everywhere else — other platforms, or a parent that hosts a
cache-server or fleet pump thread — they are spawned, fresh
interpreters that pay their start-up and ``import repro`` before their
first point.  Both are one code path, :func:`_start_child`, which the
worker backend's forked agents start through too: a forked child
closes its inherited copies of every parent end, so it sees EOF when
this process dies, just as a spawned one does, and it freezes the heap
it inherited and turns its collector back on.

This module is also the fallback target for graceful degradation: when
a distributed backend dies mid-sweep the runner re-issues the remaining
points here, so a fleet outage costs locality, never results.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import os
import pickle
import sys
import threading
import warnings
from contextlib import contextmanager, nullcontext
from typing import Callable
from multiprocessing import util

from repro.errors import ConfigurationError
from repro.parallel.backends.base import BackendRequest, SweepBackend
from repro.parallel.backends.coordinator import (
    Crew,
    Transport,
    _attempt,
    coordinate,
)

__all__ = ["LocalBackend"]

#: The fallback, and the only choice off Linux or beside another Python
#: thread: works on every platform and never inherits dirty parent
#: state, at the price of a fresh interpreter per worker.
_START_METHOD = "spawn"

#: What CPython >= 3.12 warns on every fork from a process with more
#: than one OS thread, exactly (``warnings`` matches it from the start).
_FORK_WARNING = (r"This process \(pid=\d+\) is multi-threaded, use of "
                 r"fork\(\) may lead to deadlocks in the child\.")


def _start_method() -> str:
    """``fork`` on Linux when this process runs no other Python thread;
    :data:`_START_METHOD` otherwise.

    A forked child holds only the thread that forked it: any lock
    another Python thread held at that instant (a cache server's, a
    fleet pump's) stays held forever in the child.  Hence the thread
    count, read once per sweep: replacement workers start the way the
    first ones did.
    """
    if sys.platform.startswith("linux") and threading.active_count() == 1:
        return "fork"
    return _START_METHOD


@contextmanager
def _quiet_fork():
    """Silence CPython's multi-threaded-fork warning, on the fork path.

    CPython issues it after the fork and drops it if a filter turns it
    into an error, so it cannot fail a start; unfiltered it is printed
    under ``-W default`` and in pytest's summary, once per worker.
    The threads it counts are native ones: ``import numpy`` starts an
    OpenBLAS pool, so this process has two OS threads and one Python
    thread.  Forking beside that pool is safe: OpenBLAS registers a
    ``pthread_atfork`` handler that shuts the pool down before every
    fork and restarts it lazily on next use, and its threads never
    run Python, so they hold no Python lock.  ``catch_warnings`` is
    not thread-safe, which :func:`_start_method` makes moot: it forks
    only when this is the only Python thread.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
        yield


def _check_spawnable_main() -> None:
    """Refuse to start workers when spawn cannot re-import ``__main__``.

    A ``__main__`` fed from stdin (``python - <<EOF``) reports a
    ``__file__`` of ``<stdin>`` that spawn children try — and fail — to
    re-run, so every worker would die on start-up.  Raising here turns
    that into an actionable error.
    """
    process = multiprocessing.current_process()
    if process.daemon or process.name != "MainProcess":
        raise ConfigurationError(
            "parallel sweeps cannot be started from a worker process; "
            "guard the sweep call with `if __name__ == \"__main__\":` so "
            "spawn children do not re-run it on import, or use jobs=1."
        )
    main = sys.modules.get("__main__")
    if main is None or getattr(main, "__spec__", None) is not None:
        return
    main_file = getattr(main, "__file__", None)
    if main_file is not None and not os.path.exists(main_file):
        raise ConfigurationError(
            "jobs > 1 needs a __main__ module that worker processes can "
            f"re-import, but it came from {main_file!r} (a piped script or "
            "REPL). Run from a real file or use jobs=1."
        )


def _check_picklable_extract(extracts) -> None:
    """The worker-process analogue of the wire protocol's extract check."""
    try:
        pickle.dumps(list({id(extract): extract for extract in extracts}.values()))
    except Exception as exc:
        raise ConfigurationError(
            "extract must be a module-level (picklable) callable "
            f"when jobs > 1: {exc}"
        ) from exc


def _child_main(target: Callable[..., object], *args: object) -> None:
    """Entry of every child :func:`_start_child` starts: ``target(*args)``.

    A forked child may inherit a paused collector (the parent can sweep
    with gc disabled) and a heap it only reads: collect again, but never
    the inherited objects — a collection that walks them copies their
    pages, and one that frees an inherited unreachable cycle would
    finalize the parent's objects here (flush its file buffers twice).
    """
    gc.enable()
    gc.freeze()
    target(*args)


def _start_child(context, name: str, target: Callable[..., object],
                 parent_ends: tuple, child_ends: tuple
                 ) -> multiprocessing.process.BaseProcess:
    """Start ``target(*child_ends)`` as daemon process ``name``.

    The one start of a sweep worker or a forked fleet agent.  Each
    parent end is closed in every forked child, this one's and its
    later siblings', so this process stays its only holder and the
    child reads EOF when this process dies; the child ends are closed
    here once the child holds them, and the parent ends too when the
    start fails.  Every end answers ``close()``.
    """
    for end in parent_ends:
        util.register_after_fork(end, type(end).close)
    process = context.Process(target=_child_main,
                              args=(target, *child_ends),
                              name=name, daemon=True)
    forks = context.get_start_method() == "fork"
    try:
        with _quiet_fork() if forks else nullcontext():
            process.start()
    except OSError:
        for end in parent_ends:
            end.close()
        raise
    finally:
        for end in child_ends:
            end.close()
    return process


def _worker_main(conn) -> None:
    """Body of a long-lived worker: one task in, one tagged outcome out.

    Serves ``(lease_id, index, attempt, config, faults, extract)`` tasks
    until the parent closes the pipe, answering ``(lease_id, outcome,
    body)``.
    A worker that dies without answering is diagnosed as a crash by the
    parent when the pipe EOFs; one whose parent has stopped listening
    (it timed the attempt out, or died) just leaves.
    """
    try:
        while True:
            lease_id, *job = conn.recv()
            conn.send((lease_id, *_attempt(*job)[:2]))
    except (EOFError, OSError):
        conn.close()


class _PipeWorker(Transport):
    """A worker process and its dedicated duplex pipe.

    Ready at birth and silent while it works: a dead one surfaces as
    EOF on *its* pipe the moment its only writer is gone, a hung one
    only as a missed per-point deadline.
    """

    def __init__(self, context, ordinal: int) -> None:
        self.waitable, child_end = context.Pipe()
        self.process = _start_child(
            context, f"repro-worker-{ordinal}", _worker_main,
            (self.waitable,), (child_end,))
        self.name = self.process.name

    def send(self, lease_id: str, task: tuple) -> None:
        self.waitable.send((lease_id, *task))

    def messages(self) -> list[tuple]:
        try:
            lease_id, outcome, body = self.waitable.recv()
        except (EOFError, OSError):
            self.reap(force=True)
            return [("dead", "", f"exit code {self.process.exitcode}")]
        return [(outcome, lease_id, body)]

    def dismiss(self) -> None:
        self.waitable.close()
        self.process.terminate()

    def reap(self, force: bool = False) -> None:
        self.dismiss()
        self.process.join(5.0)
        if self.process.is_alive():  # pragma: no cover - needs a SIGTERM-immune child
            self.process.kill()
            self.process.join()


class LocalBackend(SweepBackend):
    """Execute sweep points with this host's processes."""

    name = "local"

    def execute(self, request: BackendRequest) -> None:
        if request.jobs > 1:
            _check_spawnable_main()
            _check_picklable_extract(request.extracts)
        context = multiprocessing.get_context(_start_method())
        ordinals = itertools.count(1)

        def spawn() -> _PipeWorker | None:
            try:
                return _PipeWorker(context, next(ordinals))
            except OSError as exc:
                # fd/PID exhaustion: degrade instead of killing the sweep.
                warnings.warn(
                    f"could not spawn a sweep worker ({exc}); carrying on "
                    "with the workers already running, or in-process when "
                    "there are none (no timeout enforcement there)",
                    RuntimeWarning, stacklevel=4)
                return None

        # ``jobs`` pipe-worker slots — none at all for ``jobs == 1``.
        coordinate(request, Crew(
            spawn, slots=request.jobs if request.jobs > 1 else 0))
