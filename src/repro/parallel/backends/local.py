"""The local execution backend: this host's processes, no network.

``LocalBackend.execute`` is pre-flight checks, a crew of pipe workers
and :func:`~repro.parallel.backends.coordinator.coordinate`.  With
``jobs > 1`` the crew has ``jobs`` slots: long-lived ``repro-worker-N``
processes, each spawned once (``spawn`` start method) and fed one point
at a time over its own duplex pipe as pickled tuples.  With
``jobs == 1`` the crew has no slots and the same loop runs every
attempt in this process — no pickling requirements, and no process
boundary to enforce a timeout across.  What a policy adds (deadlines,
crash containment, retries) is the coordinator's business, not this
module's.

This module is also the fallback target for graceful degradation: when
a distributed backend dies mid-sweep the runner re-issues the remaining
points here, so a fleet outage costs locality, never results.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import sys
import warnings

from repro.errors import ConfigurationError
from repro.parallel.backends.base import BackendRequest, SweepBackend
from repro.parallel.backends.coordinator import (
    Crew,
    Transport,
    _attempt,
    coordinate,
)

__all__ = ["LocalBackend"]

#: Works on every platform and never inherits dirty parent state.
_START_METHOD = "spawn"


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


def _worker_main(conn, metered: bool) -> None:
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
            conn.send((lease_id, *_attempt(*job, metered)[:2]))
    except (EOFError, OSError):
        conn.close()


class _PipeWorker(Transport):
    """A spawned worker process and its dedicated duplex pipe.

    Ready at birth and silent while it works: a dead one surfaces as
    EOF on *its* pipe the moment its only writer is gone, a hung one
    only as a missed per-point deadline.
    """

    def __init__(self, context, ordinal: int, metered: bool) -> None:
        self.waitable, child_end = context.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child_end, metered),
            name=f"repro-worker-{ordinal}", daemon=True)
        self.name = self.process.name
        try:
            self.process.start()
        except OSError:
            self.waitable.close()
            raise
        finally:
            child_end.close()

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
        context = multiprocessing.get_context(_START_METHOD)
        ordinals = itertools.count(1)

        def spawn() -> _PipeWorker | None:
            try:
                return _PipeWorker(context, next(ordinals), request.metered)
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
