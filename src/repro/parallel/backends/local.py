"""The local execution backend: this host's processes, no network.

Three bodies share the backend, selected by ``request.jobs`` and
``request.policy``:

* **serial** (``jobs == 1``, no policy) — the in-process loop with no
  overhead; an exception fails the whole sweep with its own type.
* **supervised serial** (``jobs == 1`` under a policy) — in-process
  attempts with retry/backoff, but no process boundary to enforce a
  timeout across.
* **workers** (``jobs > 1``) — at most ``jobs`` long-lived worker
  processes, each spawned once and fed one point at a time over its own
  pipe.  Under a policy the supervisor enforces per-point wall-clock
  timeouts, contains worker crashes, and retries failed points with
  deterministic backoff through ``request.attempt_failed``; without one
  the same loop runs with no deadline and the first failed attempt
  fails the sweep.

This module is also the fallback target for graceful degradation: when
a distributed backend dies mid-sweep the runner re-issues the remaining
points here, so a fleet outage costs locality, never results.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import sys
import warnings
from dataclasses import dataclass
from multiprocessing import connection
from time import monotonic, perf_counter, sleep

from repro.errors import ConfigurationError, ReproError
from repro.parallel.backends.base import BackendRequest, SweepBackend
from repro.parallel.progress import PointProgress
from repro.resilience.faults import apply_worker_faults
from repro.resilience.report import (
    OUTCOME_CRASH,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
)
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import run as run_scenario

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


def _check_picklable_extract(extract) -> None:
    """The worker-process analogue of the wire protocol's extract check."""
    try:
        pickle.dumps(extract)
    except Exception as exc:
        raise ConfigurationError(
            "extract must be a module-level (picklable) callable "
            f"when jobs > 1: {exc}"
        ) from exc


def _run_point(config: ScenarioConfig, extract,
               metered: bool) -> tuple[dict, float, int, dict | None]:
    """Run one config and extract — the body every execution path shares.

    Alongside the measurements it reports the wall time spent
    simulating, the engine's event count, and — when the sweep collects
    telemetry — the point's metrics snapshot (a plain dict, so only
    JSON-able data crosses a process boundary), so the parent can emit
    progress lines, write live-point manifests and fold the snapshot
    into the :class:`~repro.obs.metrics.SweepTelemetry` aggregate.
    """
    begin = perf_counter()
    result = run_scenario(config, metrics=metered)
    wall_seconds = perf_counter() - begin
    snapshot = result.metrics.snapshot() if result.metrics is not None else None
    return extract(result), wall_seconds, result.events_processed, snapshot


def _attempt(index: int, attempt: int, config: ScenarioConfig, faults,
             extract, metered: bool) -> tuple:
    """One contained attempt, in whichever process it runs.

    Applies any scheduled injected faults first (so a ``kill`` dies
    before simulating, like a real early OOM), then runs and extracts.
    The outcome is a tagged tuple — ``("ok", measurements,
    wall_seconds, events, metrics_snapshot)`` or ``("error", detail)``.
    """
    try:
        apply_worker_faults(faults, index, attempt)
        return (OUTCOME_OK, *_run_point(config, extract, metered))
    except Exception as exc:
        return (OUTCOME_ERROR, f"{type(exc).__name__}: {exc}")


def _worker_main(conn, extract, metered: bool) -> None:
    """Body of a long-lived worker: one task in, one tagged outcome out.

    Serves ``(index, attempt, config, faults)`` tasks until the parent
    closes the pipe.  A worker that dies without answering is diagnosed
    as a crash by the parent when the pipe EOFs; one whose parent has
    stopped listening (it timed the attempt out, or died) just leaves.
    """
    try:
        while True:
            conn.send(_attempt(*conn.recv(), extract, metered))
    except (EOFError, OSError):
        conn.close()


@dataclass
class _Worker:
    """One long-lived worker process and the attempt it is running."""

    process: multiprocessing.process.BaseProcess
    conn: connection.Connection
    index: int = -1
    attempt: int = 0
    deadline: float = math.inf
    """Monotonic instant the attempt times out (``math.inf`` = never)."""
    begin: float = 0.0

    def stop(self) -> None:
        """Terminate and reap, escalating to SIGKILL if it will not die."""
        self.conn.close()
        self.process.terminate()
        self.process.join(5.0)
        if self.process.is_alive():  # pragma: no cover - needs a SIGTERM-immune child
            self.process.kill()
            self.process.join()


class _Supervisor:
    """Feeds points to at most ``jobs`` long-lived workers, with
    timeouts, crash containment and retry scheduling (the ``jobs > 1``
    path).

    Every worker is spawned once and owns a dedicated duplex pipe,
    multiplexed through :func:`multiprocessing.connection.wait`.  A dead
    worker surfaces as EOF on *its* pipe, a hung one as a missed
    monotonic deadline; both fail only the attempt that worker was
    running, the worker is killed and discarded, and the next dispatch
    spawns a replacement.  A worker that answered — with measurements
    or with an ``error`` — goes back on the idle list.  Failed attempts
    re-enter the queue with a ``not_before`` timestamp from the policy's
    deterministic backoff; without a policy (``attempt_failed is
    None``) the first failed attempt raises instead.

    If the host cannot spawn processes at all (fd/PID exhaustion —
    ``Process.start()`` raising ``OSError``), the attempt degrades to
    in-process execution with a ``RuntimeWarning`` instead of killing
    the sweep.
    """

    def __init__(self, request: BackendRequest) -> None:
        self._request = request
        self._context = multiprocessing.get_context(_START_METHOD)
        self._timeout = request.policy.timeout if request.policy else None
        #: (index, attempt, not_before) — runnable once monotonic() passes.
        self._queue: list[tuple[int, int, float]] = [
            (index, 1, 0.0) for index in request.pending]
        self._idle: list[_Worker] = []
        self._busy: dict[connection.Connection, _Worker] = {}
        self._spawned = 0

    def run(self) -> None:
        """Drive every queued point to completion or terminal failure."""
        try:
            while self._queue or self._busy:
                self._launch_ready()
                self._wait_and_collect()
        finally:
            # Any exit — KeyboardInterrupt included — must not orphan
            # workers, idle or busy.
            for worker in (*self._idle, *self._busy.values()):
                worker.stop()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _launch_ready(self) -> None:
        now = monotonic()
        for task in [t for t in self._queue if t[2] <= now]:
            if len(self._busy) >= self._request.jobs:
                return
            self._queue.remove(task)
            self._dispatch(task[0], task[1])

    def _dispatch(self, index: int, attempt: int) -> None:
        request = self._request
        task = (index, attempt, request.configs[index],
                request.fault_plan.worker_faults(index, attempt))
        worker = self._acquire(task)
        name = (worker.process if worker is not None
                else multiprocessing.current_process()).name
        request.emit(PointProgress(index=index, phase="start", attempt=attempt,
                                   worker=name))
        begin = perf_counter()
        if worker is None:
            payload = _attempt(*task, request.extract, request.metered)
            self._settle(index, attempt, name, payload, perf_counter() - begin)
            return
        worker.index, worker.attempt, worker.begin = index, attempt, begin
        worker.deadline = (math.inf if self._timeout is None
                           else monotonic() + self._timeout)
        self._busy[worker.conn] = worker

    def _acquire(self, task: tuple) -> _Worker | None:
        """An idle or freshly spawned worker that has been sent ``task``;
        ``None`` when the host cannot spawn one."""
        while True:
            worker = self._idle.pop() if self._idle else self._spawn()
            if worker is None:
                return None
            try:
                worker.conn.send(task)
                return worker
            except OSError:
                worker.stop()  # died while idle: not this point's failure

    def _spawn(self) -> _Worker | None:
        parent_end, child_end = self._context.Pipe()
        self._spawned += 1
        process = self._context.Process(
            target=_worker_main,
            args=(child_end, self._request.extract, self._request.metered),
            name=f"repro-worker-{self._spawned}",
            daemon=True,
        )
        try:
            process.start()
        except OSError as exc:
            parent_end.close()
            warnings.warn(
                f"could not spawn a sweep worker ({exc}); running this "
                "attempt in-process instead (no timeout enforcement)",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        finally:
            child_end.close()
        return _Worker(process, parent_end)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _wait_and_collect(self) -> None:
        if not self._busy:
            # Everything runnable is backing off: sleep to the first retry.
            if self._queue:
                pause = min(task[2] for task in self._queue) - monotonic()
                if pause > 0:
                    sleep(pause)
            return
        ready = connection.wait(list(self._busy), timeout=self._wait_budget())
        for conn in ready:
            self._collect(self._busy[conn])
        now = monotonic()
        for worker in [w for w in self._busy.values() if w.deadline <= now]:
            wall_seconds = perf_counter() - worker.begin
            self._retire(worker)
            self._settle(
                worker.index, worker.attempt, worker.process.name,
                (OUTCOME_TIMEOUT,
                 f"exceeded the per-point timeout of {self._timeout}s"),
                wall_seconds)

    def _collect(self, worker: _Worker) -> None:
        wall_seconds = perf_counter() - worker.begin
        try:
            payload = worker.conn.recv()
        except (EOFError, OSError):
            self._retire(worker)
            payload = (OUTCOME_CRASH, "worker died with exit code "
                       f"{worker.process.exitcode} before reporting a result")
        else:
            self._idle.append(worker)
            del self._busy[worker.conn]
        self._settle(worker.index, worker.attempt, worker.process.name,
                     payload, wall_seconds)

    def _retire(self, worker: _Worker) -> None:
        """Kill and discard a busy worker; it stays listed until it is
        reaped, so an interrupt in between cannot orphan it."""
        worker.stop()
        del self._busy[worker.conn]

    def _wait_budget(self) -> float | None:
        """Seconds to block in ``connection.wait`` before bookkeeping.

        Bounded by the nearest attempt deadline and — when a worker slot
        is free — the nearest backoff expiry, so timeouts fire promptly
        and retries are not starved behind long-running points.
        """
        horizon = min(worker.deadline for worker in self._busy.values())
        if self._queue and len(self._busy) < self._request.jobs:
            horizon = min(horizon, min(task[2] for task in self._queue))
        if math.isinf(horizon):
            return None
        return max(0.0, horizon - monotonic())

    def _settle(self, index: int, attempt: int, worker: str, payload: tuple,
                wall_seconds: float) -> None:
        """Account one finished attempt: complete it, requeue it, or —
        unsupervised — fail the sweep."""
        request = self._request
        if payload[0] == OUTCOME_OK:
            _, measurements, simulate_seconds, events, snapshot = payload
            request.complete(index, measurements, worker, simulate_seconds,
                             events, attempts=attempt, snapshot=snapshot)
            return
        outcome, detail = payload
        if request.attempt_failed is None:
            raise ReproError(
                f"sweep point {index} failed on worker {worker} "
                f"({outcome}): {detail}")
        delay = request.attempt_failed(index, attempt, outcome, wall_seconds,
                                       detail, worker)
        if delay is not None:
            self._queue.append((index, attempt + 1, monotonic() + delay))


class LocalBackend(SweepBackend):
    """Execute sweep points with this host's processes."""

    name = "local"

    def execute(self, request: BackendRequest) -> None:
        if request.jobs > 1:
            _check_spawnable_main()
            _check_picklable_extract(request.extract)
            _Supervisor(request).run()
        elif request.policy is None:
            self._run_serial(request)
        else:
            self._run_supervised_serial(request)

    def _run_serial(self, request: BackendRequest) -> None:
        """Plain ``jobs=1``: the original hot loop, nothing contained."""
        worker = multiprocessing.current_process().name
        for index in request.pending:
            request.emit(PointProgress(index=index, phase="start",
                                       worker=worker))
            measurements, wall_seconds, events, snapshot = _run_point(
                request.configs[index], request.extract, request.metered)
            request.complete(index, measurements, worker, wall_seconds,
                             events, snapshot=snapshot)

    def _run_supervised_serial(self, request: BackendRequest) -> None:
        """Supervised ``jobs=1``: in-process attempts with retry/backoff.

        Exceptions (injected or real) are contained per point, but
        there is no process boundary, so wall-clock timeouts cannot be
        enforced and a ``kill``/``hang`` fault is faithfully fatal —
        use ``jobs >= 2`` for full containment.
        """
        worker = multiprocessing.current_process().name
        for index in request.pending:
            attempt = 1
            while True:
                request.emit(PointProgress(index=index, phase="start",
                                           attempt=attempt, worker=worker))
                begin = perf_counter()
                payload = _attempt(
                    index, attempt, request.configs[index],
                    request.fault_plan.worker_faults(index, attempt),
                    request.extract, request.metered)
                if payload[0] == OUTCOME_OK:
                    _, measurements, wall_seconds, events, snapshot = payload
                    request.complete(index, measurements, worker,
                                     wall_seconds, events, attempts=attempt,
                                     snapshot=snapshot)
                    break
                delay = request.attempt_failed(
                    index, attempt, OUTCOME_ERROR, perf_counter() - begin,
                    payload[1], worker)
                if delay is None:
                    break
                sleep(delay)
                attempt += 1
