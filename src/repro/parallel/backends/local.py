"""The local execution backend: this host's processes, no network.

Two regimes share the backend, selected by ``request.policy``:

* The **plain** paths (``policy is None``) are the original hot paths —
  a serial loop, or ``Pool.imap_unordered`` — with no supervision
  overhead.  A worker crash or unhandled exception fails the whole
  sweep.
* The **supervised** paths run each point in its own short-lived
  process multiplexed over a bounded worker budget, enforce per-point
  wall-clock timeouts, contain worker crashes, and retry failed points
  with deterministic backoff through ``request.attempt_failed``.

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
from typing import Sequence

from repro.errors import ConfigurationError
from repro.parallel.backends.base import BackendRequest, SweepBackend
from repro.parallel.progress import PointProgress
from repro.resilience.faults import FaultPlan, apply_worker_faults
from repro.resilience.policy import ResilienceConfig
from repro.resilience.report import (
    OUTCOME_CRASH,
    OUTCOME_ERROR,
    OUTCOME_TIMEOUT,
)
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import run as run_scenario

__all__ = ["LocalBackend"]


def _check_spawnable_main() -> None:
    """Refuse pool creation when spawn cannot re-import ``__main__``.

    A ``__main__`` fed from stdin (``python - <<EOF``) reports a
    ``__file__`` of ``<stdin>`` that spawn children try — and fail — to
    re-run, and the pool replaces the crashing workers forever.  Raising
    here turns an infinite hang into an actionable error.
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
    """The process-pool analogue of the wire protocol's extract check."""
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


def _execute_point(task: tuple) -> tuple[int, dict, str, float, int, dict | None]:
    """Worker body for the plain pool path: one task in, one result row out.

    Module-level so it pickles by reference under the spawn start method;
    the row adds the task index and the worker's process name.
    """
    index, config, extract, metered = task
    measurements, wall_seconds, events, snapshot = _run_point(
        config, extract, metered)
    return (index, measurements, multiprocessing.current_process().name,
            wall_seconds, events, snapshot)


def _send_quietly(conn, payload) -> bool:
    """Send on a pipe that the supervisor may have already abandoned.

    A worker whose parent timed it out (or died) has nobody listening;
    its result is discarded either way, so a broken pipe here is not an
    error worth a traceback in the child.
    """
    try:
        conn.send(payload)
        return True
    except (OSError, ValueError):
        return False


def _supervised_point(conn, index: int, attempt: int, config: ScenarioConfig,
                      extract, faults, metered: bool = False) -> None:
    """Worker body for the supervised path: one process per attempt.

    Applies any scheduled injected faults first (so a ``kill`` dies
    before simulating, like a real early OOM), then runs and extracts.
    The outcome travels back as a tagged tuple — ``("ok", measurements,
    wall_seconds, events, metrics_snapshot)`` or ``("error", detail)``
    — and a process that dies without sending anything is diagnosed as
    a crash by the parent when the pipe EOFs.
    """
    try:
        apply_worker_faults(faults, index, attempt)
        payload = ("ok", *_run_point(config, extract, metered))
    except Exception as exc:
        payload = ("error", f"{type(exc).__name__}: {exc}")
    _send_quietly(conn, payload)
    conn.close()


def _stop_process(process) -> None:
    """Terminate a worker, escalating to SIGKILL if it will not die."""
    process.terminate()
    process.join(5.0)
    if process.is_alive():  # pragma: no cover - needs a SIGTERM-immune child
        process.kill()
        process.join()


@dataclass
class _Attempt:
    """Bookkeeping for one in-flight supervised worker."""

    index: int
    attempt: int
    process: multiprocessing.process.BaseProcess
    deadline: float
    """Monotonic instant the attempt times out (``math.inf`` = never)."""
    begin: float


class _Supervisor:
    """Process-per-point executor with timeouts, crash containment and
    retry scheduling (the supervised ``jobs > 1`` path).

    Unlike ``Pool.imap_unordered`` — which loses the task and blocks
    forever when a worker is SIGKILLed mid-point — every attempt here
    owns a dedicated process and pipe, multiplexed through
    :func:`multiprocessing.connection.wait`.  A dead worker surfaces as
    pipe EOF, a hung worker as a missed monotonic deadline; both fail
    only their own attempt.  Failed attempts re-enter the queue with a
    ``not_before`` timestamp from the policy's deterministic backoff.

    If the host cannot spawn processes at all (fd/PID exhaustion —
    ``Process.start()`` raising ``OSError``), the attempt degrades to
    in-process execution with a ``RuntimeWarning`` instead of killing
    the sweep.
    """

    def __init__(self, *, context, jobs: int, policy: ResilienceConfig,
                 fault_plan: FaultPlan, configs: Sequence[ScenarioConfig],
                 extract, pending: Sequence[int], complete, attempt_failed,
                 emit, metered: bool = False) -> None:
        self._context = context
        self._jobs = jobs
        self._policy = policy
        self._fault_plan = fault_plan
        self._configs = configs
        self._extract = extract
        self._metered = metered
        #: (index, attempt, not_before) — runnable once monotonic() passes.
        self._queue: list[tuple[int, int, float]] = [
            (index, 1, 0.0) for index in pending]
        self._active: dict = {}
        self._complete = complete
        self._attempt_failed = attempt_failed
        self._emit = emit

    def run(self) -> None:
        """Drive every queued point to completion or terminal failure."""
        try:
            while self._queue or self._active:
                self._launch_ready()
                self._wait_and_collect()
        finally:
            # Normal exit leaves nothing active; any exception —
            # KeyboardInterrupt included — must not orphan workers.
            self._shutdown()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _launch_ready(self) -> None:
        now = monotonic()
        for task in [t for t in self._queue if t[2] <= now]:
            if len(self._active) >= self._jobs:
                return
            self._queue.remove(task)
            index, attempt, _ = task
            if not self._spawn(index, attempt):
                self._inline_attempt(index, attempt)

    def _spawn(self, index: int, attempt: int) -> bool:
        recv_end, send_end = self._context.Pipe(duplex=False)
        faults = self._fault_plan.worker_faults(index, attempt)
        process = self._context.Process(
            target=_supervised_point,
            args=(send_end, index, attempt, self._configs[index],
                  self._extract, faults, self._metered),
            name=f"repro-point{index}-a{attempt}",
            daemon=True,
        )
        try:
            process.start()
        except OSError as exc:
            recv_end.close()
            send_end.close()
            warnings.warn(
                f"could not spawn a sweep worker ({exc}); running this "
                "attempt in-process instead (no timeout enforcement)",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        send_end.close()
        if self._policy.timeout is not None:
            deadline = monotonic() + self._policy.timeout
        else:
            deadline = math.inf
        self._active[recv_end] = _Attempt(
            index=index, attempt=attempt, process=process,
            deadline=deadline, begin=perf_counter())
        self._emit(PointProgress(index=index, phase="start", attempt=attempt,
                                 worker=process.name))
        return True

    def _inline_attempt(self, index: int, attempt: int) -> None:
        worker = multiprocessing.current_process().name
        self._emit(PointProgress(index=index, phase="start", attempt=attempt,
                                 worker=worker))
        begin = perf_counter()
        try:
            apply_worker_faults(self._fault_plan.worker_faults(index, attempt),
                                index, attempt)
            measurements, wall_seconds, events, snapshot = _run_point(
                self._configs[index], self._extract, self._metered)
        except Exception as exc:
            self._attempt_over(index, attempt, OUTCOME_ERROR,
                               perf_counter() - begin,
                               f"{type(exc).__name__}: {exc}", worker)
            return
        self._complete(index, measurements, worker, wall_seconds, events,
                       attempts=attempt, snapshot=snapshot)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _wait_and_collect(self) -> None:
        if not self._active:
            # Everything runnable is backing off: sleep to the first retry.
            if self._queue:
                pause = min(task[2] for task in self._queue) - monotonic()
                if pause > 0:
                    sleep(pause)
            return
        ready = connection.wait(list(self._active), timeout=self._wait_budget())
        for conn in ready:
            self._collect(conn)
        self._expire_deadlines()

    def _wait_budget(self) -> float | None:
        """Seconds to block in ``connection.wait`` before bookkeeping.

        Bounded by the nearest attempt deadline and — when a worker slot
        is free — the nearest backoff expiry, so timeouts fire promptly
        and retries are not starved behind long-running points.
        """
        horizon = min(entry.deadline for entry in self._active.values())
        if self._queue and len(self._active) < self._jobs:
            horizon = min(horizon, min(task[2] for task in self._queue))
        if math.isinf(horizon):
            return None
        return max(0.0, horizon - monotonic())

    def _collect(self, conn) -> None:
        entry = self._active.pop(conn)
        wall_seconds = perf_counter() - entry.begin
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            payload = None
        conn.close()
        entry.process.join()
        if payload is not None and payload[0] == "ok":
            _, measurements, worker_wall, events, snapshot = payload
            self._complete(entry.index, measurements, entry.process.name,
                           worker_wall, events, attempts=entry.attempt,
                           snapshot=snapshot)
            return
        if payload is None:
            outcome = OUTCOME_CRASH
            detail = (f"worker died with exit code {entry.process.exitcode} "
                      "before reporting a result")
        else:
            outcome = OUTCOME_ERROR
            detail = str(payload[1])
        self._attempt_over(entry.index, entry.attempt, outcome, wall_seconds,
                           detail, entry.process.name)

    def _expire_deadlines(self) -> None:
        now = monotonic()
        expired = [conn for conn, entry in self._active.items()
                   if entry.deadline <= now]
        for conn in expired:
            entry = self._active.pop(conn)
            _stop_process(entry.process)
            conn.close()
            self._attempt_over(
                entry.index, entry.attempt, OUTCOME_TIMEOUT,
                perf_counter() - entry.begin,
                f"exceeded the per-point timeout of {self._policy.timeout}s",
                entry.process.name)

    def _attempt_over(self, index: int, attempt: int, outcome: str,
                      wall_seconds: float, detail: str, worker: str) -> None:
        delay = self._attempt_failed(index, attempt, outcome, wall_seconds,
                                     detail, worker)
        if delay is not None:
            self._queue.append((index, attempt + 1, monotonic() + delay))

    def _shutdown(self) -> None:
        for conn, entry in list(self._active.items()):
            _stop_process(entry.process)
            conn.close()
        self._active.clear()


class LocalBackend(SweepBackend):
    """Execute sweep points with this host's processes."""

    name = "local"

    def execute(self, request: BackendRequest) -> None:
        if request.policy is None:
            self._run_plain(request)
        else:
            self._run_supervised(request)

    # ------------------------------------------------------------------
    # Plain (unsupervised) execution — the original hot paths
    # ------------------------------------------------------------------
    def _run_plain(self, request: BackendRequest) -> None:
        pending, configs = request.pending, request.configs
        extract, jobs, metered = request.extract, request.jobs, request.metered
        complete, emit = request.complete, request.emit
        if jobs <= 1:
            worker = multiprocessing.current_process().name
            for index in pending:
                emit(PointProgress(index=index, phase="start", worker=worker))
                measurements, wall_seconds, events, snapshot = _run_point(
                    configs[index], extract, metered)
                complete(index, measurements, worker, wall_seconds, events,
                         snapshot=snapshot)
            return
        _check_spawnable_main()
        _check_picklable_extract(extract)
        tasks = [(index, configs[index], extract, metered)
                 for index in pending]
        chunksize = request.chunksize or max(1, len(tasks) // (jobs * 4))
        context = multiprocessing.get_context(request.start_method)
        pool = context.Pool(processes=jobs)
        try:
            for index, measurements, worker, wall_seconds, events, snapshot in (
                    pool.imap_unordered(_execute_point, tasks,
                                        chunksize=chunksize)):
                complete(index, measurements, worker, wall_seconds, events,
                         snapshot=snapshot)
        except BaseException:
            # KeyboardInterrupt (and anything else) mid-iteration: kill
            # the workers *now* and reap them before propagating, instead
            # of leaking a pool that blocks interpreter exit.
            pool.terminate()
            pool.join()
            raise
        else:
            pool.close()
            pool.join()

    # ------------------------------------------------------------------
    # Supervised execution
    # ------------------------------------------------------------------
    def _run_supervised(self, request: BackendRequest) -> None:
        if request.jobs <= 1:
            self._run_supervised_serial(request)
            return
        _check_spawnable_main()
        _check_picklable_extract(request.extract)
        supervisor = _Supervisor(
            context=multiprocessing.get_context(request.start_method),
            jobs=request.jobs, policy=request.policy,
            fault_plan=request.fault_plan, configs=request.configs,
            extract=request.extract, pending=request.pending,
            complete=request.complete, attempt_failed=request.attempt_failed,
            emit=request.emit, metered=request.metered)
        supervisor.run()

    def _run_supervised_serial(self, request: BackendRequest) -> None:
        """Supervised ``jobs=1``: in-process attempts with retry/backoff.

        Exceptions (injected or real) are contained per point, but
        there is no process boundary, so wall-clock timeouts cannot be
        enforced and a ``kill``/``hang`` fault is faithfully fatal —
        use ``jobs >= 2`` for full containment.
        """
        configs, extract = request.configs, request.extract
        fault_plan, metered = request.fault_plan, request.metered
        complete, attempt_failed = request.complete, request.attempt_failed
        emit = request.emit
        worker = multiprocessing.current_process().name
        for index in request.pending:
            attempt = 1
            while True:
                emit(PointProgress(index=index, phase="start",
                                   attempt=attempt, worker=worker))
                begin = perf_counter()
                try:
                    apply_worker_faults(
                        fault_plan.worker_faults(index, attempt),
                        index, attempt)
                    measurements, wall_seconds, events, snapshot = _run_point(
                        configs[index], extract, metered)
                except Exception as exc:
                    delay = attempt_failed(
                        index, attempt, OUTCOME_ERROR, perf_counter() - begin,
                        f"{type(exc).__name__}: {exc}", worker)
                    if delay is None:
                        break
                    sleep(delay)
                    attempt += 1
                    continue
                complete(index, measurements, worker, wall_seconds, events,
                         attempts=attempt, snapshot=snapshot)
                break
