"""The one sweep coordinator: a retry queue, a lease table and a wait.

Every way this package runs a point in another process goes through
:func:`coordinate`.  It owns the ``(index, attempt, not_before)`` retry
queue, dispatch, the single blocking wait, per-point and silence
deadlines, settling an attempt (complete / requeue / terminal failure),
worker replacement, at-least-once dedupe and teardown — and talks to
workers only through a :class:`Transport`: *send a task, hand me a
waitable, give me the messages that arrived, stop*.

Two transports exist: the ``Pipe`` worker process of
:mod:`~repro.parallel.backends.local` (forked or spawned; pickled
tuples) and the ``repro worker serve`` agent of
:mod:`~repro.parallel.backends.worker` (line-JSON over a forked
agent's pipes or a spawned one's stdio).
What distinguishes them is data, not code here — a :class:`Crew` of
values: a pipe worker is ready at birth, never sends a keep-alive and
may stay silent forever (``ttl = inf``); an agent becomes ready on
``hello`` and must heartbeat inside the lease TTL.  ``jobs == 1`` is
the same loop with zero worker slots: every attempt runs in this
process, through the path that also catches a host that can no longer
spawn.

The busy-table is a :class:`~repro.parallel.leases.LeaseTable` on both
transports, so ``worker-kill`` / ``lease-expire`` faults, reclamation
and content-addressed dedupe behave the same wherever a point runs.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import connection
from time import monotonic, perf_counter
from typing import Callable, ContextManager, Sequence

from repro.errors import BackendUnavailable, ReproError
from repro.parallel.backends.base import BackendRequest
from repro.parallel.leases import Lease, LeaseTable
from repro.resilience.faults import apply_worker_faults
from repro.resilience.report import (
    OUTCOME_CRASH,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
)
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import run as run_scenario

__all__ = ["Crew", "Transport", "coordinate", "stop_all"]


def _attempt(index: int, attempt: int, config: ScenarioConfig, faults,
             extract,
             alive: Callable[[], ContextManager] = nullcontext) -> tuple:
    """One contained attempt, in whichever process it runs.

    Applies any scheduled injected faults first (so a ``kill`` dies
    before simulating, like a real early OOM, and a ``hang`` goes quiet
    before ``alive`` — an agent's heartbeat — starts), then runs and
    extracts.  Returns ``("ok", (measurements, wall_seconds, events),
    None)`` or ``("error", detail, exception)``; a
    worker ships the first two items, an in-process caller keeps the
    exception to chain it.
    """
    try:
        apply_worker_faults(faults, index, attempt)
        with alive():
            begin = perf_counter()
            result = run_scenario(config)
            measurements = extract(result)
            wall_seconds = perf_counter() - begin
        return OUTCOME_OK, (measurements, wall_seconds,
                            result.events_processed), None
    except Exception as exc:
        return OUTCOME_ERROR, f"{type(exc).__name__}: {exc}", exc


class Transport:
    """One worker, as the coordinator sees it.

    ``messages()`` returns ``(kind, lease_id, body)`` tuples: ``("ok",
    id, (measurements, wall_seconds, events))``, ``("error",
    id, detail)``, ``("alive", id, None)`` for a keep-alive, and
    ``("dead", "", why)`` once the worker is gone — by then the
    transport has killed and reaped it.  Handshakes stay inside the
    transport and surface as :attr:`ready`.
    """

    name = ""
    """Who ran the point, for progress events and manifests."""
    ready = True
    """May be sent a task.  A worker that needs a handshake starts False."""
    waitable: object = None
    """What :func:`multiprocessing.connection.wait` blocks on."""
    lease: str | None = None
    """The lease last sent and not yet answered (coordinator-owned)."""
    born = 0.0
    """Monotonic instant the coordinator took it on (coordinator-owned)."""

    def send(self, lease_id: str, task: tuple) -> None:
        """Ship ``(index, attempt, config, faults)``; raises ``OSError`` /
        ``ValueError`` when the worker is already gone."""
        raise NotImplementedError

    def messages(self) -> list[tuple]:
        """Everything that arrived; called when ``waitable`` is readable."""
        raise NotImplementedError

    def dismiss(self) -> None:
        """Ask the worker to leave; never blocks, never raises."""
        raise NotImplementedError

    def reap(self, force: bool = False) -> None:
        """Wait for the worker to exit, escalating to SIGKILL, and close
        its streams.  ``force`` skips the polite wait.  Idempotent."""
        raise NotImplementedError


@dataclass
class Crew:
    """How a backend staffs one sweep — the values transports differ by."""

    spawn: Callable[[], Transport | None]
    """Start one more worker; ``None`` when no more can be had."""
    slots: int
    """Workers wanted at most; ``0`` runs every attempt in-process."""
    ttl: float = math.inf
    """Seconds a lease survives without a keep-alive."""
    hello_timeout: float = math.inf
    """Seconds a worker that is not ready at birth gets to become so."""
    unavailable: str = ""
    """Why :class:`~repro.errors.BackendUnavailable` is raised when no
    worker is left; empty means such points run in-process instead."""


def stop_all(workers: Sequence[Transport]) -> None:
    """Stop workers: all are told before any is waited for, so their
    interpreters finalise side by side.  One still holding a lease is
    computing something nobody wants and cannot listen: it is killed."""
    for worker in workers:
        worker.dismiss()
    for worker in workers:
        worker.reap(force=worker.lease is not None)


def coordinate(request: BackendRequest, crew: Crew) -> None:
    """Drive every pending point to completion or terminal failure."""
    _Coordinator(request, crew).run()


class _Coordinator:
    """One sweep's supervision state (workers, leases, queue, dedupe)."""

    def __init__(self, request: BackendRequest, crew: Crew) -> None:
        self.request = request
        self.crew = crew
        self.slots = crew.slots
        self.timeout = request.policy.timeout if request.policy else None
        self.workers: list[Transport] = []
        self.leases = LeaseTable(ttl=crew.ttl)
        #: Every lease of the sweep by id, kept past reclamation so a
        #: stale arrival can still be paired with its point.
        self.granted: dict[str, Lease] = {}
        #: (index, attempt, not_before) — runnable once monotonic() passes.
        self.queue: deque[tuple[int, int, float]] = deque(
            (index, 1, 0.0) for index in request.pending)
        self.accepted: dict[int, dict] = {}
        self.failed: set[int] = set()
        self.expire_fired: dict[int, int] = {}

    def run(self) -> None:
        total = len(self.request.pending)
        try:
            while True:
                now = monotonic()
                self._enforce(now)
                self._staff(now)
                self._dispatch(now)
                if len(self.accepted) + len(self.failed) >= total:
                    return
                self._wait()
        finally:
            # Any exit — KeyboardInterrupt included — must not orphan
            # workers, idle or busy.
            self.request.ledger.reclaimed(self.leases.reclaimed)
            stop_all(self.workers)

    # ------------------------------------------------------------------
    # Staffing and dispatch
    # ------------------------------------------------------------------
    def _wanted(self) -> int:
        """Workers worth having: never more than the outstanding attempts."""
        return min(self.slots, len(self.leases) + len(self.queue))

    def _staff(self, now: float) -> None:
        while len(self.workers) < self._wanted():
            worker = self.crew.spawn()
            if worker is None:
                # Nothing more to be had: make do with who is here.
                self.slots = len(self.workers)
                break
            worker.born = now
            self.workers.append(worker)
        if not self.slots and self.crew.unavailable:
            raise BackendUnavailable(self.crew.unavailable)

    def _dispatch(self, now: float) -> None:
        request = self.request
        idle = [worker for worker in self.workers
                if worker.ready and worker.lease is None]
        for task in [task for task in self.queue if task[2] <= now]:
            index, attempt, _ = task
            if index in self.accepted or index in self.failed:
                # The point finished (a stale at-least-once result) while
                # a requeued copy waited; never run work that is over.
                self.queue.remove(task)
                continue
            if self.slots and not idle:
                return
            self.queue.remove(task)
            job = (index, attempt, request.configs[index],
                   request.fault_plan.agent_faults(index, attempt),
                   request.extracts[index])
            if not self.slots:
                self._run_here(job)
                continue
            worker = idle.pop(0)
            lease = self.leases.grant(index, attempt, worker.name, now,
                                      point_budget=self.timeout)
            try:
                worker.send(lease.lease_id, job)
            except (OSError, ValueError):
                # Died while idle: not this point's failure.
                self.leases.release(lease.lease_id)
                self.queue.appendleft(task)
                self._lost(worker, OUTCOME_CRASH, "")
                continue
            self.granted[lease.lease_id] = lease
            worker.lease = lease.lease_id
            request.ledger.started(index, attempt, worker.name)
            fired = self.expire_fired.get(index, 0)
            if request.fault_plan.lease_expires(index, fired + 1):
                # Injected partition: reclaim and requeue at once (waiting
                # for the deadline sweep would race a fast simulation's
                # result).  The worker keeps working, oblivious; whichever
                # copy reports second must dedupe by content.
                self.expire_fired[index] = fired + 1
                self.leases.reclaim(lease.lease_id)
                self.queue.append((index, attempt, now))

    def _run_here(self, job: tuple) -> None:
        """Run one attempt in this process (no worker slots)."""
        request, (index, attempt) = self.request, job[:2]
        name = multiprocessing.current_process().name
        request.ledger.started(index, attempt, name)
        begin = monotonic()
        outcome, body, cause = _attempt(*job)
        self._settle(index, attempt, name, outcome, body,
                     monotonic() - begin, cause)

    # ------------------------------------------------------------------
    # The wait
    # ------------------------------------------------------------------
    def _wait(self) -> None:
        """Block until a worker has something to say or a deadline —
        a lease's, a handshake's, a backoff's — comes due."""
        horizons = [min(lease.deadline, lease.point_deadline)
                    for lease in self.leases.active.values()]
        horizons += [worker.born + self.crew.hello_timeout
                     for worker in self.workers if not worker.ready]
        if self.queue and (
                not self.slots or len(self.workers) < self._wanted()
                or any(worker.ready and worker.lease is None
                       for worker in self.workers)):
            # A retry matters only once somebody could take it.
            horizons.append(min(task[2] for task in self.queue))
        horizon = min(horizons, default=math.inf)
        by_waitable = {worker.waitable: worker for worker in self.workers}
        for waitable in connection.wait(
                list(by_waitable),
                None if horizon == math.inf
                else max(0.0, horizon - monotonic())):
            worker = by_waitable[waitable]
            for kind, lease_id, body in worker.messages():
                if kind == "alive":
                    self.leases.heartbeat(lease_id, monotonic())
                elif kind == "dead":
                    self._lost(worker, OUTCOME_CRASH,
                               f"worker died ({body}) before reporting a "
                               "result")
                else:
                    self._answered(worker, kind, lease_id, body)

    def _enforce(self, now: float) -> None:
        crew = self.crew
        for worker in [worker for worker in self.workers if not worker.ready
                       and worker.born + crew.hello_timeout <= now]:
            self._lost(worker, OUTCOME_CRASH, "")
            warnings.warn(
                f"worker {worker.name} never said hello within "
                f"{crew.hello_timeout}s; replacing it",
                RuntimeWarning, stacklevel=2)
        # A worker may keep-alive forever on a stuck simulation, or be
        # partitioned away; only killing it frees the slot.
        holders = {worker.lease: worker for worker in self.workers}
        for lease in self.leases.overdue(now):
            self._lost(holders[lease.lease_id], OUTCOME_TIMEOUT,
                       f"exceeded the per-point timeout of {self.timeout}s")
        for lease in self.leases.expired(now):
            self._lost(holders[lease.lease_id], OUTCOME_CRASH,
                       f"lease {lease.lease_id} expired without a "
                       f"keep-alive (ttl {crew.ttl}s)")

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def _lost(self, worker: Transport, outcome: str, detail: str) -> None:
        """Kill, reap and forget a worker; the attempt it held fails."""
        self.workers.remove(worker)
        worker.reap(force=True)
        lease = self.leases.reclaim(worker.lease) if worker.lease else None
        if lease is not None:
            self._settle(lease.index, lease.attempt, worker.name, outcome,
                         detail, monotonic() - lease.granted_at)

    def _answered(self, worker: Transport, outcome: str, lease_id: str,
                  body: object) -> None:
        lease = self.granted.get(lease_id)
        if worker.lease == lease_id:
            worker.lease = None
        if lease is None:
            warnings.warn(
                f"worker {worker.name} reported {outcome} for an unknown "
                f"lease {lease_id!r}; dropping it"
                + (f": {body}" if outcome != OUTCOME_OK else ""),
                RuntimeWarning, stacklevel=2)
        elif (self.leases.release(lease_id) is not None
              or outcome == OUTCOME_OK):
            # A reclaimed lease's failure is stale — the point has moved
            # on; its result still counts: the first completion wins and
            # later ones dedupe.
            self._settle(lease.index, lease.attempt, worker.name, outcome,
                         body, monotonic() - lease.granted_at)

    def _settle(self, index: int, attempt: int, worker: str, outcome: str,
                body, wall_seconds: float,
                cause: BaseException | None = None) -> None:
        """Account one finished attempt: complete it, dedupe it, requeue
        it, fail it for good or — unsupervised — fail the sweep."""
        ledger = self.request.ledger
        settled = index in self.accepted or index in self.failed
        if outcome == OUTCOME_OK:
            measurements, simulate_seconds, events = body
            if not settled:
                self.accepted[index] = measurements
                ledger.settle(index, measurements, "live", worker,
                              wall_seconds=simulate_seconds, events=events,
                              attempts=attempt)
            # At-least-once aftermath: a reclaimed lease's worker finished
            # anyway.  Equal payloads dedupe by content; unequal payloads
            # mean nondeterminism or corruption — quarantine both.
            elif (index in self.failed
                  or measurements == self.accepted[index]):
                ledger.duplicate(index)
            else:
                ledger.conflict(index, self.accepted[index], measurements)
        elif settled:
            return
        elif self.request.policy is None:
            raise ReproError(
                f"sweep point {index} failed on worker {worker} "
                f"({outcome}): {body}") from cause
        else:
            delay = ledger.attempt_failed(index, attempt, outcome,
                                          wall_seconds, body, worker)
            if delay is None:
                self.failed.add(index)
            else:
                self.queue.append((index, attempt + 1, monotonic() + delay))
