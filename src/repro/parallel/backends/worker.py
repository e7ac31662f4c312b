"""The distributed execution backend: leases over a fleet of agents.

The coordinator here speaks the :mod:`repro.parallel.protocol`
worker-agent conversation with a fleet of long-lived ``repro worker
serve`` processes — spawned locally over stdio pipes by default, or
reached over TCP with ``connect=``.  Each pending sweep point becomes a
**lease** (:mod:`repro.parallel.leases`): granted to an idle agent,
kept alive by heartbeats, reclaimed and re-leased when its deadline
passes without one.  An agent crash, hang, or network partition costs
the sweep latency, never a point.

Reclamation makes execution at-least-once; safety comes from content
addressing.  A duplicate completion whose payload matches the accepted
one is counted and dropped (``report.duplicate_results``); a duplicate
that *disagrees* is handed to ``request.conflict`` — the runner
quarantines both copies, because a conflict means nondeterminism or
corruption and neither payload can be trusted.

When the whole fleet is gone and cannot be respawned the backend raises
:class:`~repro.errors.BackendUnavailable`; the runner then degrades the
remaining points to the local backend, so a distributed sweep's worst
case is a slow local sweep.
"""

from __future__ import annotations

import queue
import socket
import subprocess
import sys
import threading
import warnings
from time import monotonic
from typing import Sequence

from repro.errors import BackendUnavailable, WireError
from repro.parallel.backends.base import BackendRequest, SweepBackend
from repro.parallel.leases import LeaseTable
from repro.parallel.progress import PointProgress
from repro.parallel.protocol import (
    PROTOCOL_VERSION,
    extract_reference,
    read_message,
    write_message,
)
from repro.resilience.report import (
    OUTCOME_CRASH,
    OUTCOME_ERROR,
    OUTCOME_TIMEOUT,
)
from repro.scenarios.serialize import config_to_dict

__all__ = ["WorkerBackend", "default_agent_command"]

#: Heartbeat interval as a fraction of the lease TTL — several beats fit
#: inside one TTL, so a single dropped message never orphans a point.
_HEARTBEAT_FRACTION = 0.25
#: Seconds a freshly started agent gets to say ``hello``.
_DEFAULT_HELLO_TIMEOUT = 30.0


def default_agent_command() -> list[str]:
    """The argv that spawns a local worker agent over stdio."""
    return [sys.executable, "-u", "-m", "repro", "worker", "serve"]


class _AgentHandle:
    """Coordinator-side state for one fleet member."""

    def __init__(self, name: str, *, proc=None, sock=None,
                 reader=None, writer=None, hello_deadline: float = 0.0) -> None:
        self.name = name
        self.proc = proc
        self.sock = sock
        self.reader = reader
        self.writer = writer
        self.host = ""
        self.pid: int | None = None
        self.ready = False
        """True once the agent's ``hello`` arrived (and matched versions)."""
        self.alive = True
        self.busy_lease: str | None = None
        """The lease this agent is currently serving, if any."""
        self.hello_deadline = hello_deadline
        self.thread: threading.Thread | None = None

    @property
    def idle(self) -> bool:
        return self.alive and self.ready and self.busy_lease is None

    def identity(self) -> str:
        """Provenance string for manifests: who actually ran the point."""
        host = self.host or "localhost"
        return f"{self.name}@{host}" + (f":{self.pid}" if self.pid else "")


class _LeaseInfo:
    """Immutable grant-time facts, kept past reclamation for stale arrivals."""

    __slots__ = ("index", "attempt", "agent", "begin")

    def __init__(self, index: int, attempt: int, agent: str,
                 begin: float) -> None:
        self.index = index
        self.attempt = attempt
        self.agent = agent
        self.begin = begin


class WorkerBackend(SweepBackend):
    """Coordinate a sweep over long-lived worker agents.

    Parameters
    ----------
    command:
        Argv to spawn one agent over stdio (default: this interpreter
        running ``repro worker serve``).  The fleet inherits the
        coordinator's environment, so ``PYTHONPATH`` et al. carry over.
    workers:
        Fleet size when spawning (default: the request's job budget).
    connect:
        ``host:port`` endpoints of already-running agents
        (``repro worker serve --listen``); when given, nothing is
        spawned and a dead endpoint cannot be replaced.
    lease_ttl:
        Seconds a lease survives without a heartbeat.
    max_respawns:
        Replacement agents allowed before the fleet is considered
        unrecoverable (default ``2 * fleet size``).
    """

    name = "worker"

    def __init__(self, *, command: Sequence[str] | None = None,
                 workers: int | None = None,
                 connect: Sequence[str] = (),
                 lease_ttl: float = 15.0,
                 max_respawns: int | None = None,
                 hello_timeout: float = _DEFAULT_HELLO_TIMEOUT) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        self.command = list(command) if command else default_agent_command()
        self.workers = workers
        self.connect = tuple(connect)
        self.lease_ttl = float(lease_ttl)
        self.heartbeat = max(0.05, self.lease_ttl * _HEARTBEAT_FRACTION)
        self.max_respawns = max_respawns
        self.hello_timeout = float(hello_timeout)

    # ------------------------------------------------------------------
    # Fleet plumbing
    # ------------------------------------------------------------------
    def _pump(self, agent: _AgentHandle, inbox: queue.Queue) -> None:
        """Reader-thread body: decode agent messages into the inbox.

        ``None`` marks EOF; a wire error is surfaced as a synthetic
        message (the coordinator kills the agent — a peer that cannot
        frame lines cannot be trusted to pair results with leases).
        """
        try:
            while True:
                try:
                    message = read_message(agent.reader)
                except WireError as exc:
                    inbox.put((agent.name, {"t": "~damaged", "detail": str(exc)}))
                    return
                inbox.put((agent.name, message))
                if message is None:
                    return
        except (OSError, ValueError):
            inbox.put((agent.name, None))

    def _start_reader(self, agent: _AgentHandle, inbox: queue.Queue) -> None:
        agent.thread = threading.Thread(
            target=self._pump, args=(agent, inbox), daemon=True,
            name=f"pump-{agent.name}")
        agent.thread.start()

    def _spawn_agent(self, ordinal: int, inbox: queue.Queue,
                     now: float) -> _AgentHandle | None:
        name = f"agent{ordinal}"
        try:
            proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, encoding="utf-8", bufsize=1)
        except OSError as exc:
            warnings.warn(f"could not spawn worker agent ({exc})",
                          RuntimeWarning, stacklevel=3)
            return None
        agent = _AgentHandle(name, proc=proc, reader=proc.stdout,
                             writer=proc.stdin,
                             hello_deadline=now + self.hello_timeout)
        self._start_reader(agent, inbox)
        return agent

    def _connect_agent(self, ordinal: int, endpoint: str, inbox: queue.Queue,
                       now: float) -> _AgentHandle | None:
        host, _, port_text = endpoint.rpartition(":")
        try:
            sock = socket.create_connection((host or "localhost",
                                             int(port_text)), timeout=10.0)
        except (OSError, ValueError) as exc:
            warnings.warn(f"could not connect to worker agent {endpoint!r} "
                          f"({exc})", RuntimeWarning, stacklevel=3)
            return None
        agent = _AgentHandle(
            f"agent{ordinal}",
            sock=sock,
            reader=sock.makefile("r", encoding="utf-8", newline="\n"),
            writer=sock.makefile("w", encoding="utf-8", newline="\n"),
            hello_deadline=now + self.hello_timeout)
        self._start_reader(agent, inbox)
        return agent

    def _release(self, agent: _AgentHandle) -> None:
        """Close a stopped agent's transport.  Its pump thread reads one
        of the streams, so that is let return (EOF follows the reaped
        process or the shut-down socket) before anything is closed."""
        if agent.sock is not None:
            try:
                # close() alone is deferred while the makefile wrappers live.
                agent.sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # repro: noqa[RPR007] -- the peer already disconnected; nothing to shut down
                pass
        if agent.thread is not None:
            agent.thread.join(timeout=5.0)
            if agent.thread.is_alive():  # pragma: no cover - pipe held open by a grandchild
                return
        for stream in (agent.writer, agent.reader, agent.sock):
            if stream is not None:
                try:
                    stream.close()
                except (OSError, ValueError):  # repro: noqa[RPR007] -- closing a stream to a dead peer; nothing to recover
                    pass

    def _dismiss(self, agents: Sequence[_AgentHandle]) -> None:
        """Stop agents: polite shutdown, then force.  All are told before
        any is waited for, so their interpreters finalise side by side."""
        for agent in agents:
            if agent.writer is not None:
                try:
                    write_message(agent.writer, {"t": "shutdown"})
                except (OSError, ValueError):  # repro: noqa[RPR007] -- polite shutdown of a possibly-dead agent; failure falls through to kill
                    pass
                try:
                    agent.writer.close()
                except (OSError, ValueError):  # repro: noqa[RPR007] -- closing a stream to a dead peer; nothing to recover
                    pass
        for agent in agents:
            if agent.proc is not None:
                try:
                    agent.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - stuck agent
                    agent.proc.kill()
                    agent.proc.wait()
            self._release(agent)
            agent.alive = False

    def _kill(self, agent: _AgentHandle) -> None:
        """Stop one agent *now* (it is presumed hung or partitioned)."""
        agent.alive = False
        if agent.proc is not None:
            agent.proc.kill()
            agent.proc.wait()
        self._release(agent)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, request: BackendRequest) -> None:
        if request.policy is None or request.attempt_failed is None:
            raise BackendUnavailable(
                "the worker backend always runs supervised; the runner must "
                "provide a resilience policy")
        reference = extract_reference(request.extract)
        run = _SweepRun(self, request, reference)
        run.execute()


class _SweepRun:
    """One sweep's coordinator state (fleet, leases, queue, dedupe)."""

    def __init__(self, backend: WorkerBackend, request: BackendRequest,
                 reference: dict) -> None:
        self.backend = backend
        self.request = request
        self.reference = reference
        self.plan = request.fault_plan
        self.inbox: queue.Queue = queue.Queue()
        self.agents: dict[str, _AgentHandle] = {}
        self.leases = LeaseTable(ttl=backend.lease_ttl)
        self.lease_info: dict[str, _LeaseInfo] = {}
        #: (index, attempt, not_before) — runnable once monotonic() passes.
        self.queue: list[tuple[int, int, float]] = [
            (index, 1, 0.0) for index in request.pending]
        self.done: set[int] = set()
        self.failed: set[int] = set()
        self.accepted: dict[int, dict] = {}
        self.expire_fired: dict[int, int] = {}
        self.ordinal = 0
        self.respawns = 0
        fleet = (len(backend.connect) or backend.workers
                 or max(1, request.jobs))
        self.fleet = fleet
        self.max_respawns = (backend.max_respawns
                             if backend.max_respawns is not None
                             else 2 * fleet)

    # -- fleet -----------------------------------------------------------
    def _recruit(self, now: float) -> None:
        backend = self.backend
        if backend.connect:
            for endpoint in backend.connect:
                agent = backend._connect_agent(self.ordinal, endpoint,
                                               self.inbox, now)
                self.ordinal += 1
                if agent is not None:
                    self.agents[agent.name] = agent
            return
        for _ in range(self.fleet):
            self._add_agent(now)

    def _add_agent(self, now: float) -> bool:
        agent = self.backend._spawn_agent(self.ordinal, self.inbox, now)
        self.ordinal += 1
        if agent is None:
            return False
        self.agents[agent.name] = agent
        return True

    def _maybe_respawn(self, now: float) -> None:
        """Replace a dead agent, within the respawn budget.

        TCP endpoints are someone else's processes — they are not
        replaced, the fleet just shrinks.
        """
        if self.backend.connect:
            return
        if self.respawns >= self.max_respawns:
            return
        self.respawns += 1
        self._add_agent(now)

    def _alive(self) -> list[_AgentHandle]:
        return [agent for agent in self.agents.values() if agent.alive]

    # -- main loop -------------------------------------------------------
    def execute(self) -> None:
        total = len(self.request.pending)
        now = monotonic()
        self._recruit(now)
        if not self._alive():
            raise BackendUnavailable(
                "worker backend: no agent could be started "
                f"(command={self.backend.command!r}, "
                f"connect={self.backend.connect!r})")
        try:
            while len(self.done) + len(self.failed) < total:
                now = monotonic()
                self._enforce_deadlines(now)
                if not self._alive():
                    raise BackendUnavailable(
                        "worker backend: every agent died and the respawn "
                        f"budget ({self.max_respawns}) is spent")
                self._assign(now)
                try:
                    agent_name, message = self.inbox.get(
                        timeout=self._wait_budget(now))
                except queue.Empty:
                    continue
                self._handle(agent_name, message)
        finally:
            self.backend._dismiss(self._alive())

    def _wait_budget(self, now: float) -> float:
        horizons = [lease.deadline for lease in self.leases.active.values()]
        horizons += [lease.point_deadline
                     for lease in self.leases.active.values()]
        horizons += [agent.hello_deadline for agent in self._alive()
                     if not agent.ready]
        horizons += [task[2] for task in self.queue]
        horizon = min((h for h in horizons if h != float("inf")),
                      default=now + 0.5)
        return min(0.5, max(0.01, horizon - now))

    # -- dispatch --------------------------------------------------------
    def _assign(self, now: float) -> None:
        request = self.request
        # A point can finish (via a stale at-least-once result) while a
        # requeued copy still waits; never lease work that is over.
        self.queue = [task for task in self.queue
                      if task[0] not in self.done
                      and task[0] not in self.failed]
        ready_tasks = sorted(task for task in self.queue if task[2] <= now)
        for agent in self.agents.values():
            if not ready_tasks:
                return
            if not agent.idle:
                continue
            task = ready_tasks.pop(0)
            self.queue.remove(task)
            index, attempt, _ = task
            lease = self.leases.grant(
                index, attempt, agent.name, now,
                point_budget=request.policy.timeout)
            self.lease_info[lease.lease_id] = _LeaseInfo(
                index, attempt, agent.name, now)
            faults = [clause.to_dict() for clause
                      in self.plan.agent_faults(index, attempt)]
            message = {
                "t": "lease",
                "lease_id": lease.lease_id,
                "index": index,
                "attempt": attempt,
                "config": config_to_dict(request.configs[index]),
                "extract": self.reference,
                "faults": faults,
                "metered": request.metered,
                "heartbeat": self.backend.heartbeat,
            }
            try:
                write_message(agent.writer, message)
            except (OSError, ValueError):
                # The agent died between hello and this grant; undo and
                # let the EOF handler (already in the inbox) clean up.
                self.leases.release(lease.lease_id)
                self.queue.append(task)
                continue
            agent.busy_lease = lease.lease_id
            request.emit(PointProgress(index=index, phase="start",
                                       attempt=attempt,
                                       worker=agent.identity()))
            fired = self.expire_fired.get(index, 0)
            if self.plan and self.plan.lease_expires(index, fired + 1):
                # Injected partition: reclaim and re-lease immediately
                # (waiting for the deadline sweep would race a fast
                # simulation's result).  The agent keeps working,
                # oblivious; whichever copy reports second must dedupe
                # by content — the at-least-once case this drill exists
                # to exercise.
                self.leases.force_expire(index)
                self.leases.reclaim(lease.lease_id)
                if request.report is not None:
                    request.report.lease_reclaims += 1
                self.queue.append((index, attempt, now))
                self.expire_fired[index] = fired + 1

    # -- deadlines -------------------------------------------------------
    def _enforce_deadlines(self, now: float) -> None:
        report = self.request.report
        for agent in self._alive():
            if not agent.ready and agent.hello_deadline <= now:
                self.backend._kill(agent)
                warnings.warn(
                    f"worker agent {agent.name} never said hello within "
                    f"{self.backend.hello_timeout}s; replacing it",
                    RuntimeWarning, stacklevel=2)
                self._maybe_respawn(now)
        for lease in self.leases.overdue(now):
            info = self.lease_info[lease.lease_id]
            self.leases.reclaim(lease.lease_id)
            agent = self.agents.get(lease.worker)
            if agent is not None and agent.alive:
                # The agent may heartbeat forever on a stuck simulation;
                # only killing it frees the fleet slot.
                self.backend._kill(agent)
                agent.busy_lease = None
                self._maybe_respawn(now)
            self._attempt_over(
                info, OUTCOME_TIMEOUT, now - info.begin,
                "exceeded the per-point timeout of "
                f"{self.request.policy.timeout}s (lease {lease.lease_id})")
        for lease in self.leases.expired(now):
            info = self.lease_info[lease.lease_id]
            self.leases.reclaim(lease.lease_id)
            if report is not None:
                report.lease_reclaims += 1
            if lease.forced:
                # Injected partition: the worker is healthy and must not
                # be killed — its eventual duplicate completion is the
                # at-least-once case this drill exists to exercise.
                if info.index not in self.done and info.index not in self.failed:
                    self.queue.append((info.index, info.attempt, now))
                continue
            agent = self.agents.get(lease.worker)
            if agent is not None and agent.alive:
                self.backend._kill(agent)
                agent.busy_lease = None
                self._maybe_respawn(now)
            self._attempt_over(
                info, OUTCOME_CRASH, now - info.begin,
                f"lease {lease.lease_id} expired without a heartbeat "
                f"(ttl {self.backend.lease_ttl}s)")

    def _attempt_over(self, info: _LeaseInfo, outcome: str,
                      wall_seconds: float, detail: str) -> None:
        if info.index in self.done or info.index in self.failed:
            return
        delay = self.request.attempt_failed(
            info.index, info.attempt, outcome, wall_seconds, detail,
            info.agent)
        if delay is None:
            self.failed.add(info.index)
        else:
            self.queue.append((info.index, info.attempt + 1,
                               monotonic() + delay))

    # -- message handling ------------------------------------------------
    def _handle(self, agent_name: str, message: dict | None) -> None:
        agent = self.agents.get(agent_name)
        if agent is None:  # pragma: no cover - defensive
            return
        if message is None:
            self._on_death(agent, "EOF on the agent transport")
            return
        kind = message.get("t")
        if kind == "~damaged":
            self.backend._kill(agent)
            self._on_death(
                agent, f"protocol damage: {message.get('detail', '')}")
        elif kind == "hello":
            if message.get("proto") != PROTOCOL_VERSION:
                self.backend._kill(agent)
                self._on_death(
                    agent,
                    f"protocol version mismatch (agent {message.get('proto')}"
                    f" != coordinator {PROTOCOL_VERSION})")
                return
            agent.ready = True
            agent.host = str(message.get("host", ""))
            pid = message.get("pid")
            agent.pid = pid if isinstance(pid, int) else None
        elif kind == "heartbeat":
            lease_id = message.get("lease_id")
            if isinstance(lease_id, str):
                self.leases.heartbeat(lease_id, monotonic())
        elif kind == "result":
            self._on_result(agent, message)
        elif kind == "error":
            self._on_error(agent, message)
        # Unknown message kinds are ignored: a newer agent may emit
        # vocabulary this coordinator predates.

    def _on_result(self, agent: _AgentHandle, message: dict) -> None:
        request, report = self.request, self.request.report
        lease_id = message.get("lease_id")
        info = self.lease_info.get(lease_id) if isinstance(lease_id, str) else None
        if agent.busy_lease == lease_id:
            agent.busy_lease = None
        if info is None:
            warnings.warn(f"worker agent {agent.name} reported a result for "
                          f"an unknown lease {lease_id!r}; dropping it",
                          RuntimeWarning, stacklevel=2)
            return
        self.leases.release(lease_id)
        measurements = message.get("measurements")
        if info.index in self.done:
            # At-least-once aftermath: a reclaimed lease's worker finished
            # anyway.  Equal payloads dedupe by content; unequal payloads
            # mean nondeterminism or corruption — quarantine both.
            if measurements == self.accepted[info.index]:
                if report is not None:
                    report.duplicate_results += 1
            elif request.conflict is not None:
                request.conflict(info.index, self.accepted[info.index],
                                 measurements)
            return
        if info.index in self.failed:
            if report is not None:
                report.duplicate_results += 1
            return
        self.done.add(info.index)
        self.accepted[info.index] = measurements
        request.complete(
            info.index, measurements, agent.identity(),
            float(message.get("wall_seconds", 0.0)),
            int(message.get("events_processed", 0)),
            attempts=info.attempt,
            snapshot=message.get("snapshot"))

    def _on_error(self, agent: _AgentHandle, message: dict) -> None:
        lease_id = message.get("lease_id")
        info = self.lease_info.get(lease_id) if isinstance(lease_id, str) else None
        if agent.busy_lease == lease_id:
            agent.busy_lease = None
        if info is None:
            warnings.warn(
                f"worker agent {agent.name} reported: "
                f"{message.get('detail', 'unknown error')}",
                RuntimeWarning, stacklevel=2)
            return
        lease = self.leases.release(lease_id)
        if lease is None or info.index in self.done:
            return  # stale: the point was reclaimed and has moved on
        self._attempt_over(info, OUTCOME_ERROR, monotonic() - info.begin,
                           str(message.get("detail", "worker error")))

    def _on_death(self, agent: _AgentHandle, detail: str) -> None:
        if agent.alive:
            agent.alive = False
            if agent.proc is not None:
                agent.proc.wait()
            self.backend._release(agent)
        report = self.request.report
        now = monotonic()
        orphans = self.leases.by_worker(agent.name)
        for lease in orphans:
            self.leases.reclaim(lease.lease_id)
            if report is not None:
                report.lease_reclaims += 1
            info = self.lease_info[lease.lease_id]
            exitcode = agent.proc.returncode if agent.proc is not None else None
            self._attempt_over(
                info, OUTCOME_CRASH, now - info.begin,
                f"worker agent died ({detail}"
                + (f", exit code {exitcode}" if exitcode is not None else "")
                + ") before reporting a result")
        agent.busy_lease = None
        self._maybe_respawn(now)
