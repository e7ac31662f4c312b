"""The distributed execution backend: leases over a fleet of agents.

``WorkerBackend.execute`` is pre-flight checks, a crew of agents and
:func:`~repro.parallel.backends.coordinator.coordinate` — the same
supervision loop the local backend runs.  An agent is a long-lived
``repro worker serve`` process speaking the
:mod:`repro.parallel.protocol` conversation: spawned locally over stdio
pipes by default, or reached over TCP with ``connect=``.  Each pending
sweep point becomes a **lease** (:mod:`repro.parallel.leases`): granted
to an idle agent, kept alive by heartbeats, reclaimed and re-leased
when its deadline passes without one.  An agent crash, hang, or network
partition costs the sweep latency, never a point.

What this module adds to the loop is the transport: :class:`_Agent`
turns the agent's byte stream into the coordinator's messages (a
bounded line splitter over the raw pipe or socket fd, so the
coordinator blocks in one ``connection.wait`` over the whole fleet),
keeps ``hello`` — and its version check — to itself and surfaces it as
*ready*, and turns ``heartbeat`` into a keep-alive.

When the whole fleet is gone and cannot be respawned the coordinator
raises :class:`~repro.errors.BackendUnavailable`; the runner then
degrades the remaining points to the local backend, so a distributed
sweep's worst case is a slow local sweep.
"""

from __future__ import annotations

import itertools
import os
import socket
import subprocess
import sys
import warnings
from typing import Sequence

from repro.errors import BackendUnavailable, ConfigurationError, WireError
from repro.parallel.backends.base import BackendRequest, SweepBackend
from repro.parallel.backends.coordinator import Crew, Transport, coordinate
from repro.parallel.cachestore import parse_endpoint
from repro.parallel.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    decode_message,
    encode_message,
    extract_reference,
)
from repro.resilience.report import OUTCOME_ERROR, OUTCOME_OK
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


class _Agent(Transport):
    """One fleet member: a spawned ``proc`` (stdio) or a connected ``sock``,
    its messages arriving on the raw descriptor ``fd``.  ``terms`` are the
    lease fields every point shares (metered, heartbeat)."""

    ready = False

    def __init__(self, name: str, fd: int, writer, terms: dict, *,
                 proc=None, sock=None) -> None:
        self.name = name
        self.waitable = fd
        self.writer = writer
        self.terms = terms
        self.proc = proc
        self.sock = sock
        self._buffer = bytearray()

    def _write(self, message: dict) -> None:
        self.writer.write(encode_message(message).encode())
        self.writer.flush()

    def send(self, lease_id: str, task: tuple) -> None:
        index, attempt, config, faults, extract = task
        self._write({
            "t": "lease", "lease_id": lease_id, "index": index,
            "attempt": attempt, "config": config_to_dict(config),
            "faults": [clause.to_dict() for clause in faults],
            "extract": extract_reference(extract), **self.terms})

    def messages(self) -> list[tuple]:
        try:
            chunk = os.read(self.waitable, 1 << 16)
        except OSError:
            chunk = b""
        if not chunk:
            return [self._died("EOF on the agent transport")]
        self._buffer += chunk
        *lines, self._buffer = self._buffer.split(b"\n")
        arrived: list[tuple] = []
        try:
            if len(self._buffer) > MAX_LINE_BYTES:
                raise WireError(
                    f"protocol line exceeds {MAX_LINE_BYTES} bytes")
            for line in lines:
                arrived += self._understood(decode_message(line))
        except (WireError, TypeError, ValueError) as exc:
            # A peer that cannot frame lines or type its fields cannot
            # be trusted to pair results with leases.
            arrived.append(self._died(f"protocol damage: {exc}"))
        return arrived

    def _understood(self, message: dict) -> list[tuple]:
        kind = message["t"]
        lease_id = str(message.get("lease_id", ""))
        if kind == "hello":
            if message.get("proto") != PROTOCOL_VERSION:
                raise WireError(
                    f"version mismatch (agent {message.get('proto')} != "
                    f"coordinator {PROTOCOL_VERSION})")
            # Provenance for manifests: who actually ran the point.
            pid = message.get("pid")
            self.name += (f"@{message.get('host') or 'localhost'}"
                          + (f":{pid}" if isinstance(pid, int) else ""))
            self.ready = True
        elif kind == "heartbeat":
            return [("alive", lease_id, None)]
        elif kind == "result":
            return [(OUTCOME_OK, lease_id,
                     (message.get("measurements"),
                      float(message.get("wall_seconds", 0.0)),
                      int(message.get("events_processed", 0)),
                      message.get("snapshot")))]
        elif kind == "error":
            return [(OUTCOME_ERROR, lease_id,
                     str(message.get("detail", "worker error")))]
        # Unknown message kinds are ignored: a newer agent may emit
        # vocabulary this coordinator predates.
        return []

    def _died(self, why: str) -> tuple:
        self.reap(force=True)
        code = getattr(self.proc, "returncode", None)
        return ("dead", "",
                why + (f", exit code {code}" if code is not None else ""))

    def dismiss(self) -> None:
        try:
            self._write({"t": "shutdown"})
        except (OSError, ValueError):  # repro: noqa[RPR007] -- polite shutdown of a possibly-dead agent; reap falls through to kill
            pass
        self._close(self.writer)

    def reap(self, force: bool = False) -> None:
        if self.proc is not None:
            if force:
                # Presumed hung or partitioned: stop it *now*.
                self.proc.kill()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck agent
                self.proc.kill()
                self.proc.wait()
        self._close(self.writer, getattr(self.proc, "stdout", None),
                    self.sock)

    @staticmethod
    def _close(*streams) -> None:
        for stream in streams:
            try:
                if stream is not None:
                    stream.close()
            except (OSError, ValueError):  # repro: noqa[RPR007] -- closing a stream to a dead peer; nothing to recover
                pass


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
        if os.name != "posix":
            raise ConfigurationError(
                "the worker backend's coordinator waits on raw pipe and "
                "socket descriptors and needs a POSIX host (its agents, "
                "`repro worker serve`, run anywhere)")
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        self.command = list(command) if command else default_agent_command()
        self.workers = workers
        self.connect = tuple(connect)
        #: Parsed here so a typo is a ConfigurationError before anything
        #: is spawned, not an agent that "could not be reached".
        self._endpoints = [parse_endpoint(endpoint)
                           for endpoint in self.connect]
        self.lease_ttl = float(lease_ttl)
        self.heartbeat = max(0.05, self.lease_ttl * _HEARTBEAT_FRACTION)
        self.max_respawns = max_respawns
        self.hello_timeout = float(hello_timeout)

    def _spawn_agent(self, ordinal: int, terms: dict) -> _Agent | None:
        try:
            proc = subprocess.Popen(self.command, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE)
        except OSError as exc:
            warnings.warn(f"could not spawn worker agent ({exc})",
                          RuntimeWarning, stacklevel=5)
            return None
        return _Agent(f"agent{ordinal}", proc.stdout.fileno(), proc.stdin,
                      terms, proc=proc)

    def _connect_agent(self, ordinal: int, endpoint: tuple[str, int],
                       terms: dict) -> _Agent | None:
        try:
            sock = socket.create_connection(endpoint, timeout=10.0)
        except OSError as exc:
            warnings.warn("could not connect to worker agent "
                          f"{endpoint[0]}:{endpoint[1]} ({exc})",
                          RuntimeWarning, stacklevel=5)
            return None
        sock.settimeout(None)
        return _Agent(f"agent{ordinal}", sock.fileno(), sock.makefile("wb"),
                      terms, sock=sock)

    def execute(self, request: BackendRequest) -> None:
        if request.policy is None:
            raise BackendUnavailable(
                "the worker backend always runs supervised; the runner must "
                "provide a resilience policy")
        for extract in {id(e): e for e in request.extracts}.values():
            extract_reference(extract)  # refuse a lambda before any agent starts
        terms = {"metered": request.metered, "heartbeat": self.heartbeat}
        fleet = len(self.connect) or self.workers or max(1, request.jobs)
        respawns = (self.max_respawns if self.max_respawns is not None
                    else 2 * fleet)
        ordinals = itertools.count()
        endpoints = list(self._endpoints)

        def spawn() -> _Agent | None:
            # TCP endpoints are someone else's processes — they are not
            # replaced, the fleet just shrinks.
            while endpoints:
                agent = self._connect_agent(next(ordinals), endpoints.pop(0),
                                            terms)
                if agent is not None:
                    return agent
            ordinal = next(ordinals)
            if self.connect or ordinal >= fleet + respawns:
                return None
            return self._spawn_agent(ordinal, terms)

        coordinate(request, Crew(
            spawn, slots=fleet, ttl=self.lease_ttl,
            hello_timeout=self.hello_timeout,
            unavailable="worker backend: no agent is alive and no more can "
                        f"be started (command={self.command!r}, "
                        f"connect={self.connect!r}, respawn budget "
                        f"{respawns})"))
