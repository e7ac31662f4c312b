"""The distributed execution backend: leases over a fleet of agents.

``WorkerBackend.execute`` is pre-flight checks, a crew of agents and
:func:`~repro.parallel.backends.coordinator.coordinate` — the same
supervision loop the local backend runs.  An agent is a long-lived
``repro worker serve`` conversation
(:func:`~repro.parallel.worker_agent.serve` speaking the
:mod:`repro.parallel.protocol`) over a child process's pipes.  Each
pending sweep point becomes a **lease** (:mod:`repro.parallel.leases`):
granted to an idle agent, kept alive by heartbeats, reclaimed and
re-leased when its deadline passes without one.  An agent crash, hang,
or partition costs the sweep latency, never a point.

Where each start applies: on Linux, when this process runs no other
Python thread, a default agent is forked from it (through the local
backend's one child start) and serves over its own ``os.pipe()`` pair
at once; everywhere else — other platforms, a parent that hosts a
cache-server thread, or a custom ``command=`` — it is spawned from
``command`` and served over its stdio: by default ``python -u -m repro
worker serve``, a fresh interpreter that pays its start-up and ``import
repro`` first, and on another host, for example, ``ssh HOST python -m
repro worker serve``.  Either way the same bytes cross the same
protocol.

What this module adds to the loop is the transport: :class:`_Agent`
turns the agent's byte stream into the coordinator's messages (a
bounded line splitter over the raw pipe fd, so the
coordinator blocks in one ``connection.wait`` over the whole fleet),
keeps ``hello`` — and its version check — to itself and surfaces it as
*ready*, and turns ``heartbeat`` into a keep-alive.

When the whole fleet is gone and cannot be respawned the coordinator
raises :class:`~repro.errors.BackendUnavailable`; the runner then
degrades the remaining points to the local backend, so a distributed
sweep's worst case is a slow local sweep.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import subprocess
import sys
import warnings
from typing import Sequence

from repro.errors import BackendUnavailable, ConfigurationError, WireError
from repro.parallel.backends.base import BackendRequest, SweepBackend
from repro.parallel.backends.coordinator import Crew, Transport, coordinate
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
_HELLO_TIMEOUT = 30.0


def default_agent_command() -> list[str]:
    """The argv that spawns a local worker agent over stdio."""
    return [sys.executable, "-u", "-m", "repro", "worker", "serve"]


def _agent_main(reader_end: io.FileIO, writer_end: io.FileIO) -> None:
    """Body of a forked local agent: ``repro worker serve`` over its pipes."""
    from repro.parallel.worker_agent import serve

    reader = io.TextIOWrapper(io.BufferedReader(reader_end),
                              encoding="utf-8", newline="\n")
    writer = io.TextIOWrapper(io.BufferedWriter(writer_end),
                              encoding="utf-8", newline="\n")
    try:
        sys.exit(serve(reader, writer))
    finally:
        reader.close()
        # ``serve`` flushes every message it writes: a line still
        # buffered here was bound for a coordinator that has died.
        with contextlib.suppress(BrokenPipeError):
            writer.close()


class _Forked:
    """A forked agent's process handle, answering what :class:`_Agent`
    asks of a ``Popen``: ``kill``, ``wait``, ``returncode`` and the
    ``stdout`` it reads from."""

    def __init__(self, process, stdout) -> None:
        self.process = process
        self.stdout = stdout

    def kill(self) -> None:
        self.process.kill()

    def wait(self, timeout: float | None = None) -> int:
        self.process.join(timeout)
        if self.process.exitcode is None:
            raise subprocess.TimeoutExpired(self.process.name, timeout)
        return self.process.exitcode

    @property
    def returncode(self) -> int | None:
        return self.process.exitcode


class _Agent(Transport):
    """One fleet member: its process ``proc`` (a ``Popen`` over stdio or
    a :class:`_Forked` over pipes; ``None`` for a bare stream), its
    messages arriving on the raw descriptor ``fd``.  ``terms`` are the
    lease fields every point shares (metered, heartbeat)."""

    ready = False

    def __init__(self, name: str, fd: int, writer, terms: dict, *,
                 proc=None) -> None:
        self.name = name
        self.waitable = fd
        self.writer = writer
        self.terms = terms
        self.proc = proc
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
        self._close(self.writer, getattr(self.proc, "stdout", None))

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
        running ``repro worker serve``, forked instead where the module
        docstring says; ``["ssh", host, "python", "-m", "repro",
        "worker", "serve"]`` runs each agent on ``host``).  Spawned
        agents inherit the coordinator's environment, so ``PYTHONPATH``
        et al. carry over.
    workers:
        Fleet size (default: the request's job budget).  A dead agent
        is replaced while work is outstanding, at most ``2 * workers``
        times per sweep; then the fleet is unrecoverable.
    lease_ttl:
        Seconds a lease survives without a heartbeat.
    """

    name = "worker"

    def __init__(self, *, command: Sequence[str] | None = None,
                 workers: int | None = None,
                 lease_ttl: float = 15.0) -> None:
        if os.name != "posix":
            raise ConfigurationError(
                "the worker backend's coordinator waits on raw pipe "
                "descriptors and needs a POSIX host (its agents, "
                "`repro worker serve`, run anywhere)")
        if lease_ttl <= 0:
            raise ConfigurationError(
                f"lease_ttl must be positive, got {float(lease_ttl)}")
        if workers is not None and workers < 1:
            raise ConfigurationError(
                f"workers must be at least 1, got {workers}")
        #: Only the default agent may be forked: a custom command is
        #: someone's own program.
        self._forkable = not command
        self.command = list(command) if command else default_agent_command()
        self.workers = workers
        self.lease_ttl = float(lease_ttl)
        self.heartbeat = max(0.05, self.lease_ttl * _HEARTBEAT_FRACTION)

    def _start_agent(self, ordinal: int, terms: dict,
                     forks: bool) -> _Agent | None:
        try:
            if forks:
                return self._fork_agent(ordinal, terms)
            proc = subprocess.Popen(self.command, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE)
        except OSError as exc:
            warnings.warn(f"could not spawn worker agent ({exc})",
                          RuntimeWarning, stacklevel=5)
            return None
        return _Agent(f"agent{ordinal}", proc.stdout.fileno(), proc.stdin,
                      terms, proc=proc)

    @staticmethod
    def _fork_agent(ordinal: int, terms: dict) -> _Agent:
        from multiprocessing import get_context

        from repro.parallel.backends.local import _start_child

        ends: list[int] = []
        try:
            ends += os.pipe()  # leases: coordinator -> agent
            ends += os.pipe()  # messages: agent -> coordinator
        except OSError:
            for fd in ends:
                os.close(fd)
            raise
        agent_in, lease_out, message_in, agent_out = (
            open(fd, mode, buffering=0)
            for fd, mode in zip(ends, ("rb", "wb", "rb", "wb")))
        writer = io.BufferedWriter(lease_out)
        process = _start_child(
            get_context("fork"), f"repro-agent-{ordinal}", _agent_main,
            (message_in, lease_out), (agent_in, agent_out))
        return _Agent(f"agent{ordinal}", message_in.fileno(), writer, terms,
                      proc=_Forked(process, message_in))

    def execute(self, request: BackendRequest) -> None:
        from repro.parallel.backends.local import _start_method

        if request.policy is None:
            raise BackendUnavailable(
                "the worker backend always runs supervised; the runner must "
                "provide a resilience policy")
        for extract in {id(e): e for e in request.extracts}.values():
            extract_reference(extract)  # refuse a lambda before any agent starts
        terms = {"metered": request.metered, "heartbeat": self.heartbeat}
        fleet = self.workers or max(1, request.jobs)
        respawns = 2 * fleet
        ordinals = itertools.count()
        # Read once per sweep, as the pool does: replacement agents
        # start the way the first ones did.
        forks = self._forkable and _start_method() == "fork"

        def spawn() -> _Agent | None:
            ordinal = next(ordinals)
            if ordinal >= fleet + respawns:
                return None
            return self._start_agent(ordinal, terms, forks)

        coordinate(request, Crew(
            spawn, slots=fleet, ttl=self.lease_ttl,
            hello_timeout=_HELLO_TIMEOUT,
            unavailable="worker backend: no agent is alive and no more can "
                        f"be started (command={self.command!r}, respawn "
                        f"budget {respawns})"))
