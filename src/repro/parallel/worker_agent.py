"""The long-lived sweep worker agent behind ``repro worker serve``.

One agent process serves one coordinator conversation: it announces
itself with a ``hello``, then loops — receive a ``lease`` (one sweep
point), heartbeat while simulating, report a ``result`` or an
``error``, go idle — until the coordinator says ``shutdown`` or the
transport reaches EOF.

The agent is deliberately dumb.  It holds no queue, no cache, no
journal, no retry policy: all of that lives in the coordinator
(:mod:`repro.parallel.backends.coordinator`), which is what lets the
same agent loop join a fleet over any pipe that can move lines of
JSON — a pipe pair from a local fork, or the stdio of a spawned
command: ``repro worker serve`` here, ``ssh host repro worker serve``
or a container runtime elsewhere.

Determinism note: a lease is served by the same ``_attempt`` body a
local worker process and the in-process path run, on a config rebuilt
from its canonical dict form, so a point computes bit-identical
measurements whichever host claims its lease.  Heartbeats are the only
wall-clock-driven traffic, and they carry no data that reaches results.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
from typing import IO

from repro.errors import ReproError, WireError
from repro.parallel.backends.coordinator import _attempt
from repro.parallel.protocol import (
    PROTOCOL_VERSION,
    read_message,
    resolve_extract,
    write_message,
)
from repro.resilience.faults import FaultClause
from repro.resilience.report import OUTCOME_OK
from repro.scenarios.serialize import config_from_dict

__all__ = ["serve", "serve_stdio"]

#: Fallback heartbeat cadence when a lease does not specify one.
DEFAULT_HEARTBEAT_SECONDS = 2.0


class _Heartbeat:
    """Background keep-alive for one lease.

    Writes share the transport with result messages, so every send goes
    through the caller's lock; a failed send just stops the beat (the
    coordinator is gone — the main loop will notice on its next write).
    """

    def __init__(self, writer: IO[str], lock: threading.Lock,
                 lease_id: str, interval: float) -> None:
        self._writer = writer
        self._lock = lock
        self._lease_id = lease_id
        self._interval = max(0.05, interval)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"heartbeat-{lease_id}")

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                with self._lock:
                    write_message(self._writer,
                                  {"t": "heartbeat", "lease_id": self._lease_id})
            except (OSError, ValueError):  # pragma: no cover - peer gone
                return


def _shipped_faults(raw: object) -> tuple[FaultClause, ...]:
    """Rebuild the fault clauses the coordinator attached to a lease."""
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise WireError(f"lease faults must be a list, got {type(raw).__name__}")
    clauses = []
    for item in raw:
        if not isinstance(item, dict):
            raise WireError("lease fault clause is not an object")
        try:
            clauses.append(FaultClause.from_dict(item))
        except ValueError as exc:
            raise WireError(f"bad lease fault clause: {exc}") from exc
    return tuple(clauses)


def _serve_lease(message: dict, writer: IO[str],
                 lock: threading.Lock) -> None:
    """Run one leased sweep point and report the outcome."""
    lease_id = message.get("lease_id")
    if not isinstance(lease_id, str):
        raise WireError("lease message missing string lease_id")
    try:
        index = message["index"]
        attempt = message.get("attempt", 1)
        config = config_from_dict(message["config"])
        extract = resolve_extract(message["extract"])
        faults = _shipped_faults(message.get("faults"))
        metered = bool(message.get("metered", False))
        interval = float(message.get("heartbeat", DEFAULT_HEARTBEAT_SECONDS))
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        with lock:
            write_message(writer, {"t": "error", "lease_id": lease_id,
                                   "detail": f"bad lease: {exc}"})
        return

    # The one attempt body; faults fire before the first heartbeat, so a
    # killed agent dies silently (like a real OOM) and a hung one goes
    # quiet, and the coordinator's lease deadline — not the agent's
    # goodwill — detects both.
    outcome, body, _ = _attempt(
        index, attempt, config, faults, extract, metered,
        alive=lambda: _Heartbeat(writer, lock, lease_id, interval))
    if outcome == OUTCOME_OK:
        measurements, wall_seconds, events, snapshot = body
        message = {"t": "result", "lease_id": lease_id, "index": index,
                   "measurements": measurements,
                   "wall_seconds": wall_seconds,
                   "events_processed": events, "snapshot": snapshot}
    else:
        message = {"t": "error", "lease_id": lease_id, "detail": body}
    with lock:
        write_message(writer, message)


def serve(reader: IO[str], writer: IO[str]) -> int:
    """The agent conversation loop; returns a process exit code.

    Serves leases until ``shutdown`` (exit 0) or transport EOF (exit 0 —
    a coordinator that vanishes is the normal end of an ssh/container
    fleet member's life).  A message that does not decode is terminal:
    the agent reports it and exits nonzero rather than guessing at
    stream alignment.
    """
    lock = threading.Lock()
    with lock:
        write_message(writer, {
            "t": "hello",
            "proto": PROTOCOL_VERSION,
            "host": socket.gethostname(),
            "pid": os.getpid(),
        })
    while True:
        try:
            message = read_message(reader)
        except WireError as exc:
            with lock:
                write_message(writer, {"t": "error", "lease_id": "",
                                       "detail": f"protocol: {exc}"})
            return 1
        if message is None or message["t"] == "shutdown":
            return 0
        if message["t"] == "lease":
            try:
                _serve_lease(message, writer, lock)
            except WireError as exc:
                with lock:
                    write_message(writer, {"t": "error", "lease_id": "",
                                           "detail": f"protocol: {exc}"})
                return 1
            except (OSError, ValueError):  # pragma: no cover - peer gone
                return 0
        else:
            with lock:
                write_message(writer, {
                    "t": "error", "lease_id": "",
                    "detail": f"unknown message type {message['t']!r}",
                })


def serve_stdio() -> int:
    """Serve one coordinator over this process's stdin/stdout.

    Print-style debugging inside simulations would corrupt the protocol
    stream, so stdout is reserved for messages; anything else belongs on
    stderr.
    """
    return serve(sys.stdin, sys.stdout)

