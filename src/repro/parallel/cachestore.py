"""The shared result-cache store: one ResultCache, many sweep hosts.

``repro cache serve`` wraps an on-disk
:class:`~repro.parallel.cache.ResultCache` in a tiny TCP server speaking
the ``cache-*`` verbs of :mod:`repro.parallel.protocol`;
:class:`SharedCacheClient` is the matching client — a drop-in for a
``ResultCache`` anywhere the runner takes ``cache=`` (including
``cache="tcp://host:port"``).  A fleet of coordinators and a resumed
sweep on a different host then share one content-addressed store: any
host's completion warms every host's next run.

Semantics are the local cache's, by construction — the server calls the
same ``get``/``put``/``quarantine_conflict`` — so atomic writes,
damage quarantine and conflicting-payload quarantine behave identically
whether the store is a directory or a socket away.  The server
serializes cache operations under one lock; the filesystem's atomic
rename already makes concurrent *processes* safe, the lock just keeps
this process's counters coherent.

The client **degrades, never blocks**: a genuinely unreachable store
(connection refused, mid-conversation EOF) turns every later read into
a miss and every later write into a no-op, with one warning.  Losing
the cache must cost recomputation, not the sweep — the journal, not the
cache, is the resume source of truth.
"""

from __future__ import annotations

import json
import socket
import threading
import warnings
from pathlib import Path

from repro.errors import ConfigurationError, WireError
from repro.parallel.cache import ResultCache
from repro.parallel.protocol import read_message, write_message
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.serialize import config_from_dict, config_to_dict

__all__ = ["SharedCacheClient", "SharedCacheServer", "parse_endpoint"]


def parse_endpoint(url: str) -> tuple[str, int]:
    """``tcp://host:port`` (or bare ``host:port``) → ``(host, port)``.

    The shared cache URL (``cache="tcp://…"``, ``--cache-dir
    tcp://…``) comes through here, so a malformed endpoint is a
    :class:`ConfigurationError` before any connection is tried.
    """
    text = url.strip()
    if text.startswith("tcp://"):
        text = text[len("tcp://"):]
    host, _, port_text = text.rpartition(":")
    if not port_text.isdecimal() or int(port_text) > 65535:
        raise ConfigurationError(
            f"bad endpoint {url!r}; expected HOST:PORT or tcp://HOST:PORT "
            "with a port in 0-65535")
    return host or "localhost", int(port_text)


class SharedCacheServer:
    """Serve one :class:`ResultCache` to the network.

    Binds on construction (``port=0`` picks a free port — tests and
    ephemeral fleets read :attr:`port` back); :meth:`start` serves in a
    background thread, :meth:`serve_forever` in the calling thread
    (the CLI path).  Each connection gets its own handler thread; a
    conversation ends at EOF, ``shutdown``, or the first damaged line.
    """

    def __init__(self, cache: ResultCache | str | Path | None = None, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        if isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._active: set[socket.socket] = set()
        self.connections = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SharedCacheServer":
        """Serve connections in a daemon thread; returns self."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, daemon=True,
            name=f"cache-store-{self.port}")
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`stop`."""
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            self.connections += 1
            threading.Thread(target=self._serve_connection, args=(conn,),
                             daemon=True,
                             name=f"cache-conn-{self.connections}").start()

    def stop(self) -> None:
        """Stop accepting and drop every open conversation.

        Clients see the drop as an EOF mid-conversation and degrade;
        the store's on-disk state is always consistent (entry writes
        are atomic renames), so a hard stop never tears anything.
        """
        self._stopping.set()
        try:
            # close() alone leaves a thread blocked in accept() asleep;
            # shutdown() makes that accept() raise so the join below
            # returns at once instead of timing out.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # repro: noqa[RPR007] -- listener may already be closed; stop() is idempotent
            pass
        self._listener.close()
        with self._lock:
            active = list(self._active)
        for conn in active:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # repro: noqa[RPR007] -- connection may have closed itself; the goal is the EOF, not the call
                pass
            try:
                conn.close()
            except OSError:  # repro: noqa[RPR007] -- double-close race with the serving thread is harmless
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "SharedCacheServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Conversation
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        with self._lock:
            self._active.add(conn)
        with conn:
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            writer = conn.makefile("w", encoding="utf-8", newline="\n")
            try:
                while True:
                    try:
                        message = read_message(reader)
                    except WireError as exc:
                        write_message(writer, {"t": "cache-error",
                                               "detail": f"protocol: {exc}"})
                        return
                    if message is None or message["t"] == "shutdown":
                        return
                    try:
                        reply = self._dispatch(message)
                    except Exception as exc:  # never kill the store
                        reply = {"t": "cache-error",
                                 "detail": f"{type(exc).__name__}: {exc}"}
                    write_message(writer, reply)
            except (OSError, ValueError):  # pragma: no cover - peer gone
                return
            finally:
                for stream in (reader, writer):
                    try:
                        stream.close()
                    except (OSError, ValueError):  # repro: noqa[RPR007] -- stop() may have closed the socket under us mid-serve
                        pass
                with self._lock:
                    self._active.discard(conn)

    def _dispatch(self, message: dict) -> dict:
        kind = message["t"]
        if kind == "cache-get":
            key = _required_key(message)
            with self._lock:
                with warnings.catch_warnings():
                    # Quarantine warnings belong on the server's stderr,
                    # not raised into the accept thread's context.
                    warnings.simplefilter("default")
                    measurements = self.cache.get(key)
            if measurements is None:
                return {"t": "cache-miss", "key": key}
            return {"t": "cache-hit", "key": key,
                    "measurements": measurements}
        if kind == "cache-put":
            key = _required_key(message)
            measurements = message.get("measurements")
            if not isinstance(measurements, dict):
                return {"t": "cache-error",
                        "detail": "cache-put needs a measurements object"}
            config = None
            raw_config = message.get("config")
            if isinstance(raw_config, dict):
                try:
                    config = config_from_dict(raw_config)
                except Exception:
                    config = None  # provenance only; never refuse the put
            with self._lock:
                path = self.cache.put(key, measurements, config=config)
            return {"t": "cache-ok", "key": key, "stored": path is not None}
        if kind == "cache-quarantine":
            key = _required_key(message)
            accepted = message.get("accepted")
            duplicate = message.get("duplicate")
            if not isinstance(accepted, dict) or not isinstance(duplicate, dict):
                return {"t": "cache-error",
                        "detail": "cache-quarantine needs accepted and "
                                  "duplicate objects"}
            with self._lock:
                self.cache.quarantine_conflict(key, accepted, duplicate)
            return {"t": "cache-ok", "key": key, "stored": False}
        if kind == "cache-stats":
            with self._lock:
                return {"t": "cache-stats-reply",
                        "hits": self.cache.hits,
                        "misses": self.cache.misses,
                        "quarantined": self.cache.quarantined,
                        "entries": len(self.cache),
                        "root": str(self.cache.root)}
        return {"t": "cache-error", "detail": f"unknown verb {kind!r}"}


def _required_key(message: dict) -> str:
    key = message.get("key")
    if not isinstance(key, str) or not key:
        raise WireError(f"{message.get('t')} needs a string key")
    return key


class SharedCacheClient:
    """A :class:`ResultCache`-shaped client for a remote store.

    Duck-compatible with the runner's ``cache=`` argument: ``get`` /
    ``put`` / ``quarantine_conflict`` plus the ``hits`` / ``misses`` /
    ``quarantined`` counters (tracked locally — they describe *this
    sweep's* traffic, the server aggregates its own).

    ``put`` returns ``None`` rather than a path — the entry file lives
    on the server's disk, so path-based operations (like the ``corrupt``
    fault's truncation) are intentionally unavailable remotely.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 10.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.degraded = False
        """True once the store was unreachable; all later traffic is
        skipped (reads miss, writes no-op) for the client's lifetime."""
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._reader = None
        self._writer = None

    @classmethod
    def from_url(cls, url: str, **kwargs) -> "SharedCacheClient":
        """Build a client from a ``tcp://host:port`` endpoint."""
        host, port = parse_endpoint(url)
        return cls(host, port, **kwargs)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _ensure_connected(self) -> None:
        if self._sock is not None:
            return
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8",
                                           newline="\n")
        self._writer = self._sock.makefile("w", encoding="utf-8",
                                           newline="\n")

    def _degrade(self, why: str) -> None:
        if not self.degraded:
            self.degraded = True
            warnings.warn(
                f"shared result cache at tcp://{self.host}:{self.port} is "
                f"unreachable ({why}); continuing without it — points "
                "recompute and the journal remains the source of truth",
                RuntimeWarning,
                stacklevel=4,
            )
        self.close()

    def _request(self, message: dict) -> dict | None:
        """One round trip; ``None`` when the store is (now) unreachable."""
        if self.degraded:
            return None
        with self._lock:
            try:
                self._ensure_connected()
                write_message(self._writer, message)
                reply = read_message(self._reader)
            except (OSError, ValueError, WireError) as exc:
                self._degrade(str(exc) or type(exc).__name__)
                return None
            if reply is None:
                self._degrade("server closed the connection")
                return None
            return reply

    # ------------------------------------------------------------------
    # ResultCache-shaped surface
    # ------------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        reply = self._request({"t": "cache-get", "key": key})
        if reply is not None and reply.get("t") == "cache-hit":
            measurements = reply.get("measurements")
            if isinstance(measurements, dict):
                self.hits += 1
                return measurements
        self.misses += 1
        return None

    def put(self, key: str, measurements: dict,
            config: ScenarioConfig | None = None) -> None:
        document = {"t": "cache-put", "key": key,
                    "measurements": _jsonable(measurements)}
        if config is not None:
            document["config"] = config_to_dict(config)
        self._request(document)
        return None

    def quarantine_conflict(self, key: str, accepted: dict,
                            duplicate: dict) -> None:
        self._request({"t": "cache-quarantine", "key": key,
                       "accepted": _jsonable(accepted),
                       "duplicate": _jsonable(duplicate)})
        self.quarantined += 1

    def stats(self) -> dict | None:
        """The server's aggregate counters, or ``None`` when degraded."""
        reply = self._request({"t": "cache-stats"})
        if reply is not None and reply.get("t") == "cache-stats-reply":
            return reply
        return None

    def close(self) -> None:
        for stream in (self._reader, self._writer):
            try:
                if stream is not None:
                    stream.close()
            except (OSError, ValueError):  # repro: noqa[RPR007] -- close() after degradation; the server is already gone
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # repro: noqa[RPR007] -- best-effort socket teardown on a dead connection
                pass
        self._sock = self._reader = self._writer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "degraded" if self.degraded else "ok"
        return (f"SharedCacheClient(tcp://{self.host}:{self.port}, {state}, "
                f"hits={self.hits}, misses={self.misses})")


def _jsonable(payload: dict) -> dict:
    """Round-trip through JSON so equality checks on the server compare
    what actually crossed the wire (tuples become lists, etc.)."""
    return json.loads(json.dumps(payload))
