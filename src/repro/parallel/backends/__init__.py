"""Sweep execution backends.

The runner decides *what* runs (prefilters, caching, journaling,
retry accounting); a backend decides *where and how* the live points
execute.  ``repro sweep --backend worker`` and
``ParallelSweepRunner(backend="worker")`` resolve a name through
:func:`resolve_backend`'s two-entry table:

- ``local`` — this host's processes (``jobs`` long-lived workers
  started once per sweep; in-process for ``jobs == 1``).  The default,
  and the degradation target when any other backend dies mid-sweep.
- ``worker`` — a fleet of long-lived ``repro worker serve`` agents
  speaking the line-JSON wire protocol.

Both are a transport under the one supervision loop of
:mod:`~repro.parallel.backends.coordinator`.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.parallel.backends.base import BackendRequest, SweepBackend
from repro.parallel.backends.local import LocalBackend
from repro.parallel.backends.worker import WorkerBackend

__all__ = [
    "BackendRequest",
    "LocalBackend",
    "SweepBackend",
    "WorkerBackend",
    "resolve_backend",
]

_BACKENDS: dict[str, type[SweepBackend]] = {
    LocalBackend.name: LocalBackend,
    WorkerBackend.name: WorkerBackend,
}


def resolve_backend(backend) -> SweepBackend:
    """Normalize the user-facing ``backend=`` argument.

    ``None`` means local execution, a string names a known backend,
    and a :class:`SweepBackend` instance is used as-is.
    """
    if backend is None:
        return LocalBackend()
    if isinstance(backend, SweepBackend):
        return backend
    if isinstance(backend, str):
        if backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown sweep backend {backend!r} "
                f"(registered: {', '.join(sorted(_BACKENDS))})")
        return _BACKENDS[backend]()
    raise ConfigurationError(
        "backend must be None, a registered backend name, or a "
        f"SweepBackend instance, got {type(backend).__name__}")
