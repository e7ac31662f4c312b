"""Pluggable sweep execution backends.

The runner decides *what* runs (prefilters, caching, journaling,
retry accounting); a backend decides *where and how* the live points
execute.  Backends register here by name — the same registry move the
congestion-control algorithms made — so ``repro sweep --backend worker``
and ``ParallelSweepRunner(backend="worker")`` resolve through one
string-keyed table:

- ``local`` — this host's processes (``jobs`` long-lived workers
  spawned once per sweep; in-process for ``jobs == 1``).  The default,
  and the degradation target when any other backend dies mid-sweep.
- ``worker`` — a fleet of long-lived ``repro worker serve`` agents
  speaking the line-JSON wire protocol.

Both are a transport under the one supervision loop of
:mod:`~repro.parallel.backends.coordinator`.

Third-party backends subclass :class:`~repro.parallel.backends.base.
SweepBackend` and call :func:`register_backend`.
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
    "backend_names",
    "create_backend",
    "register_backend",
    "resolve_backend",
]

_REGISTRY: dict[str, type[SweepBackend]] = {}


def register_backend(name: str, cls: type[SweepBackend]) -> None:
    """Add a backend class to the registry (idempotent re-registration
    of the same class is allowed; name collisions are not)."""
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"backend name must be a non-empty string, "
                                 f"got {name!r}")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"backend {name!r} is already registered to "
            f"{existing.__module__}.{existing.__qualname__}")
    _REGISTRY[name] = cls


def backend_names() -> list[str]:
    """Registered backend names, sorted (CLI help and error messages)."""
    return sorted(_REGISTRY)


def create_backend(name: str, **options) -> SweepBackend:
    """Instantiate a registered backend by name."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown sweep backend {name!r} "
            f"(registered: {', '.join(backend_names())})")
    return cls(**options)


def resolve_backend(backend) -> SweepBackend:
    """Normalize the user-facing ``backend=`` argument.

    ``None`` means local execution, a string resolves through the
    registry, and a :class:`SweepBackend` instance is used as-is.
    """
    if backend is None:
        return LocalBackend()
    if isinstance(backend, SweepBackend):
        return backend
    if isinstance(backend, str):
        return create_backend(backend)
    raise ConfigurationError(
        "backend must be None, a registered backend name, or a "
        f"SweepBackend instance, got {type(backend).__name__}")


register_backend(LocalBackend.name, LocalBackend)
register_backend(WorkerBackend.name, WorkerBackend)
