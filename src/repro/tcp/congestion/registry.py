"""The string-keyed congestion-control algorithm registry.

Algorithm identity flows through the system as *data* — a name plus a
params mapping on :class:`~repro.scenarios.config.FlowSpec`, in config
JSON documents, cache keys and run manifests — and this registry is
where the names resolve back into strategy factories.  Built-ins
register themselves on import; extensions call
:func:`register_algorithm` (re-exported as ``repro.tcp.register_algorithm``)
once at import time:

    from repro import tcp

    class Aiad(tcp.CongestionControl):
        ...

    tcp.register_algorithm("aiad", Aiad)

Registration must happen at *module scope* of an importable module —
worker processes re-import modules rather than inheriting closures, so
a factory defined inside a function would make every flow spec naming
it unpicklable in spirit even though only the name crosses the process
boundary (lint rule RPR005 flags this).
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import ConfigurationError
from repro.tcp.congestion.base import CongestionControl

__all__ = [
    "register_algorithm",
    "create_control",
    "algorithm_names",
    "algorithm_factory",
    "is_registered",
]

#: ``factory(**params) -> CongestionControl``.  A strategy class whose
#: ``__init__`` takes the params works directly.
AlgorithmFactory = Callable[..., CongestionControl]

_REGISTRY: dict[str, AlgorithmFactory] = {}


def register_algorithm(
    name: str,
    factory: AlgorithmFactory,
    *,
    replace: bool = False,
) -> None:
    """Register ``factory`` under ``name``.

    ``name`` is the value carried by ``FlowSpec.algorithm`` and config
    documents; it must be a non-empty lowercase identifier so documents
    stay case-unambiguous.  Re-registering an existing name raises
    unless ``replace=True`` (two modules silently fighting over a name
    would make runs depend on import order).
    """
    if not name or name != name.lower() or not name.replace("_", "").isalnum():
        raise ConfigurationError(
            f"algorithm name must be a lowercase identifier, got {name!r}")
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"algorithm {name!r} is already registered; "
            "pass replace=True to override it")
    _REGISTRY[name] = factory


def algorithm_names() -> list[str]:
    """The registered algorithm names, sorted."""
    return sorted(_REGISTRY)


def algorithm_factory(name: str) -> AlgorithmFactory:
    """The factory registered under ``name``, not instantiated."""
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; registered: "
            f"{', '.join(algorithm_names()) or '(none)'}")
    return _REGISTRY[name]


def is_registered(name: str) -> bool:
    """Whether ``name`` resolves to a factory."""
    return name in _REGISTRY


def create_control(
    name: str,
    params: Mapping[str, object] | None = None,
) -> CongestionControl:
    """Instantiate the strategy registered under ``name``.

    ``params`` are passed to the factory as keyword arguments; a factory
    rejecting them (wrong name, wrong type) surfaces as a
    :class:`~repro.errors.ConfigurationError` naming the algorithm, so
    a bad sweep point fails with context instead of a bare TypeError
    from deep inside a worker process.
    """
    factory = algorithm_factory(name)
    kwargs = dict(params) if params else {}
    try:
        control = factory(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"algorithm {name!r} rejected params {kwargs}: {exc}") from exc
    if not isinstance(control, CongestionControl):
        raise ConfigurationError(
            f"algorithm {name!r} factory returned {type(control).__name__}, "
            "not a CongestionControl")
    return control
