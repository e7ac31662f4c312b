"""String-keyed registry of queue disciplines.

Mirrors :mod:`repro.tcp.congestion.registry` on the other half of the
congestion loop: where that registry maps algorithm names to
:class:`~repro.tcp.congestion.base.CongestionControl` factories, this
one maps discipline names to queue *classes* — subclasses of
:class:`~repro.net.queues.DropTailQueue` sharing the constructor shape
``cls(name, capacity, rng=..., strict=..., **params)``.

Registering classes (not closures) keeps entries picklable, and
:func:`register_discipline` rejects anything that is not a
``DropTailQueue`` subclass on the spot.  Scenario configs carry the
discipline identity as a :class:`~repro.scenarios.config.QueueSpec`
(name + normalized params) which is validated eagerly through
:func:`validate_params` — a bad parameter fails at config construction,
not mid-sweep in a worker process.

Built-in entries:

``droptail``
    Plain FIFO drop-tail (:class:`~repro.net.queues.DropTailQueue`).
    No parameters.
``randomdrop``
    Random Drop overflow (:class:`~repro.net.random_drop.RandomDropQueue`).
    No parameters.
``red``
    Random Early Detection (:class:`~repro.net.red.RedQueue`).
    Parameters ``min_th``, ``max_th``, ``max_p``, ``wq``,
    ``idle_pkt_time``.
"""

from __future__ import annotations

from typing import Iterable

from repro.engine.rng import SimRandom
from repro.errors import ConfigurationError
from repro.net.queues import DropTailQueue
from repro.net.random_drop import RandomDropQueue
from repro.net.red import RedQueue

__all__ = [
    "register_discipline",
    "create_queue",
    "validate_params",
    "discipline_names",
    "is_registered",
]

#: name -> queue class, in registration order.
_DISCIPLINES: dict[str, type[DropTailQueue]] = {}

#: Capacity used by the eager validation probe; any legal value works —
#: the probe queue is built and discarded without seeing a packet.
_PROBE_CAPACITY = 16


def register_discipline(name: str, queue_class: type[DropTailQueue], *,
                        replace: bool = False) -> None:
    """Register ``queue_class`` under ``name``.

    ``name`` must be lowercase and alphanumeric (underscores allowed);
    ``queue_class`` must be a :class:`~repro.net.queues.DropTailQueue`
    subclass (or the class itself).  Duplicate names raise
    :class:`~repro.errors.ConfigurationError` unless ``replace=True``.
    """
    if not isinstance(name, str) or not name:
        raise ConfigurationError(f"discipline name must be a non-empty string, got {name!r}")
    if name != name.lower() or not name.replace("_", "").isalnum():
        raise ConfigurationError(
            f"discipline name must be lowercase alphanumeric "
            f"(underscores allowed), got {name!r}")
    if not (isinstance(queue_class, type) and issubclass(queue_class, DropTailQueue)):
        raise ConfigurationError(
            f"discipline {name!r} must register a DropTailQueue subclass, "
            f"got {queue_class!r}")
    if name in _DISCIPLINES and not replace:
        raise ConfigurationError(
            f"queue discipline {name!r} is already registered "
            f"(pass replace=True to override)")
    _DISCIPLINES[name] = queue_class


def _lookup(name: str) -> type[DropTailQueue]:
    try:
        return _DISCIPLINES[name]
    except KeyError:
        known = ", ".join(sorted(_DISCIPLINES))
        raise ConfigurationError(
            f"unknown queue discipline {name!r} (known: {known})") from None


def create_queue(discipline: str, name: str, capacity: int | None,
                 params: Iterable[tuple[str, object]] = (), *,
                 rng: SimRandom | None = None,
                 strict: bool | None = None) -> DropTailQueue:
    """Instantiate the queue for ``discipline``.

    ``params`` is a mapping or iterable of ``(key, value)`` pairs passed
    through as keyword arguments; unknown keys and out-of-range values
    surface as :class:`~repro.errors.ConfigurationError` with the
    discipline named, not as a bare ``TypeError`` from deep inside a
    worker process.
    """
    queue_class = _lookup(discipline)
    kwargs = dict(params)
    try:
        queue = queue_class(name, capacity, rng, strict=strict, **kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"queue discipline {discipline!r} rejected parameters "
            f"{sorted(kwargs)}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(
            f"invalid parameters for queue discipline {discipline!r}: {exc}"
        ) from exc
    if not isinstance(queue, DropTailQueue):
        raise ConfigurationError(
            f"discipline {discipline!r} produced {type(queue).__name__}, "
            f"not a DropTailQueue")
    return queue


def validate_params(discipline: str,
                    params: Iterable[tuple[str, object]] = ()) -> None:
    """Eagerly validate ``params`` for ``discipline``.

    Builds and discards a probe queue, so the exact constructor-level
    validation runs at config time (the FlowSpec pattern: fail on
    ``ScenarioConfig`` construction, not mid-run).
    """
    create_queue(discipline, f"{discipline}:probe", _PROBE_CAPACITY,
                 params, rng=SimRandom(0), strict=False)


def discipline_names() -> list[str]:
    """All registered discipline names, sorted."""
    return sorted(_DISCIPLINES)


def is_registered(name: str) -> bool:
    """Whether ``name`` is a registered discipline."""
    return name in _DISCIPLINES


register_discipline("droptail", DropTailQueue)
register_discipline("randomdrop", RandomDropQueue)
register_discipline("red", RedQueue)
