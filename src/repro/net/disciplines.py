"""The queue-discipline registry.

:data:`DISCIPLINES` is a :class:`~repro.registry.Registry`, the same
class :mod:`repro.tcp.congestion` uses for window algorithms, so both
policies share one name rule, one unknown-name error and one mapping of
rejected parameters onto :class:`~repro.errors.ConfigurationError`.
Here the factories are queue *classes*: subclasses of
:class:`~repro.net.queues.DropTailQueue` sharing the constructor shape
``cls(name, capacity, rng=..., strict=..., **params)``.

Registering classes (not closures) keeps entries picklable, and
:func:`register_discipline` refuses anything that is not a
``DropTailQueue`` subclass on the spot.  Scenario configs carry the
discipline as a :class:`~repro.scenarios.config.QueueSpec` (name +
normalized params), validated eagerly through :func:`validate_params`:
a bad parameter fails at config construction, not mid-sweep in a
worker process.

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
from repro.registry import Registry

__all__ = [
    "DISCIPLINES",
    "register_discipline",
    "create_queue",
    "validate_params",
    "discipline_names",
]

#: Discipline names to queue classes.
DISCIPLINES: Registry[DropTailQueue] = Registry("queue discipline", DropTailQueue)

#: Capacity used by the eager validation probe; any legal value works —
#: the probe queue is built and discarded without seeing a packet.
_PROBE_CAPACITY = 16


def register_discipline(name: str, factory: type[DropTailQueue]) -> None:
    """Register the queue class ``factory`` under ``name``.

    ``factory`` must be :class:`~repro.net.queues.DropTailQueue` or a
    subclass of it; anything else is refused here, before a run can
    reach it.
    """
    if not (isinstance(factory, type) and issubclass(factory, DropTailQueue)):
        raise ConfigurationError(
            f"queue discipline {name!r} must register a DropTailQueue "
            f"subclass, got {factory!r}")
    DISCIPLINES.register(name, factory)


def create_queue(discipline: str, name: str, capacity: int | None,
                 params: Iterable[tuple[str, object]] = (), *,
                 rng: SimRandom | None = None,
                 strict: bool | None = None) -> DropTailQueue:
    """Instantiate the queue for ``discipline``, ``params`` as keywords."""
    return DISCIPLINES.create(discipline, name, capacity, rng,
                              params=params, strict=strict)


def validate_params(discipline: str,
                    params: Iterable[tuple[str, object]] = ()) -> None:
    """Eagerly validate ``params`` for ``discipline``.

    Builds and discards a probe queue, so the exact constructor-level
    validation runs at config time (the FlowSpec pattern: fail on
    ``ScenarioConfig`` construction, not mid-run); a set the class
    accepted once in this process is not probed again
    (:meth:`~repro.registry.Registry.validate`).
    """
    DISCIPLINES.validate(discipline, f"{discipline}:probe", _PROBE_CAPACITY,
                         None, params=params, strict=False)


def discipline_names() -> list[str]:
    """All registered discipline names, sorted."""
    return DISCIPLINES.names()


register_discipline("droptail", DropTailQueue)
register_discipline("randomdrop", RandomDropQueue)
register_discipline("red", RedQueue)
