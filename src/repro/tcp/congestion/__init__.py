"""Congestion-control strategies and the algorithm registry.

The transport core (:class:`~repro.tcp.sender.Sender`) is mechanism;
this package is policy.  Each module implements one window-evolution
strategy against the :class:`~repro.tcp.congestion.base.CongestionControl`
interface, and :data:`ALGORITHMS`, a :class:`~repro.registry.Registry`,
maps the names that configs, cache keys and manifests carry onto those
strategies.  The bottleneck's queue disciplines resolve through the
same class (:mod:`repro.net.disciplines`), with the same rules and
errors.

The built-ins register themselves here, on package import, so a name
is resolvable wherever ``repro.tcp`` is importable.  A worker or fleet
agent forked on Linux inherits the registry as it stood when the sweep
began, but a spawned one (other platforms, a parent running another
thread, a custom agent command) and every remote agent re-import
modules rather than inherit state, so an extension registers once, at
module scope of an importable module::

    from repro import tcp

    class Aiad(tcp.CongestionControl):
        ...

    tcp.register_algorithm("aiad", Aiad)

A factory defined inside a function would exist only in the process
that ran it (lint rule RPR005 flags this): forked workers inherit it,
spawned ones fail every point with ``unknown algorithm``.
"""

from typing import Callable, Mapping

from repro.registry import Registry
from repro.tcp.congestion.aimd import AimdControl
from repro.tcp.congestion.base import CongestionControl
from repro.tcp.congestion.fixed import FixedWindowControl
from repro.tcp.congestion.paced import PacedControl
from repro.tcp.congestion.reno import RenoControl
from repro.tcp.congestion.tahoe import TahoeControl

__all__ = [
    "CongestionControl",
    "TahoeControl",
    "RenoControl",
    "FixedWindowControl",
    "PacedControl",
    "AimdControl",
    "ALGORITHMS",
    "register_algorithm",
    "create_control",
    "algorithm_names",
]

#: Algorithm names to ``factory(**params) -> CongestionControl``; a
#: strategy class whose ``__init__`` takes the params works directly.
ALGORITHMS: Registry[CongestionControl] = Registry("algorithm", CongestionControl)


def register_algorithm(name: str,
                       factory: Callable[..., CongestionControl]) -> None:
    """Register ``factory`` under ``name``, the value of ``FlowSpec.algorithm``."""
    ALGORITHMS.register(name, factory)


def create_control(name: str,
                   params: Mapping[str, object] | None = None) -> CongestionControl:
    """Instantiate the strategy registered under ``name``, ``params`` as keywords."""
    return ALGORITHMS.create(name, params=params or ())


def algorithm_names() -> list[str]:
    """The registered algorithm names, sorted."""
    return ALGORITHMS.names()


register_algorithm("tahoe", TahoeControl)
register_algorithm("reno", RenoControl)
register_algorithm("fixed", FixedWindowControl)
register_algorithm("paced", PacedControl)
register_algorithm("aimd", AimdControl)
