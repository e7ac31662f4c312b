"""Congestion-control strategies and the algorithm registry.

The transport core (:class:`~repro.tcp.sender.Sender`) is mechanism;
this package is policy.  Each module implements one window-evolution
strategy against the :class:`~repro.tcp.congestion.base.CongestionControl`
interface, and the registry maps the string names that configs, cache
keys and manifests carry onto those strategies.

The built-ins register themselves here, on package import, so a name
is resolvable wherever ``repro.tcp`` is importable — including spawn
worker processes, which re-import modules rather than inherit state.
"""

from repro.tcp.congestion.aimd import AimdControl
from repro.tcp.congestion.base import CongestionControl
from repro.tcp.congestion.fixed import FixedWindowControl
from repro.tcp.congestion.paced import PacedControl
from repro.tcp.congestion.registry import (
    algorithm_factory,
    algorithm_names,
    create_control,
    is_registered,
    register_algorithm,
)
from repro.tcp.congestion.reno import RenoControl
from repro.tcp.congestion.tahoe import TahoeControl

__all__ = [
    "CongestionControl",
    "TahoeControl",
    "RenoControl",
    "FixedWindowControl",
    "PacedControl",
    "AimdControl",
    "register_algorithm",
    "create_control",
    "algorithm_names",
    "algorithm_factory",
    "is_registered",
]

register_algorithm("tahoe", TahoeControl)
register_algorithm("reno", RenoControl)
register_algorithm("fixed", FixedWindowControl)
register_algorithm("paced", PacedControl)
register_algorithm("aimd", AimdControl)
