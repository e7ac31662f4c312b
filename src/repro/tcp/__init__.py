"""Transport layer: one sender core, pluggable congestion control.

A unified :class:`~repro.tcp.sender.Sender` owns the transport
mechanism; per-flow :mod:`~repro.tcp.congestion` strategies own the
window policy, and the string-keyed registry
(:func:`register_algorithm`) makes new algorithms a config value —
``FlowSpec(algorithm="aimd", params={"a": 1, "b": 0.5})`` — instead of
a fork of the sender.
"""

from repro.tcp.congestion import (
    AimdControl,
    CongestionControl,
    FixedWindowControl,
    PacedControl,
    RenoControl,
    TahoeControl,
    algorithm_names,
    create_control,
    register_algorithm,
)
from repro.tcp.connection import Connection, make_connection
from repro.tcp.options import TcpOptions
from repro.tcp.receiver import TcpReceiver
from repro.tcp.rto import RttEstimator
from repro.tcp.sender import Sender

__all__ = [
    "TcpOptions",
    "Sender",
    "TcpReceiver",
    "RttEstimator",
    "Connection",
    "make_connection",
    "CongestionControl",
    "TahoeControl",
    "RenoControl",
    "FixedWindowControl",
    "PacedControl",
    "AimdControl",
    "register_algorithm",
    "create_control",
    "algorithm_names",
]
