"""Connection plumbing: bind a sender and receiver pair onto two hosts.

A :class:`Connection` owns one transport sender on its source host and
one receiver on its destination host, registers both with the host
demultiplexers, and schedules the sender's start time.  Connections
pre-exist (the paper removes set-up/close), so "start" just means the
first window transmission.

:func:`make_connection` is the one factory: it resolves a registry
name (or takes a ready strategy instance) and wires a
:class:`~repro.tcp.sender.Sender` around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.net.packet import PacketKind
from repro.net.topology import Network
from repro.tcp.congestion import create_control
from repro.tcp.congestion.base import CongestionControl
from repro.tcp.congestion.fixed import FixedWindowControl
from repro.tcp.options import TcpOptions
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import Sender

__all__ = ["Connection", "make_connection"]


@dataclass
class Connection:
    """One unidirectional transport connection, fully wired."""

    conn_id: int
    src_host: str
    dst_host: str
    sender: Sender
    receiver: TcpReceiver
    start_time: float = 0.0
    options: TcpOptions = field(default_factory=TcpOptions)

    @property
    def is_fixed_window(self) -> bool:
        """True for fixed-window (non-adaptive) connections."""
        return isinstance(self.sender.control, FixedWindowControl)


def make_connection(
    sim: Simulator,
    net: Network,
    conn_id: int,
    src_host: str,
    dst_host: str,
    algorithm: str | CongestionControl = "tahoe",
    params: Mapping[str, object] | None = None,
    options: TcpOptions | None = None,
    start_time: float = 0.0,
) -> Connection:
    """Create, register and schedule a connection of any algorithm.

    ``algorithm`` is a registry name (``params`` go to its factory) or
    an already-built :class:`CongestionControl` instance (``params``
    must then be empty).
    """
    if src_host == dst_host:
        raise ConfigurationError("connection endpoints must differ")
    opts = options or TcpOptions()
    if isinstance(algorithm, CongestionControl):
        if params:
            raise ConfigurationError(
                "params belong to the registry factory; pass a configured "
                "CongestionControl instance OR a name with params, not both")
        control = algorithm
    else:
        control = create_control(algorithm, params)
    src = net.host(src_host)
    dst = net.host(dst_host)
    sender = Sender(sim, src, conn_id, dst_host, options=opts, control=control)
    receiver = TcpReceiver(sim, dst, conn_id, src_host, opts)
    # ACKs come back to the source host; DATA arrives at the destination.
    src.register_endpoint(conn_id, PacketKind.ACK, sender)
    dst.register_endpoint(conn_id, PacketKind.DATA, receiver)
    sim.schedule_at(start_time, sender.start, label=f"conn{conn_id}:start")
    return Connection(
        conn_id=conn_id,
        src_host=src_host,
        dst_host=dst_host,
        sender=sender,
        receiver=receiver,
        start_time=start_time,
        options=opts,
    )
