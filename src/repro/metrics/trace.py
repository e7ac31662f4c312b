"""Aggregated instrumentation for a simulation run.

:class:`TraceSet` bundles all the monitors of one scenario — queue
lengths, link utilization, drops, congestion windows, ACK arrivals —
under string keys so the analysis and reporting layers can address them
uniformly ("sw1->sw2", "conn 1", ...).
"""

from __future__ import annotations

from repro.errors import AnalysisError
from repro.metrics.ack_log import AckArrivalLog
from repro.metrics.cwnd_log import CwndLog
from repro.metrics.drop_log import DropLog
from repro.metrics.port_monitor import PortMonitor
from repro.net.port import OutputPort
from repro.tcp.connection import Connection

__all__ = ["TraceSet"]


class TraceSet:
    """All monitors attached to one simulation."""

    def __init__(self) -> None:
        # One monitor per watched port, under the three names its
        # queue, link and sojourn readers address it by.
        self.queues: dict[str, PortMonitor] = {}
        self.links = self.sojourns = self.queues
        self.cwnds: dict[int, CwndLog] = {}
        self.acks: dict[int, AckArrivalLog] = {}
        self.drops = DropLog()

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def watch_port(self, port: OutputPort, name: str | None = None) -> None:
        """Attach the queue / link / sojourn / drop monitor to ``port``."""
        label = name or port.name
        if label in self.queues:
            raise AnalysisError(f"port {label!r} is already watched")
        self.queues[label] = PortMonitor(port, name=label, drops=self.drops)

    def watch_connection(self, conn: Connection) -> None:
        """Attach cwnd and ACK-arrival logs to ``conn``.

        Any sender whose congestion-control strategy is *adaptive* —
        one with a dynamic window worth tracing (Tahoe, Reno, AIMD,
        ...) — gets a :class:`CwndLog`; fixed and paced windows have
        nothing dynamic to log.
        """
        if conn.conn_id in self.acks:
            raise AnalysisError(f"connection {conn.conn_id} is already watched")
        if conn.sender.control.adaptive:
            self.cwnds[conn.conn_id] = CwndLog(conn.sender)
        self.acks[conn.conn_id] = AckArrivalLog(conn.sender)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def queue(self, name: str) -> PortMonitor:
        """The monitor of the port watched under ``name``."""
        if name not in self.queues:
            raise AnalysisError(f"no port monitor named {name!r}; have {sorted(self.queues)}")
        return self.queues[name]

    link = sojourn = queue

    def cwnd(self, conn_id: int) -> CwndLog:
        """The cwnd log of connection ``conn_id``."""
        if conn_id not in self.cwnds:
            raise AnalysisError(f"no cwnd log for connection {conn_id}")
        return self.cwnds[conn_id]

    def ack_log(self, conn_id: int) -> AckArrivalLog:
        """The ACK-arrival log of connection ``conn_id``."""
        if conn_id not in self.acks:
            raise AnalysisError(f"no ACK log for connection {conn_id}")
        return self.acks[conn_id]
