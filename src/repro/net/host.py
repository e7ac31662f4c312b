"""End hosts.

A :class:`Host` terminates transport connections.  Arriving packets pass
through a fixed per-packet processing delay (0.1 ms in the paper) before
being demultiplexed to the registered endpoint:

- DATA packets for connection *c* go to the receiver endpoint of *c*;
- ACK packets for connection *c* go to the sender endpoint of *c*.

Outbound packets are stamped with source/destination and routed out the
host's (single, in the paper's topology) interface.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.net.port import OutputPort

__all__ = ["Host", "PacketSink"]


class PacketSink(Protocol):
    """Anything that can consume a delivered packet."""

    def deliver(self, packet: Packet) -> None:
        """Process a packet addressed to this endpoint."""
        ...  # pragma: no cover


class Host(Node):
    """A traffic endpoint with per-packet processing delay."""

    def __init__(self, sim: Simulator, name: str,
                 processing_delay: float = 0.0) -> None:
        super().__init__(sim, name)
        if processing_delay < 0:
            raise ConfigurationError(
                f"processing delay must be >= 0, got {processing_delay}"
            )
        self.processing_delay = processing_delay
        # (conn_id, is-DATA) -> the sink's bound ``deliver``.  Keyed by a
        # bool rather than the PacketKind member because hashing an Enum
        # member is a Python-level call, paid per delivered packet.
        self._sinks: dict[tuple[int, bool], Callable[[Packet], None]] = {}
        self._received = 0
        self._sent = 0
        # Constant per host; built per delivered packet before.
        self._proc_label = f"{name}:proc"
        # Bound once: what the calendar calls per delivered packet
        # (posted: processing, once begun, is never revoked).
        self._post = sim.post
        self._deliver = self._deliver_local
        # Destination -> output port, resolved through port_toward on the
        # first send there: one dict lookup per packet, whatever kind of
        # table the host routes by.
        self._route_ports: dict[str, OutputPort] = {}

    def add_route(self, destination: str, via: str) -> None:
        """Route packets for ``destination`` via ``via`` from now on."""
        super().add_route(destination, via)
        self._route_ports.pop(destination, None)

    # ------------------------------------------------------------------
    # Endpoint registry
    # ------------------------------------------------------------------
    def register_endpoint(self, conn_id: int, kind: PacketKind, sink: PacketSink) -> None:
        """Deliver future packets of ``kind`` for ``conn_id`` to ``sink``."""
        key = (conn_id, kind is PacketKind.DATA)
        if key in self._sinks:
            raise ConfigurationError(
                f"{self.name}: endpoint already bound for {(conn_id, kind)}")
        self._sinks[key] = sink.deliver

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def received(self) -> int:
        """Packets delivered to local endpoints so far."""
        return self._received

    @property
    def sent(self) -> int:
        """Packets injected into the network so far."""
        return self._sent

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        """Receive from the wire: apply processing delay, then demux."""
        if self.processing_delay > 0:
            self._post(self.processing_delay, self._deliver, packet,
                       label=self._proc_label)
        else:
            self._deliver_local(packet)

    def _deliver_local(self, packet: Packet) -> None:
        deliver = self._sinks.get((packet.conn_id, packet.kind is PacketKind.DATA))
        if deliver is None:
            raise ConfigurationError(
                f"{self.name}: no endpoint for conn {packet.conn_id} kind {packet.kind}"
            )
        self._received += 1
        deliver(packet)

    def send(self, packet: Packet, destination: str) -> bool:
        """Inject a locally-generated packet toward ``destination``.

        Returns ``False`` if the first-hop buffer dropped it (essentially
        impossible on the paper's 10 Mbps access links, but reported for
        completeness).
        """
        packet.src = self.name
        packet.dst = destination
        self._sent += 1
        try:
            port = self._route_ports[destination]
        except KeyError:
            # Raises on no route, and then memoises nothing.
            port = self._route_ports[destination] = self.port_toward(destination)
        return port.send(packet)
