"""Store-and-forward packet switches.

The paper's switches are minimal: FIFO service, drop-tail discard, one
buffer per outgoing line, no processing delay.  A switch simply looks up
the next hop for the packet's destination host and offers the packet to
that output port.
"""

from __future__ import annotations

from repro.engine.simulator import Simulator
from repro.net.node import Node
from repro.net.packet import Packet

__all__ = ["Switch"]


class Switch(Node):
    """A FIFO drop-tail switch with static routes."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._forwarded = 0

    @property
    def forwarded(self) -> int:
        """Packets accepted by an output port so far (drops excluded)."""
        return self._forwarded

    def handle_packet(self, packet: Packet) -> None:
        """Forward an arriving packet toward its destination host."""
        try:
            port = self.ports[self.routes[packet.dst]]
        except KeyError:
            port = self.port_toward(packet.dst)  # raises: no route
        if port.send(packet):
            self._forwarded += 1
