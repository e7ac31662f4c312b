"""Base class for network nodes (switches and hosts).

A node owns a set of :class:`~repro.net.port.OutputPort` objects, one per
attached simplex link, keyed by the neighbor's name, and a static routing
table mapping destination host names to neighbor names.  A node with a
single port reads its table through a view shared with the other nodes
on the same neighbor (:class:`~repro.net.routing.SingleHopRoutes`);
:meth:`Node.add_route` is the one way to change a table.  Packet motion is
push-based: a link calls :meth:`Node.handle_packet` when a packet arrives.
"""

from __future__ import annotations

from typing import Mapping

from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.port import OutputPort

__all__ = ["Node"]


class Node:
    """A network element with named ports and a next-hop routing table."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: dict[str, OutputPort] = {}
        self.routes: Mapping[str, str] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_port(self, neighbor: str, port: OutputPort) -> None:
        """Register the outgoing port toward ``neighbor``."""
        if neighbor in self.ports:
            raise ConfigurationError(f"{self.name}: duplicate port toward {neighbor}")
        self.ports[neighbor] = port

    def add_route(self, destination: str, via: str) -> None:
        """Route packets for host ``destination`` out the port to ``via``."""
        if via not in self.ports:
            raise ConfigurationError(
                f"{self.name}: route to {destination} via unknown neighbor {via}"
            )
        routes = self.routes
        if not isinstance(routes, dict):
            # A shared single-hop view is read-only: write to a copy of
            # it that is this node's alone.
            routes = self.routes = dict(routes)
        routes[destination] = via

    def port_toward(self, destination: str) -> OutputPort:
        """The output port used for packets addressed to ``destination``.

        :meth:`Switch.handle_packet` does this lookup inline and comes
        here only to raise the no-route error; :meth:`Host.send` comes
        here once per destination and keeps the port.
        """
        via = self.routes.get(destination)
        if via is None:
            raise ConfigurationError(f"{self.name}: no route to {destination}")
        return self.ports[via]

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        """Process a packet arriving from a link.  Subclasses override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, ports={sorted(self.ports)})"
