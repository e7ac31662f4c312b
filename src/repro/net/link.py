"""Simplex propagation links.

A :class:`Link` models only the flight of a fully-serialized packet:
after ``propagation`` seconds it hands the packet to the receiving node.
Serialization (bandwidth) lives in :class:`repro.net.port.OutputPort`,
which owns the link, because the transmitter — not the wire — is the
shared resource that queues form behind.

Links are error-free, matching the paper ("all links are modeled as
giving error-free transmission").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.fanout import Sink, bind_fanout
from repro.engine.sanitize import SanitizerError
from repro.engine.simulator import Simulator
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

__all__ = ["Link"]


class Link:
    """One direction of a wire between two nodes.

    When the owning simulator runs in sanitizer mode the link verifies
    packet conservation on every delivery: every packet launched is
    either still propagating or was delivered, exactly once.
    """

    def __init__(self, sim: Simulator, name: str, propagation: float, destination: "Node") -> None:
        if propagation < 0:
            raise ValueError(f"propagation delay must be >= 0, got {propagation}")
        self._sim = sim
        self.name = name
        self.propagation = propagation
        self.destination = destination
        self._in_flight = 0
        self._delivered = 0
        self._carried = 0
        self._strict = sim.strict
        self._deliver_sinks: list[Sink] = []
        self._deliver_fan: Sink | None = None
        # The arrival label is constant per link; building the f-string
        # per carried packet showed up in the dumbbell profile.
        self._arrive_label = f"{name}:arrive"
        # Bound once (the destination is fixed for the life of the
        # link): what the calendar calls per carried packet.  Nothing
        # recalls a packet in flight, so arrivals are posted.
        self._post = sim.post
        self._on_arrive = self._arrive
        self._handle = destination.handle_packet

    @property
    def in_flight(self) -> int:
        """Packets currently propagating along this link."""
        return self._in_flight

    @property
    def delivered(self) -> int:
        """Total packets delivered to the far end."""
        return self._delivered

    @property
    def carried(self) -> int:
        """Total packets ever launched onto this link."""
        return self._carried

    def on_deliver(self, sink: Sink) -> None:
        """Register ``sink(record)`` at each far-end delivery,
        ``record = (now, packet)``.

        Fires just before the destination node handles the packet — the
        hop the tracer records as ``deliver``.
        """
        self._deliver_sinks.append(sink)
        self._deliver_fan = bind_fanout(self._deliver_sinks)

    def carry(self, packet: Packet) -> None:
        """Launch ``packet``; it reaches the destination after the delay."""
        self._in_flight += 1
        self._carried += 1
        self._post(self.propagation, self._on_arrive, packet,
                   label=self._arrive_label)

    def _arrive(self, packet: Packet) -> None:
        self._in_flight -= 1
        self._delivered += 1
        if self._strict and (
                self._in_flight < 0
                or self._carried != self._delivered + self._in_flight):
            raise SanitizerError(
                f"{self.name}: packet conservation violated — carried "
                f"{self._carried} != delivered {self._delivered} + "
                f"in-flight {self._in_flight}"
            )
        fan = self._deliver_fan
        if fan is not None:
            fan((self._sim.now, packet))
        self._handle(packet)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Link({self.name!r}, prop={self.propagation}s -> {self.destination.name!r})"
