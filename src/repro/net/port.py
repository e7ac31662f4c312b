"""Output ports: the serializing transmitter plus its drop-tail buffer.

An :class:`OutputPort` is where congestion physically happens.  It owns

- a :class:`~repro.net.queues.DropTailQueue` (one per outgoing link, no
  sharing — exactly the paper's switch model), and
- the transmitter, which serializes one packet at a time at the port's
  bandwidth and then hands it to the attached :class:`~repro.net.link.Link`.

Semantics chosen to match the paper's accounting:

- A packet arriving at an *idle* port starts transmitting immediately and
  never appears in the queue; the queue length counts waiting packets
  only.  (The paper: "the ACK signaled the departure of a single packet
  from the queue" — a packet in transmission has left the buffer.)
- Drop-tail applies only to packets that must wait.
- Zero-size packets (the Section 4.3.3 idealized ACKs) serialize in zero
  time.

Transmission observers fire at transmission *start*, which is the
instant a packet irrevocably leaves the buffer; this is the stream the
clustering and ACK-compression analyses consume.
"""

from __future__ import annotations

from repro.engine.fanout import Sink, bind_fanout
from repro.engine.simulator import Simulator
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue

__all__ = ["OutputPort"]


class OutputPort:
    """A bandwidth-limited transmitter feeding a simplex link."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth: float,
        link: Link,
        buffer_packets: int | None,
        queue: DropTailQueue | None = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self._sim = sim
        self.name = name
        self.bandwidth = bandwidth
        self.link = link
        # A custom queue (e.g. RandomDropQueue) may be supplied; it must
        # expose the DropTailQueue surface.  The default queue inherits
        # the simulator's sanitizer setting.
        self.queue = queue if queue is not None else DropTailQueue(
            name=f"{name}:queue", capacity=buffer_packets, strict=sim.strict)
        self._busy = False
        self._transmissions = 0
        self._busy_time = 0.0
        self._sinks: list[Sink] = []
        self._fan: Sink | None = None
        # The txdone label never changes; building the f-string per
        # packet showed up in the dumbbell profile.
        self._txdone_label = f"{name}:txdone"
        # Bound once: the handlers the calendar and the port call per
        # packet, so no bound method or closure is built per event.  A
        # transmission is never revoked, so it is posted, not scheduled.
        self._post = sim.post
        self._finish = self._finish_transmission
        self._carry = link.carry

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self._busy

    @property
    def transmissions(self) -> int:
        """Total packets fully transmitted."""
        return self._transmissions

    @property
    def busy_time(self) -> float:
        """Cumulative seconds spent transmitting (completed transmissions)."""
        return self._busy_time

    def tx_time(self, packet: Packet) -> float:
        """Serialization time for ``packet`` on this port."""
        size = packet.size
        if size <= 0:
            return 0.0
        # Inlined transmission_time(size, self.bandwidth); the operation
        # order (size * 8.0, then divide) must stay bit-identical to it.
        return size * 8.0 / self.bandwidth

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def on_transmission(self, sink: Sink) -> None:
        """Register ``sink(record)`` at each transmission start,
        ``record = (now, packet, duration)``."""
        self._sinks.append(sink)
        self._fan = bind_fanout(self._sinks)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Accept ``packet`` for transmission.

        Returns ``False`` when the buffer was full and the packet was
        discarded (drop-tail), ``True`` otherwise.
        """
        now = self._sim.now
        if not self._busy:
            # Transmitter idle implies the queue is empty; go straight out.
            self._begin_transmission(now, packet)
            return True
        return self.queue.offer(now, packet)

    def _begin_transmission(self, now: float, packet: Packet) -> None:
        self._busy = True
        # tx_time(packet), inlined: a call per hop for one expression.
        size = packet.size
        duration = size * 8.0 / self.bandwidth if size > 0 else 0.0
        fan = self._fan
        if fan is not None:
            fan((now, packet, duration))
        self._post(duration, self._finish, packet, duration,
                   label=self._txdone_label)

    def _finish_transmission(self, packet: Packet, duration: float) -> None:
        self._transmissions += 1
        self._busy_time += duration
        self._carry(packet)
        now = self._sim.now
        nxt = self.queue.take(now)
        if nxt is not None:
            self._begin_transmission(now, nxt)
        else:
            self._busy = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OutputPort({self.name!r}, busy={self._busy}, qlen={len(self.queue)})"
