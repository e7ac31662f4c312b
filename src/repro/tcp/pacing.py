"""A paced window sender — the paper's counterfactual.

Section 3.1 defines a *pacing* congestion control algorithm as one
where packets are "paced out according to some other criteria (such as,
for example, an estimate of the network bottleneck's transmission
rate)", and conjectures that **any nonpaced window-based algorithm**
exhibits clustering and hence ACK-compression.  The contrapositive is
testable: a sender that spaces its transmissions by the bottleneck data
transmission time should neither cluster nor induce ACK-compression.

:class:`PacedWindowSender` is a fixed-window sender whose transmissions
are never closer together than ``pace_interval`` seconds, regardless of
how bunched its ACK arrivals are.  Everything else matches
:class:`~repro.tcp.fixed_window.FixedWindowSender`.
"""

from __future__ import annotations

from repro.engine.event import Event
from repro.engine.fanout import bind_fanout
from repro.engine.simulator import Simulator
from repro.errors import ProtocolError
from repro.net.host import Host
from repro.net.packet import Packet, PacketKind
from repro.tcp.observers import AckObserver, SendObserver
from repro.tcp.options import TcpOptions

__all__ = ["PacedWindowSender"]


class PacedWindowSender:
    """A window-``W`` sender that spaces transmissions by a fixed interval.

    Parameters
    ----------
    pace_interval:
        Minimum spacing between consecutive transmissions, typically the
        bottleneck's data-packet transmission time (the "estimate of the
        network bottleneck's transmission rate" the paper suggests).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        conn_id: int,
        destination: str,
        window: int,
        pace_interval: float,
        options: TcpOptions | None = None,
    ) -> None:
        if window < 1:
            raise ProtocolError(f"window must be >= 1, got {window}")
        if pace_interval <= 0:
            raise ProtocolError(f"pace interval must be positive, got {pace_interval}")
        self._sim = sim
        self._host = host
        self.conn_id = conn_id
        self.destination = destination
        self.window = window
        self.pace_interval = pace_interval
        self.options = options or TcpOptions()

        self.snd_una = 0
        self.snd_nxt = 0
        self.packets_sent = 0
        self.acks_received = 0
        self._started = False
        self._earliest_next_send = 0.0
        self._pump_event: Event | None = None
        self._send_observers: list[SendObserver] = []
        self._ack_observers: list[AckObserver] = []
        self._send_fan: SendObserver | None = None
        self._ack_fan: AckObserver | None = None

    # ------------------------------------------------------------------
    @property
    def packets_out(self) -> int:
        """Packets currently outstanding (always <= window)."""
        return self.snd_nxt - self.snd_una

    @property
    def started(self) -> bool:
        """True once :meth:`start` has run."""
        return self._started

    def on_send(self, observer: SendObserver) -> None:
        """Register ``observer(time, packet)`` per transmitted packet."""
        self._send_observers.append(observer)
        self._send_fan = bind_fanout(self._send_observers)

    def on_ack(self, observer: AckObserver) -> None:
        """Register ``observer(time, packet)`` per arriving ACK."""
        self._ack_observers.append(observer)
        self._ack_fan = bind_fanout(self._ack_observers)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting: the initial window goes out paced, not
        back to back."""
        if self._started:
            raise ProtocolError(f"conn {self.conn_id}: started twice")
        self._started = True
        self._pump()

    def deliver(self, packet: Packet) -> None:
        """Process an arriving ACK (PacketSink interface)."""
        if packet.kind is not PacketKind.ACK:
            raise ProtocolError(f"conn {self.conn_id}: sender got non-ACK {packet!r}")
        self.acks_received += 1
        fan = self._ack_fan
        if fan is not None:
            fan(self._sim.now, packet)
        if packet.ack > self.snd_nxt:
            raise ProtocolError(
                f"conn {self.conn_id}: ACK {packet.ack} beyond snd_nxt {self.snd_nxt}"
            )
        if packet.ack > self.snd_una:
            self.snd_una = packet.ack
            self._pump()

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Send if the window and the pacing clock both allow it."""
        if self.packets_out >= self.window:
            return
        now = self._sim.now
        if now + 1e-12 >= self._earliest_next_send:
            self._transmit()
            # More window available? schedule the next paced slot.
            if self.packets_out < self.window:
                self._schedule_pump(self._earliest_next_send)
        else:
            self._schedule_pump(self._earliest_next_send)

    def _schedule_pump(self, at: float) -> None:
        if self._pump_event is not None and self._pump_event.pending:
            return  # a wake-up is already pending
        self._pump_event = self._sim.schedule_at(
            max(at, self._sim.now), self._on_pump, label=f"conn{self.conn_id}:pace")

    def _on_pump(self) -> None:
        self._pump_event = None
        self._pump()

    def _transmit(self) -> None:
        now = self._sim.now
        packet = Packet(
            conn_id=self.conn_id,
            kind=PacketKind.DATA,
            seq=self.snd_nxt,
            size=self.options.data_packet_bytes,
            created_at=now,
        )
        self.snd_nxt += 1
        self.packets_sent += 1
        self._earliest_next_send = now + self.pace_interval
        fan = self._send_fan
        if fan is not None:
            fan(now, packet)
        self._host.send(packet, self.destination)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PacedWindowSender(conn={self.conn_id}, W={self.window}, "
            f"interval={self.pace_interval}s, out={self.packets_out})"
        )
