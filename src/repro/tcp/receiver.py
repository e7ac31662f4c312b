"""The TCP receiver: cumulative ACK generation, with the delayed-ACK option.

With the option *off* (the paper's default), every arriving data packet
immediately triggers one ACK carrying the next expected sequence number.
Out-of-order arrivals are buffered (BSD caches out-of-order segments) and
acknowledged immediately — these are the duplicate ACKs that drive Tahoe
fast retransmit.

With the option *on* (Section 5), the receiver holds the ACK for the
first in-order packet until either a second data packet arrives (two
ACKs combined into one) or a conservative timer expires.  Piggybacking
on reverse-direction data does not arise here because each simulated
connection is unidirectional (two-way traffic is modeled as two opposite
connections, as in the paper).
"""

from __future__ import annotations

from repro.engine.simulator import Simulator
from repro.engine.timer import OneShotTimer
from repro.errors import ProtocolError
from repro.net.host import Host
from repro.net.packet import Packet, PacketKind
from repro.tcp.options import TcpOptions

__all__ = ["TcpReceiver"]


class TcpReceiver:
    """Receiving endpoint of one TCP connection."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        conn_id: int,
        destination: str,
        options: TcpOptions | None = None,
    ) -> None:
        self._sim = sim
        self._host = host
        self.conn_id = conn_id
        self.destination = destination  # where ACKs go (the sender's host)
        self.options = options or TcpOptions()

        self.rcv_nxt = 0  # next expected sequence number
        self._out_of_order: set[int] = set()
        self._ack_pending = False
        self._delack_timer = OneShotTimer(
            sim, self._on_delack_timeout, label=f"conn{conn_id}:delack"
        )

        self.packets_received = 0
        self.duplicates_received = 0
        self.out_of_order_received = 0
        self.acks_sent = 0
        self.delayed_ack_fires = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def reassembly_queue(self) -> list[int]:
        """Sequence numbers buffered out of order (sorted, for tests)."""
        return sorted(self._out_of_order)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        """Process an arriving DATA packet (PacketSink interface)."""
        if packet.kind is not PacketKind.DATA:
            raise ProtocolError(f"conn {self.conn_id}: receiver got non-data {packet!r}")
        self.packets_received += 1

        seq = packet.seq
        if seq == self.rcv_nxt:
            self.rcv_nxt += 1
            # Drain any contiguous run that was cached out of order.
            while self.rcv_nxt in self._out_of_order:
                self._out_of_order.discard(self.rcv_nxt)
                self.rcv_nxt += 1
            self._ack_in_order()
        elif seq > self.rcv_nxt:
            self.out_of_order_received += 1
            self._out_of_order.add(seq)
            self._ack_now()  # immediate duplicate ACK, even with delack on
        else:
            self.duplicates_received += 1
            self._ack_now()  # re-ACK below-window data immediately

    # ------------------------------------------------------------------
    # ACK generation
    # ------------------------------------------------------------------
    def _ack_in_order(self) -> None:
        if not self.options.delayed_ack:
            self._ack_now()
            return
        if self._ack_pending:
            # Second in-order packet: send one combined ACK now.
            self._ack_now()
        else:
            self._ack_pending = True
            self._delack_timer.start(self.options.delayed_ack_timeout)

    def _on_delack_timeout(self) -> None:
        if self._ack_pending:
            self.delayed_ack_fires += 1
            self._ack_now()

    def _ack_now(self) -> None:
        self._ack_pending = False
        self._delack_timer.cancel()
        ack = Packet(
            conn_id=self.conn_id,
            kind=PacketKind.ACK,
            ack=self.rcv_nxt,
            size=self.options.ack_packet_bytes,
            created_at=self._sim.now,
        )
        self.acks_sent += 1
        self._host.send(ack, self.destination)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TcpReceiver(conn={self.conn_id}, rcv_nxt={self.rcv_nxt}, "
            f"ooo={len(self._out_of_order)})"
        )
