"""Packet model.

Packets are the only objects that move through the network.  A packet
carries transport-level fields (connection id, kind, sequence / ack
numbers) plus bookkeeping stamps the instrumentation layer uses to
measure clustering and ACK-compression (enqueue/departure times per hop).

Sizes are in bytes; the paper uses 500-byte data packets and 50-byte
ACKs.  ACK size may be set to zero to model the Section 4.3.3
"zero-length ACK" system used for the synchronization-mode conjecture.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

__all__ = ["PacketKind", "Packet", "reset_packet_uids"]

_packet_uid = itertools.count()


def reset_packet_uids() -> None:
    """Restart uid allocation from zero.

    Called once per scenario build so packet uids are a pure function
    of the run rather than of process history — without this, exported
    traces of back-to-back runs in one process would differ only in
    their uid stamps.  Uids stay unique within any single run because
    the counter is only rewound between builds, never mid-run.
    """
    global _packet_uid
    _packet_uid = itertools.count()


class PacketKind(enum.Enum):
    """Transport packet type."""

    DATA = "data"
    ACK = "ack"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class Packet:
    """A transport segment travelling through the simulated network.

    Attributes
    ----------
    conn_id:
        Identifier of the TCP (or fixed-window) connection.
    kind:
        DATA or ACK.
    seq:
        For DATA: packet sequence number (packets, not bytes — the paper
        measures windows in maximum-size packets).  For ACK: unused (0).
    ack:
        For ACK: the next sequence number expected by the receiver
        (cumulative acknowledgment).  For DATA: unused (0).
    size:
        Bytes on the wire.  May be zero for the idealized zero-length-ACK
        system; links transmit zero-size packets in zero time.
    created_at:
        Virtual time the source generated the packet.
    is_retransmit:
        True when this DATA packet is a retransmission.
    src / dst:
        Host names, filled by the connection layer, used for routing.
    """

    conn_id: int
    kind: PacketKind
    seq: int = 0
    ack: int = 0
    size: int = 0
    created_at: float = 0.0
    is_retransmit: bool = False
    src: str = ""
    dst: str = ""
    uid: int = field(default_factory=lambda: next(_packet_uid))

    @property
    def is_data(self) -> bool:
        """True for DATA packets."""
        return self.kind is PacketKind.DATA

    @property
    def is_ack(self) -> bool:
        """True for ACK packets."""
        return self.kind is PacketKind.ACK

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        which = f"seq={self.seq}" if self.is_data else f"ack={self.ack}"
        retx = " retx" if self.is_retransmit else ""
        return (
            f"Packet(conn={self.conn_id}, {self.kind}, {which}, "
            f"{self.size}B, {self.src}->{self.dst}{retx})"
        )
