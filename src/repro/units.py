"""Unit helpers and the paper's canonical parameter values.

All internal quantities are SI: seconds, bits per second, bytes.  The
helpers here exist so scenario code reads like the paper ("50 Kbps
bottleneck, 500 byte packets") instead of bare numbers.

The constants mirror Section 2.2 of Zhang, Shenker & Clark (1991).
"""

from __future__ import annotations

__all__ = [
    "kbps",
    "mbps",
    "bytes_to_bits",
    "transmission_time",
    "pipe_size",
    "BOTTLENECK_BANDWIDTH",
    "ACCESS_BANDWIDTH",
    "ACCESS_PROPAGATION",
    "DATA_PACKET_BYTES",
    "ACK_PACKET_BYTES",
    "HOST_PROCESSING_DELAY",
    "SMALL_PIPE_PROPAGATION",
    "LARGE_PIPE_PROPAGATION",
    "DEFAULT_BUFFER_PACKETS",
    "DEFAULT_MAXWND",
]


def kbps(value: float) -> float:
    """Kilobits per second → bits per second (decimal kilo, as in the paper)."""
    return value * 1_000.0


def mbps(value: float) -> float:
    """Megabits per second → bits per second."""
    return value * 1_000_000.0


def bytes_to_bits(nbytes: float) -> float:
    """Bytes → bits."""
    return nbytes * 8.0


def transmission_time(nbytes: float, bandwidth_bps: float) -> float:
    """Seconds to serialize ``nbytes`` onto a link of ``bandwidth_bps``."""
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
    return bytes_to_bits(nbytes) / bandwidth_bps


def pipe_size(bandwidth_bps: float, propagation_s: float, packet_bytes: float) -> float:
    """The paper's pipe size P = mu * tau / M, in packets.

    This is the number of data packets in flight in one direction along
    the bottleneck link.
    """
    if packet_bytes <= 0:
        raise ValueError(f"packet size must be positive, got {packet_bytes}")
    return bandwidth_bps * propagation_s / bytes_to_bits(packet_bytes)


# --- Canonical parameters from Section 2.2 of the paper -----------------
BOTTLENECK_BANDWIDTH = kbps(50)  # mu = 50 Kbps
ACCESS_BANDWIDTH = mbps(10)  # host <-> switch links
ACCESS_PROPAGATION = 0.1e-3  # 0.1 msec
DATA_PACKET_BYTES = 500
ACK_PACKET_BYTES = 50
HOST_PROCESSING_DELAY = 0.1e-3  # 0.1 msec per data or ACK packet
SMALL_PIPE_PROPAGATION = 0.01  # tau = 0.01 s  (P = 0.125 packets)
LARGE_PIPE_PROPAGATION = 1.0  # tau = 1 s     (P = 12.5 packets)
DEFAULT_BUFFER_PACKETS = 20
DEFAULT_MAXWND = 1000
