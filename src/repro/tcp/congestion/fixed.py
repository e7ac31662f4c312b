"""Fixed-window sliding flow control (no congestion adaptation).

Sections 4.2-4.3.3 of the paper disentangle ACK-compression and the
synchronization modes from the Tahoe algorithm by running connections
whose window is *held constant*, over switches with infinite buffers.
The strategy keeps exactly ``window`` packets outstanding, transmitting
a new packet immediately on each ACK (nonpaced), and never adjusts
anything.

``reliable = False``: these experiments use infinite buffers and
error-free links, so nothing is ever lost and the transport runs no
retransmission machinery for the flow.  If a packet *is* dropped (a
misconfigured scenario), the connection stalls with the full window
outstanding and no ACKs arriving, rather than hiding the loss.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ProtocolError
from repro.tcp.congestion.base import CongestionControl

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcp.sender import Sender

__all__ = ["FixedWindowControl"]


class FixedWindowControl(CongestionControl):
    """A constant window-``W`` policy with no loss reaction."""

    __slots__ = ("window",)

    reliable = False
    adaptive = False

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ProtocolError(f"fixed window must be >= 1, got {window}")
        self.window = int(window)

    def attach(self, t: "Sender") -> None:
        # Mirror the window into transport state so introspection tools
        # see a truthful cwnd; usable_window is the authoritative limit.
        t.cwnd = float(self.window)

    def usable_window(self, t: "Sender") -> int:
        return self.window
