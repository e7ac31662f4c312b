"""Shared observer callback signatures for transport senders.

The sender exposes per-send, per-ACK, per-cwnd-adjustment and
per-loss-detection hooks, and the metrics and obs layers attach to
them uniformly.  The signatures live here, in one place, so
:mod:`repro.tcp.sender` and anything else growing a hook cannot drift
apart.
"""

from __future__ import annotations

from typing import Callable

from repro.net.packet import Packet

__all__ = ["CwndObserver", "LossObserver", "SendObserver", "AckObserver",
           "RttSampleObserver"]

#: ``observer(time, cwnd, ssthresh)`` — fires on every congestion-window
#: adjustment of an adaptive sender.
CwndObserver = Callable[[float, float, float], None]

#: ``observer(time, trigger, seq)`` — fires when a sender detects a
#: loss; ``trigger`` is ``"dupack"`` or ``"timeout"``.
LossObserver = Callable[[float, str, int], None]

#: ``observer(time, packet)`` — fires per transmitted data packet.
SendObserver = Callable[[float, Packet], None]

#: ``observer(time, packet)`` — fires per ACK arriving at the sender.
AckObserver = Callable[[float, Packet], None]

#: ``observer(time, rtt_seconds)`` — fires per accepted round-trip-time
#: measurement (Karn-filtered: retransmitted segments never produce one).
RttSampleObserver = Callable[[float, float], None]
