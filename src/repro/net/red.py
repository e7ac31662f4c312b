"""Random Early Detection (RED) — the Floyd/Jacobson AQM discipline.

RED keeps an exponentially weighted moving average of the queue length
and probabilistically discards *arriving* packets before the buffer is
physically full, so that congestion is signalled early and losses are
spread across connections instead of synchronizing them (the drop-tail
pathology the McDonald/Reynier mean-field literature starts from).

The marking model follows the 1993 paper:

- On every arrival the average is updated, ``avg += wq * (q - avg)``,
  where ``q`` is the instantaneous backlog.  While the queue sits empty
  the average decays geometrically, ``avg *= (1 - wq)**m``, with ``m``
  the idle time expressed in packet-transmission units
  (``idle_pkt_time``; ``0`` disables idle decay, which keeps the model
  independent of link speed).
- ``avg < min_th``: always admit (and reset the inter-drop counter).
- ``min_th <= avg < max_th``: discard with probability
  ``p_a = p_b / (1 - count * p_b)`` where
  ``p_b = max_p * (avg - min_th) / (max_th - min_th)`` and ``count``
  packets were admitted since the last discard — this spreads discards
  roughly uniformly instead of in bursts.
- ``avg >= max_th``: always discard.

A physical overflow (backlog at ``capacity``) still behaves exactly like
drop-tail.  There is no ECN here: a "mark" is a drop of the arriving
packet, which is therefore never admitted — the conservation ledger of
the base class is untouched.  All randomness comes from the injected
seeded :class:`~repro.engine.rng.SimRandom` stream, so runs stay
bit-reproducible.
"""

from __future__ import annotations

from repro.engine.rng import SimRandom
from repro.net.packet import Packet
from repro.net.queues import REFUSE, DropTailQueue

__all__ = ["RedQueue"]


class RedQueue(DropTailQueue):
    """FIFO service with RED early-discard on arrival.

    Parameters
    ----------
    min_th, max_th:
        Average-queue thresholds (packets): no early discards below
        ``min_th``, certain discard at or above ``max_th``.  Requires
        ``0 <= min_th < max_th``.
    max_p:
        Discard probability as the average reaches ``max_th``
        (``0 < max_p <= 1``).
    wq:
        EWMA weight for the average-queue estimator (``0 < wq <= 1``).
    idle_pkt_time:
        Seconds per packet used to decay the average across idle
        periods; ``0`` (default) disables idle decay.
    """

    __slots__ = ("_rng", "_min_th", "_max_th", "_max_p", "_wq",
                 "_idle_pkt_time", "_avg", "_count", "_idle_since")

    def __init__(self, name: str, capacity: int | None,
                 rng: SimRandom | None = None, *,
                 strict: bool | None = None,
                 min_th: float = 5.0, max_th: float = 15.0,
                 max_p: float = 0.02, wq: float = 0.002,
                 idle_pkt_time: float = 0.0) -> None:
        super().__init__(name, capacity, rng, strict=strict)
        self._rng = rng if rng is not None else SimRandom(0)
        min_th = float(min_th)
        max_th = float(max_th)
        max_p = float(max_p)
        wq = float(wq)
        idle_pkt_time = float(idle_pkt_time)
        if not 0.0 <= min_th < max_th:
            raise ValueError(
                f"RED thresholds need 0 <= min_th < max_th, "
                f"got min_th={min_th}, max_th={max_th}")
        if not 0.0 < max_p <= 1.0:
            raise ValueError(f"RED max_p must be in (0, 1], got {max_p}")
        if not 0.0 < wq <= 1.0:
            raise ValueError(f"RED wq must be in (0, 1], got {wq}")
        if idle_pkt_time < 0.0:
            raise ValueError(
                f"RED idle_pkt_time must be >= 0, got {idle_pkt_time}")
        self._min_th = min_th
        self._max_th = max_th
        self._max_p = max_p
        self._wq = wq
        self._idle_pkt_time = idle_pkt_time
        self._avg = 0.0
        self._count = -1  # packets admitted since the last early discard
        self._idle_since: float | None = None

    @property
    def avg_queue(self) -> float:
        """The current EWMA average queue length (packets)."""
        return self._avg

    def offer(self, now: float, packet: Packet) -> bool:
        """Admit ``packet`` unless RED discards it or the buffer is full."""
        backlog = len(self._packets)
        if backlog == 0 and self._idle_since is not None:
            if self._idle_pkt_time > 0.0:
                idle_packets = (now - self._idle_since) / self._idle_pkt_time
                if idle_packets > 0.0:
                    self._avg *= (1.0 - self._wq) ** idle_packets
            self._idle_since = None
        self._avg += self._wq * (backlog - self._avg)
        if self.is_full:
            # Physical overflow: plain drop-tail, also resets the
            # inter-drop counter (a loss was just signalled).
            self._count = 0
            return super().offer(now, packet)
        if self._avg >= self._max_th:
            self._count = 0
            return self._discard(REFUSE, now, packet)
        if self._avg >= self._min_th:
            self._count += 1
            p_b = self._max_p * (self._avg - self._min_th) / (
                self._max_th - self._min_th)
            denom = 1.0 - self._count * p_b
            p_a = 1.0 if denom <= 0.0 else p_b / denom
            if self._rng.uniform(0.0, 1.0) < p_a:
                self._count = 0
                return self._discard(REFUSE, now, packet)
        else:
            self._count = -1
        self._admit(now, packet)
        return True

    def take(self, now: float) -> Packet | None:
        packet = super().take(now)
        if packet is not None and not self._packets:
            self._idle_since = now
        return packet
