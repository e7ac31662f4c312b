"""Random Drop queueing — the alternative gateway discipline of [4,5,10,18].

The paper's related work studies Random Drop gateways: when a packet
arrives at a full buffer, a *uniformly random already-queued packet* is
discarded and the arrival is admitted (drop-from-random rather than
drop-tail).  The intent was to spread losses across connections in
proportion to their buffer occupancy, breaking the pathological loss
patterns drop-tail produces.

:class:`RandomDropQueue` is a drop-in replacement for
:class:`~repro.net.queues.DropTailQueue` (same observer and operation
surface), differing only in the overflow rule.  Randomness comes from a
seeded :class:`~repro.engine.rng.SimRandom` stream so runs stay
reproducible.
"""

from __future__ import annotations

from repro.engine.rng import SimRandom
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue

__all__ = ["RandomDropQueue"]


class RandomDropQueue(DropTailQueue):
    """FIFO service with random-drop overflow."""

    __slots__ = ("_rng",)

    def __init__(self, name: str, capacity: int | None,
                 rng: SimRandom | None = None, *,
                 strict: bool | None = None) -> None:
        super().__init__(name, capacity, rng, strict=strict)
        self._rng = rng if rng is not None else SimRandom(0)

    def offer(self, now: float, packet: Packet) -> bool:
        """Admit ``packet``; on overflow evict a random queued packet.

        Returns ``True`` when the *arriving* packet was admitted (always,
        unless the buffer capacity is zero-like); the victim is reported
        through the drop observers exactly as a drop-tail discard would
        be.
        """
        if not self.is_full:
            return super().offer(now, packet)
        victim_index = int(self._rng.uniform(0, len(self._packets)))
        victim_index = min(victim_index, len(self._packets) - 1)
        self._evict_at(now, victim_index)
        # Admit the arrival into the freed slot.
        self._admit(now, packet)
        return True
