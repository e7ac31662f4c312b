"""FIFO drop-tail queues.

The paper's switches have one packet buffer per outgoing link, FIFO
service, drop-tail discard ("when the buffer is full and a new packet
arrives, the arriving packet is dropped"), counted in *packets* not
bytes, and no sharing between output lines.  ``capacity=None`` models
the infinite buffers used in the fixed-window experiments (Figures 8-9).

Observers are plain one-argument sinks (:mod:`repro.engine.fanout`) so
the metrics layer can attach without the queue knowing about it.
"""

from __future__ import annotations

from collections import deque
from repro.engine.fanout import Sink, bind_fanout
from repro.engine.rng import SimRandom
from repro.engine.sanitize import SanitizerError, sanitize_enabled
from repro.net.packet import Packet

__all__ = ["DropTailQueue", "ADMIT", "TAKE", "REFUSE", "EVICT"]

#: The ``kind`` of a queue record: an arrival accepted into the buffer,
#: the head packet removed for transmission, an arrival discarded
#: before admission (drop-tail overflow, a RED early discard), a
#: *buffered* packet discarded by an overflow rule (Random Drop).
ADMIT, TAKE, REFUSE, EVICT = range(4)


class DropTailQueue:
    """A FIFO packet queue with drop-tail overflow, measured in packets.

    Parameters
    ----------
    name:
        Diagnostic name (e.g. ``"sw1->bottleneck"``).
    capacity:
        Maximum packets held (the packet in transmission is NOT counted —
        it has left the buffer).  ``None`` means unbounded.
    rng:
        Seeded random stream for disciplines whose overflow/marking rule
        is randomized (Random Drop, RED), which keep it.  Accepted — and
        dropped — by pure drop-tail, which never draws, so every
        discipline registered with
        :func:`~repro.net.disciplines.register_discipline` shares one
        constructor shape ``cls(name, capacity, rng=..., strict=...,
        **params)``.
    strict:
        Enable runtime sanitizer checks (packet conservation, strict
        FIFO service — see :mod:`repro.engine.sanitize`).  ``None``
        (default) defers to the ``REPRO_SANITIZE`` environment variable;
        :class:`~repro.net.port.OutputPort` propagates its simulator's
        setting instead.
    """

    __slots__ = (
        "name", "capacity", "strict", "_packets",
        "_drops", "_enqueues", "_dequeues", "_evictions",
        "_sinks", "_drop_sinks", "_fan",
        "_arrival_counter", "_stamps",
    )

    def __init__(self, name: str, capacity: int | None,
                 rng: SimRandom | None = None, *,
                 strict: bool | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"queue capacity must be >= 1 or None, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.strict = sanitize_enabled() if strict is None else bool(strict)
        self._packets: deque[Packet] = deque()
        self._drops = 0
        self._enqueues = 0
        self._dequeues = 0
        self._evictions = 0
        self._sinks: list[Sink] = []
        self._drop_sinks: list[Sink] = []
        # Bound fan-out target of the admit / take sites (None while
        # nobody observes); rebuilt on registration — see
        # repro.engine.fanout.
        self._fan: Sink | None = None
        # Sanitizer bookkeeping: arrival order stamps, keyed by packet
        # identity.  Entries are overwritten on (re)admission and popped
        # on departure, so id() reuse after eviction cannot alias.
        self._arrival_counter = 0
        self._stamps: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._packets)

    @property
    def drops(self) -> int:
        """Total packets discarded by drop-tail so far."""
        return self._drops

    @property
    def enqueues(self) -> int:
        """Total packets accepted so far."""
        return self._enqueues

    @property
    def dequeues(self) -> int:
        """Total packets removed for transmission so far."""
        return self._dequeues

    @property
    def evictions(self) -> int:
        """Admitted packets later discarded by an overflow rule (Random
        Drop); always zero for pure drop-tail."""
        return self._evictions

    @property
    def is_empty(self) -> bool:
        """True when no packet is buffered."""
        return not self._packets

    @property
    def is_full(self) -> bool:
        """True when the next arrival would be dropped."""
        return self.capacity is not None and len(self._packets) >= self.capacity

    def peek(self) -> Packet | None:
        """The packet at the head, without removing it."""
        return self._packets[0] if self._packets else None

    def snapshot(self) -> list[Packet]:
        """A copy of the buffered packets, head first (for analysis)."""
        return list(self._packets)

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def observe(self, sink: Sink, drops: Sink | None = None) -> None:
        """Register ``sink(record)`` for every admit, take, refuse and
        evict, ``record = (kind, now, packet, qlen)`` with ``qlen`` the
        buffered packets once the operation is done.

        ``drops``, when given, receives this observer's refuse and evict
        records in place of ``sink``: discards are a few percent of
        packets, so a consumer that has to react to them at once can
        take a Python frame there and still leave a C-level sink on the
        two sites every queued packet crosses.
        """
        self._sinks.append(sink)
        self._drop_sinks.append(sink if drops is None else drops)
        self._fan = bind_fanout(self._sinks)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def offer(self, now: float, packet: Packet) -> bool:
        """Enqueue ``packet`` unless the buffer is full.

        Returns ``True`` if accepted, ``False`` if dropped (drop-tail).
        """
        capacity = self.capacity
        if capacity is not None and len(self._packets) >= capacity:  # = is_full
            return self._discard(REFUSE, now, packet)
        self._admit(now, packet)
        return True

    def _discard(self, kind: int, now: float, packet: Packet) -> bool:
        """Count a ``REFUSE`` or ``EVICT`` and report it; always ``False``
        (what ``offer`` returns for an arrival it did not admit)."""
        self._drops += 1
        record = (kind, now, packet, len(self._packets))
        for sink in self._drop_sinks:
            sink(record)
        return False

    def _admit(self, now: float, packet: Packet) -> None:
        """Append an accepted packet and fire the admission observers.

        Shared by every overflow discipline (drop-tail here, Random Drop
        in the subclass) so the sanitizer's arrival stamps and counters
        stay consistent whichever rule admitted the packet.
        """
        if self.strict:
            self._arrival_counter += 1
            self._stamps[id(packet)] = self._arrival_counter
        self._packets.append(packet)
        self._enqueues += 1
        fan = self._fan
        if fan is not None:
            fan((ADMIT, now, packet, len(self._packets)))
        if self.strict:
            self._check_conservation()

    def _evict_at(self, now: float, index: int) -> Packet:
        """Remove the buffered packet at ``index`` as an overflow victim.

        Counts as a drop (the victim is reported to the drop observers)
        and as an eviction for the conservation ledger — unlike a
        drop-tail discard, the victim *had* been admitted.
        """
        victim = self._packets[index]
        del self._packets[index]
        self._evictions += 1
        if self.strict:
            self._stamps.pop(id(victim), None)
        self._discard(EVICT, now, victim)
        return victim

    def take(self, now: float) -> Packet | None:
        """Remove and return the head packet, or ``None`` when empty."""
        if not self._packets:
            return None
        packet = self._packets.popleft()
        self._dequeues += 1
        if self.strict:
            self._check_fifo(packet)
            self._check_conservation()
        fan = self._fan
        if fan is not None:
            fan((TAKE, now, packet, len(self._packets)))
        return packet

    # ------------------------------------------------------------------
    # Sanitizer invariants (strict mode only)
    # ------------------------------------------------------------------
    def _check_fifo(self, taken: Packet) -> None:
        """The departing packet must predate every packet left buffered."""
        stamp = self._stamps.pop(id(taken), None)
        if stamp is None:
            raise SanitizerError(
                f"{self.name}: packet {taken!r} left the queue without an "
                "arrival stamp (admitted outside offer/_admit?)"
            )
        for remaining in self._packets:
            other = self._stamps.get(id(remaining))
            if other is not None and other < stamp:
                raise SanitizerError(
                    f"{self.name}: FIFO violation — served arrival #{stamp} "
                    f"while arrival #{other} ({remaining!r}) still waits"
                )

    def _check_conservation(self) -> None:
        """Admitted packets are buffered, served, or evicted — never lost."""
        buffered = len(self._packets)
        if self._enqueues - self._dequeues - self._evictions != buffered:
            raise SanitizerError(
                f"{self.name}: packet conservation violated — "
                f"{self._enqueues} admitted != {self._dequeues} served + "
                f"{self._evictions} evicted + {buffered} buffered"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"DropTailQueue({self.name!r}, {len(self)}/{cap}, drops={self._drops})"
