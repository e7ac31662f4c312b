"""A frozen, stdlib-only mini packet simulation: the machine-speed yardstick.

The sandbox's host speed drifts by 15-50 % over seconds to minutes
(measured: the same scenario pass took 1.14x to 1.72x its best time
across 20 s windows).  No amount of repetition inside one run removes a
drift slower than the run, so every timed unit is bracketed by passes
of this kernel (``harness.Machine``) and its wall time is expressed in
*reference seconds*: ``wall * NOMINAL_PASS_S / (mean wall of the two
brackets)``.  On the probe that fixed this design the spread between
20 s windows fell from 7.8 % (raw) to 2.1 % (normalised).

The kernel imitates what the program's inner loop does — a heap of
event objects, closures as callbacks, deque queues, per-packet objects,
timer cancel/re-arm — because a yardstick only tracks the drift if it
stresses the interpreter the same way (a bare arithmetic loop tracked
it half as well).  It imports nothing from ``repro`` and must never be
edited to follow the program: its whole value is that it does not
change when the program does.
"""

from __future__ import annotations

import heapq
from collections import deque

#: Wall seconds of one :func:`reference_pass` on the 2-core 2.1 GHz box
#: the suite was recorded on, at its typical speed.  Only a scale: it
#: makes a reference second about one wall second there.
NOMINAL_PASS_S = 0.0156


class _Event:
    __slots__ = ("when", "seq", "callback", "cancelled")

    def __init__(self, when, seq, callback):
        self.when = when
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def __lt__(self, other):
        return (self.when, self.seq) < (other.when, other.seq)


class _Calendar:
    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.events = 0

    def schedule(self, delay, callback):
        self.seq += 1
        event = _Event(self.now + delay, self.seq, callback)
        heapq.heappush(self.heap, event)
        return event

    def run(self, max_events):
        heap = self.heap
        pop = heapq.heappop
        while heap and self.events < max_events:
            event = pop(heap)
            if event.cancelled:
                continue
            self.now = event.when
            self.events += 1
            event.callback()


class _Packet:
    __slots__ = ("flow", "seq", "size")

    def __init__(self, flow, seq, size):
        self.flow = flow
        self.seq = seq
        self.size = size


class _Port:
    def __init__(self, calendar, rate, delay, sink, capacity):
        self.calendar = calendar
        self.rate = rate
        self.delay = delay
        self.sink = sink
        self.capacity = capacity
        self.queue = deque()
        self.busy = False
        self.drops = 0

    def enqueue(self, packet):
        if len(self.queue) >= self.capacity:
            self.drops += 1
            return
        self.queue.append(packet)
        if not self.busy:
            self._start()

    def _start(self):
        packet = self.queue.popleft()
        self.busy = True
        self.calendar.schedule(packet.size / self.rate,
                               lambda: self._done(packet))

    def _done(self, packet):
        self.busy = False
        self.calendar.schedule(self.delay, lambda: self.sink(packet))
        if self.queue:
            self._start()


class _Flow:
    def __init__(self, calendar, ident, port, window):
        self.calendar = calendar
        self.ident = ident
        self.port = port
        self.window = window
        self.next = 0
        self.acked = 0
        self.timer = None

    def start(self):
        self._fill()

    def _fill(self):
        while self.next - self.acked < self.window:
            self.port.enqueue(_Packet(self.ident, self.next, 500.0))
            self.next += 1
        if self.timer is not None:
            self.timer.cancelled = True
        self.timer = self.calendar.schedule(5.0, self._timeout)

    def _timeout(self):
        self.acked = self.next
        self._fill()

    def ack(self, packet):
        if packet.seq >= self.acked:
            self.acked = packet.seq + 1
        self._fill()


def reference_pass(flows: int = 64, max_events: int = 4_000) -> tuple[int, int]:
    """Run the fixed mini simulation; returns ``(events, drops)``."""
    calendar = _Calendar()
    senders = {}

    def sink(packet):
        senders[packet.flow].ack(packet)

    port = _Port(calendar, 50_000.0, 0.01, sink, 40)
    for ident in range(flows):
        senders[ident] = _Flow(calendar, ident, port, 4)
        calendar.schedule(0.001 * ident, senders[ident].start)
    calendar.run(max_events)
    return calendar.events, port.drops
