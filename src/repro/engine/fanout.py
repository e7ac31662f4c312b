"""Bind-once observer fan-out.

Every hot object in the tree (senders, queues, ports, links, hosts,
receivers) exposes registration hooks, but in a typical run most hooks
have **zero** observers — and per-event ``for observer in
self._x_observers:`` loops still pay an attribute load and an iterator
per event.  :func:`bind_fanout` collapses an observer list into a
single dispatch target *at registration time*:

- no observers → ``None`` (the caller's per-event cost is one ``is not
  None`` test on a slot it already holds);
- one observer → the observer itself, called directly (the common
  instrumented case: one metrics monitor per hook);
- many → a closure over a frozen tuple.

The calling convention at every fan-out site is **one record to a
one-argument sink**: the site builds one positional tuple and hands it
over, ::

    fan = self._fan
    if fan is not None:
        fan((ADMIT, now, packet, len(self._packets)))

so a consumer that only wants the observation kept registers a C-level
sink — a list's ``append``, or an ``array('d')``'s ``extend`` where the
record is all numbers — and the site enters no Python frame; what the
record means is worked out on read (:mod:`repro.metrics.journal`).  A
consumer that must react at once registers a Python callable and
unpacks the same tuple.  Each site documents its record at its
registration method; there is one channel per site.

Registration rebinds the fan, so attach order and fire order still
match list order.  Detachment is not supported anywhere in the tree
(observers live as long as their subject); if it ever is, rebinding on
removal keeps the contract.
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["Sink", "bind_fanout"]

#: What a fan-out site calls: one argument, the site's record tuple.
Sink = Callable[[tuple], object]


def bind_fanout(sinks: Sequence[Sink]) -> Sink | None:
    """Collapse ``sinks`` into one callable, or ``None`` when empty.

    The snapshot is taken now, so callers must rebind after mutating
    the list.
    """
    if not sinks:
        return None
    if len(sinks) == 1:
        return sinks[0]
    bound = tuple(sinks)

    def fan(record: tuple) -> None:
        for sink in bound:
            sink(record)

    return fan
