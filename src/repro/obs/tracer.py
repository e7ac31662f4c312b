"""The hook-based run tracer.

A :class:`Tracer` observes a simulation from two vantage points:

- **the engine** — :meth:`dispatch` is invoked by the
  :class:`~repro.engine.simulator.Simulator` around every executed
  event (sim-time, wall-time, handler category, calendar depth).  With
  no tracer attached the engine pays one attribute check per ``run()``;
  ``benchmarks/perf_gate.py`` guards the disabled path through the
  suite's ``engine.vs_frozen_kernel_pct`` (the frozen kernel has no
  hook at all).
- **the packet path** — :meth:`instrument` registers one sink per
  site on queues, ports, links and transport senders and reads the
  same records the monitors journal, so every enqueue/dequeue/drop/
  transmit/deliver (plus transport-level send/ack) becomes a
  :class:`~repro.obs.model.PacketHop` carrying the buffer occupancy at
  that instant.

Tracing is **observation only**: the tracer never schedules events,
never mutates model state, and draws wall-clock readings exclusively
for reporting, so a traced run is bit-identical to an untraced run
(``tests/obs/test_parity.py`` asserts this over the figures set — the
same parity discipline the runtime sanitizer established).

Example
-------
>>> from repro.obs import Tracer
>>> from repro.scenarios import paper, run
>>> result = run(paper.figure4(), trace=Tracer(window=(200.0, 260.0)))
>>> result.tracer.hop_count > 0
True
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.net.packet import Packet, PacketKind
from repro.net.port import OutputPort
from repro.net.topology import Network
from repro.obs.model import CategoryStats, DispatchSpan, PacketHop, span_category

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.builder import BuiltScenario
    from repro.tcp.connection import Connection

__all__ = ["Tracer", "resolve_tracer"]

#: Hop name per queue record kind (ADMIT, TAKE, REFUSE, EVICT).
_QUEUE_HOPS = ("enqueue", "dequeue", "drop", "drop")
_ACK_KIND = str(PacketKind.ACK)


def resolve_tracer(trace: object) -> "Tracer | None":
    """Normalize the user-facing ``trace=`` argument.

    ``None``/``False`` disable tracing, ``True`` creates a default
    :class:`Tracer`, and a :class:`Tracer` instance is used as-is.
    """
    if trace is None or trace is False:
        return None
    if trace is True:
        return Tracer()
    if isinstance(trace, Tracer):
        return trace
    raise ConfigurationError(
        f"trace must be True, False, None or a Tracer, got {trace!r}")


class Tracer:
    """Records dispatch spans and packet hops for one simulation run.

    Parameters
    ----------
    record_spans:
        Keep every :class:`DispatchSpan` in :attr:`spans`.  Aggregated
        per-category statistics (:meth:`profile`) are maintained either
        way, so the profiler can run span-storage-free over multi-minute
        simulations.
    record_hops:
        Keep every :class:`PacketHop` in :attr:`hops`.
    window:
        Optional ``(start, end)`` sim-time interval; records outside it
        are not *stored* (aggregates still cover the whole run).  Long
        scenarios produce millions of records — a window keeps exported
        traces loadable.
    """

    __slots__ = (
        "record_spans", "record_hops", "window", "hops",
        "peak_calendar", "dispatch",
        "_categories", "_stats_by_label", "_stats_get", "_span_rows",
        "_span_cache", "_instrumented",
    )

    def __init__(
        self,
        *,
        record_spans: bool = False,
        record_hops: bool = True,
        window: tuple[float, float] | None = None,
    ) -> None:
        if window is not None and window[1] < window[0]:
            raise ConfigurationError(
                f"trace window end {window[1]} before start {window[0]}")
        self.record_spans = record_spans
        self.record_hops = record_hops
        self.window = window
        self.hops: list[PacketHop] = []
        self.peak_calendar = 0
        self._categories: dict[str, CategoryStats] = {}
        #: Raw label -> the shared CategoryStats of its category.  Event
        #: labels repeat endlessly (one per timer/port/flow site), so
        #: after the first occurrence a dispatch never re-derives the
        #: category string.
        self._stats_by_label: dict[str, CategoryStats] = {}
        self._stats_get = self._stats_by_label.get
        #: Span storage is columnar: plain tuples appended in dispatch,
        #: materialized into :class:`DispatchSpan` records only when
        #: :attr:`spans` is read (exports, tests) — a tuple append costs
        #: a fraction of a dataclass construction.
        self._span_rows: list[tuple[float, int, str, str, int, int]] = []
        self._span_cache: list[DispatchSpan] | None = None
        self._instrumented = False
        # Bind-once dispatch: the variant is chosen here, not re-checked
        # per event, so the aggregates-only configuration (profiling,
        # `repro profile`) never pays the span-recording branch.
        self.dispatch = (self._dispatch_spans if record_spans
                         else self._dispatch_aggregates)

    # ------------------------------------------------------------------
    # Engine hook
    # ------------------------------------------------------------------
    def _dispatch_aggregates(self, sim_time: float, wall_ns: int, label: str,
                             calendar_size: int, sequence: int) -> None:
        """Record one executed engine event (aggregates only)."""
        if calendar_size > self.peak_calendar:
            self.peak_calendar = calendar_size
        stats = self._stats_get(label)
        if stats is None:
            stats = self._label_stats(label)
        stats.events += 1
        stats.wall_ns += wall_ns
        if wall_ns > stats.max_wall_ns:
            stats.max_wall_ns = wall_ns

    def _dispatch_spans(self, sim_time: float, wall_ns: int, label: str,
                        calendar_size: int, sequence: int) -> None:
        """Record one executed engine event, storing its span row."""
        if calendar_size > self.peak_calendar:
            self.peak_calendar = calendar_size
        stats = self._stats_get(label)
        if stats is None:
            stats = self._label_stats(label)
        stats.events += 1
        stats.wall_ns += wall_ns
        if wall_ns > stats.max_wall_ns:
            stats.max_wall_ns = wall_ns
        window = self.window
        if window is None or window[0] <= sim_time < window[1]:
            self._span_rows.append((sim_time, wall_ns, stats.category,
                                    label, calendar_size, sequence))

    def _label_stats(self, label: str) -> CategoryStats:
        """Slow path of the label cache: first sighting of ``label``."""
        category = span_category(label)
        stats = self._categories.get(category)
        if stats is None:
            stats = self._categories[category] = CategoryStats(category)
        self._stats_by_label[label] = stats
        return stats

    @property
    def spans(self) -> list[DispatchSpan]:
        """The stored dispatch spans (when ``record_spans`` was on).

        Materialized lazily from the columnar row buffer and cached; the
        cache refreshes automatically when more rows have arrived since
        the last read.
        """
        cache = self._span_cache
        rows = self._span_rows
        if cache is None or len(cache) != len(rows):
            cache = self._span_cache = [DispatchSpan(*row) for row in rows]
        return cache

    @property
    def events_observed(self) -> int:
        """Events dispatched past this tracer.

        Derived from the per-category aggregates: the totals the old
        hot path maintained per event are now a fold over at most a
        handful of categories, so dispatch pays nothing for them.
        """
        return sum(stats.events for stats in self._categories.values())

    @property
    def wall_ns_total(self) -> int:
        """Total wall nanoseconds sampled around dispatched callbacks."""
        return sum(stats.wall_ns for stats in self._categories.values())

    # ------------------------------------------------------------------
    # Packet-path hook
    # ------------------------------------------------------------------
    def packet_hop(self, sim_time: float, hop: str, site: str, packet: Packet,
                   queue_len: int = -1, duration: float = 0.0) -> None:
        """Record one packet-lifecycle transition."""
        if not (self.record_hops and self._in_window(sim_time)):
            return
        self.hops.append(PacketHop(
            sim_time=sim_time, hop=hop, site=site, uid=packet.uid,
            conn_id=packet.conn_id, kind=str(packet.kind),
            seq=packet.seq if packet.is_data else packet.ack,
            queue_len=queue_len, duration=duration,
        ))

    def _in_window(self, sim_time: float) -> bool:
        window = self.window
        return window is None or (window[0] <= sim_time < window[1])

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def instrument(self, built: "BuiltScenario") -> "Tracer":
        """Attach to a built scenario: engine, every port, every flow."""
        built.sim.set_tracer(self)
        self.instrument_network(built.net)
        for conn in built.connections:
            self.instrument_connection(conn)
        return self

    def instrument_network(self, net: Network) -> None:
        """Subscribe to packet hops on every port of ``net``.

        Ports are visited in sorted link order so observer lists — and
        therefore trace record order at equal timestamps — never depend
        on construction order.
        """
        for key in sorted(net.links):
            duplex = net.links[key]
            self.instrument_port(duplex.forward)
            self.instrument_port(duplex.reverse)

    def instrument_port(self, port: OutputPort, name: str | None = None) -> None:
        """Subscribe to buffer, transmitter and delivery hops of ``port``."""
        site = name or port.name
        queue = port.queue
        link = port.link
        record = self.packet_hop

        def on_queue(event: tuple) -> None:
            kind, time, packet, queue_len = event
            record(time, _QUEUE_HOPS[kind], site, packet, queue_len)

        def on_transmission(event: tuple) -> None:
            start, packet, duration = event
            record(start, "transmit", site, packet, len(queue), duration)

        def on_deliver(event: tuple) -> None:
            record(event[0], "deliver", link.name, event[1])

        queue.observe(on_queue)
        port.on_transmission(on_transmission)
        link.on_deliver(on_deliver)
        self._instrumented = True

    def instrument_connection(self, conn: "Connection") -> None:
        """Subscribe to transport-level send/ack hops of ``conn``."""
        site = f"conn{conn.conn_id}"
        conn_id = conn.conn_id
        record = self.packet_hop

        def on_send(event: tuple) -> None:
            record(event[0], "send", site, event[1])

        def on_ack(event: tuple) -> None:
            time, ack, uid = event  # all numbers: there is no packet
            if self.record_hops and self._in_window(time):
                self.hops.append(PacketHop(
                    sim_time=time, hop="ack", site=site, uid=uid,
                    conn_id=conn_id, kind=_ACK_KIND, seq=ack,
                    queue_len=-1, duration=0.0))

        conn.sender.on_send(on_send)
        conn.sender.on_ack(on_ack)
        self._instrumented = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def hop_count(self) -> int:
        """Number of packet hops stored."""
        return len(self.hops)

    def profile(self) -> list[CategoryStats]:
        """Per-category aggregates, heaviest wall-time first.

        Ties (and the zero-cost case) break on the category name so the
        ordering is deterministic.
        """
        return sorted(self._categories.values(),
                      key=lambda stats: (-stats.wall_ns, stats.category))

    def categories(self) -> dict[str, CategoryStats]:
        """The per-category aggregates keyed by category name."""
        return dict(self._categories)

    def packet_journey(self, uid: int) -> list[PacketHop]:
        """Every stored hop of packet ``uid``, in simulation order."""
        return [hop for hop in self.hops if hop.uid == uid]

    def hops_at(self, site: str, hop: str | None = None) -> list[PacketHop]:
        """Stored hops at ``site``, optionally filtered by hop kind."""
        return [record for record in self.hops
                if record.site == site and (hop is None or record.hop == hop)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Tracer(events={self.events_observed}, hops={len(self.hops)}, "
                f"spans={len(self.spans)}, peak_calendar={self.peak_calendar})")
