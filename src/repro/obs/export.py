"""The trace exporter: Chrome trace-event JSON, a trace's one format.

:func:`export_chrome_trace` writes the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by Perfetto and ``chrome://tracing``.  The simulation timeline
is laid out in *sim-time* microseconds: one thread track per output port
(transmission slices with their ``dur``, drop instants) and per
connection (send/ack instants), plus counter tracks for queue occupancy
and — when a :class:`~repro.metrics.trace.TraceSet` is supplied —
per-flow cwnd.  Every hop's ``uid`` / ``conn`` / ``kind`` / ``seq`` ride
in its event's ``args``, dispatch spans are ``X`` slices carrying
``label`` / ``calendar`` / ``seq``, and the run's manifest is the
document's ``otherData``.  The square-wave queue oscillation of the
paper's Figures 4/5 and the ACK bursts of a compression episode are
directly visible.

The exporter only *reads* tracer state; it can run any number of times
on the same tracer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.manifest import RunManifest

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer
    from repro.metrics.trace import TraceSet

__all__ = ["chrome_trace_events", "export_chrome_trace"]

# Process ids of the three Chrome-trace tracks.
_PID_PORTS = 1
_PID_CONNS = 2
_PID_ENGINE = 3

#: Hop kinds drawn as instants on a port/connection thread track.
_INSTANT_HOPS = {"drop", "deliver", "send", "ack", "enqueue", "dequeue"}


def _us(seconds: float) -> float:
    """Sim-time seconds -> trace-event microseconds."""
    return seconds * 1e6


def chrome_trace_events(tracer: "Tracer", traces: "TraceSet | None" = None,
                        window: tuple[float, float] | None = None) -> list[dict]:
    """The ``traceEvents`` array for one traced run.

    ``traces`` optionally contributes cwnd counter tracks from the
    domain-level monitors; ``window`` restricts the TraceSet-derived
    counters to an interval (hop records are already windowed by the
    tracer itself).
    """
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": _PID_PORTS,
         "args": {"name": "ports"}},
        {"name": "process_name", "ph": "M", "pid": _PID_CONNS,
         "args": {"name": "connections"}},
    ]

    # Stable thread ids: sites in first-appearance order of the hop
    # stream, which is deterministic because the hop stream is.
    port_tids: dict[str, int] = {}
    conn_tids: dict[int, int] = {}

    def port_tid(site: str) -> int:
        tid = port_tids.get(site)
        if tid is None:
            tid = port_tids[site] = len(port_tids) + 1
            events.append({"name": "thread_name", "ph": "M", "pid": _PID_PORTS,
                           "tid": tid, "args": {"name": site}})
        return tid

    def conn_tid(conn_id: int) -> int:
        tid = conn_tids.get(conn_id)
        if tid is None:
            tid = conn_tids[conn_id] = conn_id
            events.append({"name": "thread_name", "ph": "M", "pid": _PID_CONNS,
                           "tid": tid, "args": {"name": f"conn{conn_id}"}})
        return tid

    for hop in tracer.hops:
        ts = _us(hop.sim_time)
        args = {"uid": hop.uid, "conn": hop.conn_id, "kind": hop.kind,
                "seq": hop.seq}
        if hop.hop in ("send", "ack"):
            events.append({
                "name": hop.hop, "ph": "i", "s": "t",
                "pid": _PID_CONNS, "tid": conn_tid(hop.conn_id),
                "ts": ts, "args": args,
            })
            continue
        tid = port_tid(hop.site)
        if hop.hop == "transmit":
            events.append({
                "name": f"tx conn{hop.conn_id} {hop.kind}", "ph": "X",
                "pid": _PID_PORTS, "tid": tid,
                "ts": ts, "dur": _us(hop.duration), "args": args,
            })
        elif hop.hop in _INSTANT_HOPS:
            events.append({
                "name": hop.hop, "ph": "i", "s": "t",
                "pid": _PID_PORTS, "tid": tid, "ts": ts, "args": args,
            })
        if hop.queue_len >= 0:
            events.append({
                "name": f"{hop.site} queue", "ph": "C", "pid": _PID_PORTS,
                "ts": ts, "args": {"packets": hop.queue_len},
            })

    if tracer.spans:
        events.append({"name": "process_name", "ph": "M", "pid": _PID_ENGINE,
                       "args": {"name": "engine"}})
        events.append({"name": "thread_name", "ph": "M", "pid": _PID_ENGINE,
                       "tid": 1, "args": {"name": "dispatch"}})
        for span in tracer.spans:
            # Placed at sim-time; the slice length shows wall cost, so
            # hot handlers are visually dense where the run was slow.
            events.append({
                "name": span.category, "ph": "X", "pid": _PID_ENGINE, "tid": 1,
                "ts": _us(span.sim_time), "dur": span.wall_ns / 1e3,
                "args": {"label": span.label, "calendar": span.calendar_size,
                         "seq": span.sequence},
            })

    if traces is not None:
        for conn_id in sorted(traces.cwnds):
            series = traces.cwnds[conn_id].cwnd
            for time, value in series:
                if window is not None and not (window[0] <= time < window[1]):
                    continue
                events.append({
                    "name": f"conn{conn_id} cwnd", "ph": "C", "pid": _PID_CONNS,
                    "ts": _us(time), "args": {"cwnd": value},
                })
    return events


def export_chrome_trace(
    tracer: "Tracer",
    path: str | Path,
    *,
    traces: "TraceSet | None" = None,
    manifest: RunManifest | None = None,
) -> Path:
    """Write a Chrome trace-event JSON file; returns the path."""
    document = {
        "traceEvents": chrome_trace_events(tracer, traces=traces,
                                           window=tracer.window),
        "displayTimeUnit": "ms",
    }
    if manifest is not None:
        document["otherData"] = manifest.to_dict()
    target = Path(path)
    with target.open("w") as handle:
        json.dump(document, handle, separators=(",", ":"))
    return target

