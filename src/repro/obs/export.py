"""The exporters: Chrome trace-event JSON, a trace's one format, and the
Prometheus text exposition, a metrics snapshot's one format.

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

:func:`prometheus_text` renders a snapshot
(:func:`~repro.obs.harvest.harvest`) in text exposition format 0.0.4:
``# HELP`` / ``# TYPE`` headers, one sample per line, histogram
``_bucket{le=...}`` series with cumulative counts and a ``+Inf``
terminal bucket, plus ``_sum``/``_count``; a rate row flattens into a
``_total`` counter and ``_peak_per_second``/``_last_per_second`` gauges.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.obs.manifest import RunManifest

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer
    from repro.metrics.trace import TraceSet

__all__ = ["chrome_trace_events", "export_chrome_trace", "prometheus_text",
           "export_prometheus"]

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


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\")
                 .replace("\"", "\\\"")
                 .replace("\n", "\\n"))


def _labels_text(labels: Mapping[str, str],
                 extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [(k, labels[k]) for k in sorted(labels)] + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    # Integral floats print as integers: Prometheus accepts either, and
    # `repro_queue_drops_total 41` reads better than `41.0`.
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(snapshot: Mapping[str, Any]) -> str:
    """Render a metrics snapshot in Prometheus text exposition format.

    Samples are grouped under one ``# TYPE`` header per metric family
    (the format requires it): label variants of the same metric — and
    the counter/gauge series a rate row flattens into — emit together
    regardless of snapshot row order.
    """
    #: family name -> (kind, help, [sample lines]) in first-seen order.
    groups: dict[str, tuple[str, str, list[str]]] = {}

    def sample(family: str, kind: str, help_text: str, line: str) -> None:
        group = groups.get(family)
        if group is None:
            group = (kind, help_text, [])
            groups[family] = group
        group[2].append(line)

    for row in snapshot["metrics"]:
        name = str(row["name"])
        kind = str(row["type"])
        labels = row.get("labels", {})
        help_text = str(row.get("help", ""))
        if kind in ("counter", "gauge"):
            sample(name, kind, help_text,
                   f"{name}{_labels_text(labels)} "
                   f"{_format_value(float(row['value']))}")
        elif kind == "histogram":
            buckets = list(row["buckets"])
            counts = list(row["counts"])
            running = 0.0
            for upper, count in zip(buckets + [float("inf")], counts):
                running += float(count)
                le = _labels_text(labels, (("le", _format_value(float(upper))),))
                sample(name, "histogram", help_text,
                       f"{name}_bucket{le} {_format_value(running)}")
            sample(name, "histogram", help_text,
                   f"{name}_sum{_labels_text(labels)} "
                   f"{_format_value(float(row['sum']))}")
            sample(name, "histogram", help_text,
                   f"{name}_count{_labels_text(labels)} "
                   f"{_format_value(float(row['count']))}")
        elif kind == "rate":
            sample(f"{name}_total", "counter",
                   help_text and f"{help_text} (lifetime total)",
                   f"{name}_total{_labels_text(labels)} "
                   f"{_format_value(float(row['total']))}")
            sample(f"{name}_peak_per_second", "gauge",
                   help_text and f"{help_text} (peak windowed rate)",
                   f"{name}_peak_per_second{_labels_text(labels)} "
                   f"{_format_value(float(row['peak_per_second']))}")
            sample(f"{name}_last_per_second", "gauge",
                   help_text and f"{help_text} (final windowed rate)",
                   f"{name}_last_per_second{_labels_text(labels)} "
                   f"{_format_value(float(row['last_per_second']))}")

    lines: list[str] = []
    for family, (kind, help_text, samples) in groups.items():
        if help_text:
            lines.append(f"# HELP {family} {_escape(help_text)}")
        lines.append(f"# TYPE {family} {kind}")
        lines.extend(samples)
    return "\n".join(lines) + "\n"


def export_prometheus(snapshot: Mapping[str, Any], path: str | Path) -> Path:
    """Write the Prometheus text exposition of ``snapshot`` to ``path``."""
    target = Path(path)
    target.write_text(prometheus_text(snapshot), encoding="utf-8")
    return target
