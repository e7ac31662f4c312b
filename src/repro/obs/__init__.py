"""Engine-level observability: tracing, profiling and run telemetry.

The subsystem threads through the engine and net layers without either
knowing about it:

- :class:`~repro.obs.tracer.Tracer` — dispatch spans from the engine
  hook plus packet-lifecycle hops from queue/port/link/sender
  observers.  Observation-only: traced runs are bit-identical to
  untraced runs, and a detached tracer costs the engine one attribute
  check per event.
- :mod:`~repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) and structured JSONL.
- :class:`~repro.obs.manifest.RunManifest` — per-run provenance
  (config hash shared with the parallel result cache, seed, schema
  versions, event counts, wall time, peak calendar size).
- :mod:`~repro.obs.profile` — per-category wall-time attribution.
- :func:`~repro.obs.harvest.harvest` — a finished run's
  :class:`~repro.obs.registry.MetricsRegistry` (counters, gauges,
  fixed-layout histograms, sim-time rates; Prometheus and JSONL
  exporters), read off the traces after the run.
- :class:`~repro.obs.telemetry.SweepTelemetry` — one sweep's points
  folded into one document; :class:`~repro.obs.dashboard.LiveDashboard`
  renders it for ``repro sweep --live``.

Entry points: ``trace=`` / ``manifest=`` on :func:`repro.scenarios.run`
and :func:`repro.scenarios.sweep`, ``metrics=`` on ``run`` and
``telemetry=`` on ``sweep``, and the ``repro trace`` / ``repro
profile`` CLI verbs.
"""

from repro.obs.dashboard import LiveDashboard
from repro.obs.export import chrome_trace_events, export_chrome_trace, export_jsonl
from repro.obs.harvest import harvest
from repro.obs.manifest import (
    OBS_SCHEMA_VERSION,
    RunManifest,
    build_manifest,
    relativize_artifacts,
    run_id_for,
    write_manifest,
)
from repro.obs.model import HOP_KINDS, CategoryStats, DispatchSpan, PacketHop
from repro.obs.profile import format_profile, profile_rows
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry, Rate
from repro.obs.telemetry import SweepTelemetry
from repro.obs.tracer import Tracer, resolve_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Rate",
    "MetricsRegistry",
    "SweepTelemetry",
    "LiveDashboard",
    "harvest",
    "OBS_SCHEMA_VERSION",
    "HOP_KINDS",
    "Tracer",
    "DispatchSpan",
    "PacketHop",
    "CategoryStats",
    "RunManifest",
    "build_manifest",
    "relativize_artifacts",
    "run_id_for",
    "write_manifest",
    "chrome_trace_events",
    "export_chrome_trace",
    "export_jsonl",
    "format_profile",
    "profile_rows",
    "resolve_tracer",
]
