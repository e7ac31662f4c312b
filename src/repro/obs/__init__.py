"""Engine-level observability: tracing, profiling and run metrics.

The subsystem threads through the engine and net layers without either
knowing about it:

- :class:`~repro.obs.tracer.Tracer` — dispatch spans from the engine
  hook plus packet-lifecycle hops from queue/port/link/sender
  observers.  Observation-only: traced runs are bit-identical to
  untraced runs, and a detached tracer costs the engine one attribute
  check per event.
- :mod:`~repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``), a trace's one format, and the Prometheus text
  exposition, a metrics snapshot's one format.
- :class:`~repro.obs.manifest.RunManifest` — per-run provenance
  (config hash shared with the parallel result cache, seed, schema
  versions, event counts, wall time, peak calendar size).
- :mod:`~repro.obs.profile` — per-category wall-time attribution.
- :func:`~repro.obs.harvest.harvest` — a finished run's metrics
  snapshot, the sorted ``{"metrics": [row, ...]}`` document (counter,
  gauge, fixed-layout histogram and sim-time rate rows), read off the
  traces after the run.

Entry points: ``trace=`` / ``metrics=`` on :func:`repro.scenarios.run`,
:func:`~repro.obs.manifest.build_manifest` over a finished run,
``manifest=`` on :func:`repro.scenarios.sweep`, and the
``repro trace`` / ``repro profile`` / ``repro metrics`` CLI verbs.  A
sweep is observed through its :class:`~repro.parallel.progress.PointProgress`
stream, its per-point manifests and its resilience report.
"""

from repro.obs.export import chrome_trace_events, export_chrome_trace
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
from repro.obs.profile import format_profile
from repro.obs.tracer import Tracer, resolve_tracer

__all__ = [
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
    "format_profile",
    "resolve_tracer",
]
