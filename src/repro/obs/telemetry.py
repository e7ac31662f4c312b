"""Sweep-level telemetry: aggregate per-point registries into one document.

A :class:`SweepTelemetry` rides along a
:class:`~repro.parallel.runner.ParallelSweepRunner` execution
(``telemetry=`` on :func:`repro.scenarios.sweep` /
``repro sweep --telemetry``).  It keeps no tally the sweep already
keeps: the sweep's ledger binds it once to the books every point
crosses, and it reads them whenever it is asked —

- **the resilience report** — points settled live, from the cache or
  from the journal, retried attempts, terminal failures and the
  timeout/crash/error outcome totals;
- **the result cache and the resume journal** — hits, misses and
  quarantines, and checkpoint appends, as deltas from the moment of
  binding.

What only a live point knows arrives through :meth:`fold_point`, once
per simulated point: the worker that ran it, its wall time and event
count (per-worker throughput, per-point wall-time histogram) and its
metric snapshot — each live point runs metered (``run(config,
metrics=True)`` in the worker) and ships its registry snapshot back;
counters and histograms merge across points bucket-by-bucket, which the
fixed deterministic bucket layouts make exact.  Cache and journal hits
replay stored measurements without simulating, so they count in the
report but not in the per-flow aggregates.

:meth:`document` renders everything as a JSON-able
``repro-sweep-telemetry/1`` document, persisted next to the sweep's
per-point manifests (``sweep.telemetry.json``) so the provenance chain
for a sweep includes its operational story.  A telemetry that was never
bound reads as zeros.
"""

from __future__ import annotations

import json
from operator import sub
from pathlib import Path
from typing import Mapping

from repro.obs.registry import WALL_SECONDS_BUCKETS, MetricsRegistry
from repro.resilience.report import ResilienceReport

__all__ = ["SweepTelemetry", "TELEMETRY_SCHEMA", "write_telemetry"]

#: Schema tag of the exported document.
TELEMETRY_SCHEMA = "repro-sweep-telemetry/1"

#: Metric types that merge by summation across points.
_SUMMED_FIELDS = {
    "counter": ("value",),
    "rate": ("total",),
}


class SweepTelemetry:
    """Accumulates one sweep execution's operational metrics."""

    def __init__(self) -> None:
        self.report = ResilienceReport()
        self._cache = None
        self._journal = None
        self._bound_at = (0, 0, 0, 0)
        self.registry = MetricsRegistry()
        self.total_events = 0
        self.total_point_wall = 0.0
        self.workers: dict[str, dict[str, float]] = {}
        self._aggregate: dict[tuple[str, tuple[tuple[str, str], ...]],
                              dict[str, object]] = {}
        self._wall_hist = self.registry.histogram(
            "repro_sweep_point_wall_seconds",
            help="wall time of each simulated point",
            buckets=WALL_SECONDS_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------
    def bind(self, report: ResilienceReport, cache=None, journal=None) -> None:
        """Read the sweep's books from now on: its ``report``, and the
        ``cache`` and ``journal`` counters as they move from here."""
        self.report, self._cache, self._journal = report, cache, journal
        self._bound_at = self._counters()

    def _counters(self) -> tuple[int, int, int, int]:
        cache, journal = self._cache, self._journal
        return ((cache.hits, cache.misses, cache.quarantined)
                if cache is not None else (0, 0, 0)) + (
            journal.recorded if journal is not None else 0,)

    def fold_point(self, worker: str, wall_seconds: float, events: int,
                   snapshot: Mapping[str, object] | None) -> None:
        """Account one live point: its worker's throughput, its wall
        time, and its registry snapshot merged into the aggregate.

        Counters and rates sum; histograms merge bucket-by-bucket (the
        layouts are fixed, so the merge is exact); gauges keep min, max
        and the mean across points.  The aggregate is keyed by
        ``(name, labels)``, so per-flow series (``conn="1"``) stay
        per-flow across the whole sweep.
        """
        self.total_events += events
        self.total_point_wall += wall_seconds
        self._wall_hist.observe(wall_seconds)
        stats = self.workers.setdefault(
            worker, {"points": 0.0, "busy_seconds": 0.0, "events": 0.0})
        stats["points"] += 1
        stats["busy_seconds"] += wall_seconds
        stats["events"] += events
        if snapshot is None:
            return
        rows = snapshot.get("metrics")
        if not isinstance(rows, list):
            return
        for row in rows:
            name = str(row["name"])
            kind = str(row["type"])
            labels = row.get("labels", {})
            key = (name, tuple(sorted(labels.items())))
            acc = self._aggregate.get(key)
            if acc is None:
                acc = {"name": name, "type": kind,
                       "labels": dict(labels), "points": 0}
                if "help" in row:
                    acc["help"] = row["help"]
                if kind == "histogram":
                    acc["buckets"] = list(row["buckets"])
                    acc["counts"] = [0.0] * len(row["counts"])
                    acc["sum"] = 0.0
                    acc["count"] = 0.0
                elif kind == "gauge":
                    acc["min"] = float("inf")
                    acc["max"] = float("-inf")
                    acc["total"] = 0.0
                elif kind in _SUMMED_FIELDS:
                    for field in _SUMMED_FIELDS[kind]:
                        acc[field] = 0.0
                    if kind == "rate":
                        acc["peak_per_second"] = 0.0
                self._aggregate[key] = acc
            acc["points"] = int(acc["points"]) + 1
            if kind == "histogram":
                if list(row["buckets"]) != acc["buckets"]:
                    continue  # layout drift: never merge mismatched buckets
                acc["counts"] = [a + float(b) for a, b
                                 in zip(acc["counts"], row["counts"])]
                acc["sum"] = float(acc["sum"]) + float(row["sum"])
                acc["count"] = float(acc["count"]) + float(row["count"])
            elif kind == "gauge":
                value = float(row["value"])
                acc["min"] = min(float(acc["min"]), value)
                acc["max"] = max(float(acc["max"]), value)
                acc["total"] = float(acc["total"]) + value
            elif kind in _SUMMED_FIELDS:
                for field in _SUMMED_FIELDS[kind]:
                    acc[field] = float(acc[field]) + float(row[field])
                if kind == "rate":
                    acc["peak_per_second"] = max(
                        float(acc["peak_per_second"]),
                        float(row["peak_per_second"]))

    # ------------------------------------------------------------------
    # Read from the books
    # ------------------------------------------------------------------
    def since_bound(self) -> tuple[int, ...]:
        """Cache hits, misses and quarantines, and journal appends,
        since :meth:`bind`."""
        return tuple(map(sub, self._counters(), self._bound_at))

    @property
    def cache_hit_ratio(self) -> float:
        """Cache hits over cache lookups (0.0 when the cache was cold
        or disabled)."""
        hits, misses, _, _ = self.since_bound()
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

    @property
    def events_per_second(self) -> float:
        """Aggregate simulated events per wall second across workers."""
        if self.total_point_wall <= 0:
            return 0.0
        return self.total_events / self.total_point_wall

    def aggregate_total(self, name: str) -> float:
        """Sum of a counter metric across every label set and point."""
        total = 0.0
        for (metric_name, _), acc in self._aggregate.items():
            if metric_name == name and "value" in acc:
                total += float(acc["value"])  # type: ignore[arg-type]
        return total

    # ------------------------------------------------------------------
    # Document
    # ------------------------------------------------------------------
    def document(self) -> dict[str, object]:
        """The JSON-able ``repro-sweep-telemetry/1`` document."""
        report = self.report
        hits, misses, quarantined, appends = self.since_bound()
        workers = {
            name: {"points": int(stats["points"]),
                   "busy_seconds": stats["busy_seconds"],
                   "events": int(stats["events"])}
            for name, stats in sorted(self.workers.items())
        }
        aggregate = [self._aggregate[key] for key in sorted(self._aggregate)]
        own_rows = self.registry.snapshot()["metrics"]
        return {
            "schema": TELEMETRY_SCHEMA,
            "points": report.points,
            "done": report.measured,
            "failed": len(report.failures),
            "live_points": report.live,
            "cached_points": report.cache_hits + report.journal_skips,
            "retried_attempts": report.retries,
            "timeouts": report.timeouts,
            "crashes": report.crashes,
            "errors": report.errors,
            "cache": {
                "hits": hits,
                "misses": misses,
                "quarantined": quarantined,
                "hit_ratio": self.cache_hit_ratio,
            },
            "journal": {
                "restored": report.journal_skips,
                "appends": appends,
            },
            "execution": {
                "total_events": self.total_events,
                "total_point_wall_seconds": self.total_point_wall,
                "events_per_second": self.events_per_second,
            },
            "workers": workers,
            "sweep_metrics": own_rows,
            "point_aggregate": aggregate,
        }


def write_telemetry(telemetry: SweepTelemetry, path: str | Path) -> Path:
    """Write the telemetry document to ``path`` (or into a directory as
    ``sweep.telemetry.json``)."""
    target = Path(path)
    if target.is_dir():
        target = target / "sweep.telemetry.json"
    target.write_text(
        json.dumps(telemetry.document(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target
