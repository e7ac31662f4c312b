"""The metric instruments, the per-run registry and its exporters.

Four instrument types cover everything the reproduction reports as an
*aggregate* rather than a trace:

- :class:`Counter` — a monotone total (drops, retransmits, cache hits).
- :class:`Gauge` — a point-in-time value (utilization over the
  measurement window, final calendar depth).
- :class:`Histogram` — a distribution over **fixed, deterministic
  bucket layouts** (queue occupancy, cwnd, RTT samples).  Layouts are
  module constants, never derived from the data, so two runs of the
  same scenario produce byte-identical snapshots.
- :class:`Rate` — a windowed event rate over *simulation* time
  (departures per second at a bottleneck port).  The window slides on
  sim timestamps only; no wall clock is read.

All instruments live in a :class:`MetricsRegistry`, keyed by
``(name, labels)`` exactly as Prometheus models series.  Snapshots are
plain JSON-able dicts, sorted by name and labels, so they are stable
under hashing.  A run's registry is filled after the run by
:func:`repro.obs.harvest.harvest`.

A snapshot's one export is the Prometheus text exposition format
0.0.4.  The exporter consumes the plain-dict snapshot (or the registry
itself), so it works identically on a live registry and on a snapshot
held in memory.  The output has ``# HELP`` / ``# TYPE`` headers, one
sample per line, histogram ``_bucket{le=...}`` series with cumulative counts and a
``+Inf`` terminal bucket, plus ``_sum``/``_count``; a :class:`Rate`
flattens into a ``_total`` counter and
``_peak_per_second``/``_last_per_second`` gauges.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Mapping, Union

from repro.errors import ConfigurationError
from repro.metrics.timeseries import StepSeries

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Rate",
    "MetricsRegistry",
    "observe_step_series",
    "prometheus_text",
    "export_prometheus",
    "DEFAULT_BUCKETS",
    "OCCUPANCY_BUCKETS",
    "CWND_BUCKETS",
    "RTT_BUCKETS",
]

#: General-purpose decade layout.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
#: Queue occupancy in packets — powers of two up to the deepest buffer
#: the paper's scenarios configure.
OCCUPANCY_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
#: Congestion window in packets.
CWND_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
#: Round-trip-time samples in seconds (the paper's RTTs sit in the
#: tens-of-milliseconds to seconds range once queues fill).
RTT_BUCKETS: tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_LABEL_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

Labels = tuple[tuple[str, str], ...]


def _freeze_labels(labels: Mapping[str, str] | None) -> Labels:
    if not labels:
        return ()
    frozen = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ConfigurationError(
                f"bad metric label name {key!r}; use lowercase [a-z0-9_]")
        frozen.append((key, str(labels[key])))
    return tuple(frozen)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "help", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc({amount}))")
        self.value += amount

    def snapshot(self) -> dict[str, object]:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down; the snapshot keeps the last set."""

    __slots__ = ("name", "labels", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def snapshot(self) -> dict[str, object]:
        return {"value": self.value}


class Histogram:
    """A distribution over a fixed bucket layout.

    ``buckets`` are the inclusive upper bounds of the finite buckets;
    an implicit ``+Inf`` bucket catches the rest (Prometheus
    convention).  Observations can carry a *weight* — the time-weighted
    fold of a :class:`~repro.metrics.timeseries.StepSeries` uses the
    segment duration as the weight, so ``count`` is then measured in
    seconds, not samples.
    """

    __slots__ = ("name", "labels", "help", "buckets", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, name: str, labels: Labels = (), help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets:
            raise ConfigurationError(f"histogram {name} needs at least one bucket")
        if list(buckets) != sorted(set(buckets)):
            raise ConfigurationError(
                f"histogram {name} buckets must be strictly increasing: {buckets}")
        self.name = name
        self.labels = labels
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0.0] * (len(self.buckets) + 1)  # +Inf last
        self.sum = 0.0
        self.count = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.observe_weighted(value, 1.0)

    def observe_weighted(self, value: float, weight: float) -> None:
        """Record an observation carrying ``weight`` (>= 0) samples."""
        if weight < 0:
            raise ConfigurationError(
                f"histogram {self.name}: negative weight {weight}")
        if weight == 0:
            return
        self.count += weight
        self.sum += value * weight
        buckets = self.buckets
        # Linear scan: layouts are ~10 buckets, and the branchy bisect
        # setup costs more than the walk at this size.
        for i, upper in enumerate(buckets):
            if value <= upper:
                self.counts[i] += weight
                return
        self.counts[len(buckets)] += weight

    def snapshot(self) -> dict[str, object]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class Rate:
    """Event rate over a sliding window of *simulation* time.

    ``mark(time, n)`` records ``n`` events at sim-time ``time`` (marks
    must be non-decreasing in time, as everything event-driven is).
    The snapshot keeps the lifetime ``total``, the ``peak`` windowed
    rate, and the rate of the final window.
    """

    __slots__ = ("name", "labels", "help", "window",
                 "total", "peak", "_marks", "_head", "_in_window")

    kind = "rate"

    def __init__(self, name: str, labels: Labels = (), help: str = "",
                 window: float = 1.0) -> None:
        if window <= 0:
            raise ConfigurationError(
                f"rate {name} needs a positive window, got {window}")
        self.name = name
        self.labels = labels
        self.help = help
        self.window = float(window)
        self.total = 0.0
        self.peak = 0.0
        self._marks: list[tuple[float, float]] = []
        self._head = 0  # first mark still inside the window
        self._in_window = 0.0

    def mark(self, time: float, n: float = 1.0) -> None:
        """Record ``n`` events at sim-time ``time``."""
        marks = self._marks
        if marks and time < marks[-1][0]:
            raise ConfigurationError(
                f"rate {self.name}: time went backwards "
                f"({time} < {marks[-1][0]})")
        marks.append((time, n))
        self.total += n
        self._in_window += n
        head = self._head
        cutoff = time - self.window
        while marks[head][0] <= cutoff:
            self._in_window -= marks[head][1]
            head += 1
        self._head = head
        rate = self._in_window / self.window
        if rate > self.peak:
            self.peak = rate

    @property
    def current(self) -> float:
        """Rate of the window ending at the last mark."""
        return self._in_window / self.window

    def snapshot(self) -> dict[str, object]:
        return {
            "window": self.window,
            "total": self.total,
            "peak_per_second": self.peak,
            "last_per_second": self.current,
        }


Metric = Union[Counter, Gauge, Histogram, Rate]


class MetricsRegistry:
    """All instruments of one run, keyed by ``(name, labels)``.

    ``counter()``/``gauge()``/``histogram()``/``rate()`` get-or-create,
    so instrumentation sites never race over first-registration, and
    re-registering a name as a different type is a configuration error
    (stable metric names are an API — see docs/observability.md).
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, Labels], Metric] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def counter(self, name: str, labels: Mapping[str, str] | None = None,
                help: str = "") -> Counter:
        """Get or create the :class:`Counter` at ``(name, labels)``."""
        metric = self._get_or_create(Counter, name, labels, help)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, labels: Mapping[str, str] | None = None,
              help: str = "") -> Gauge:
        """Get or create the :class:`Gauge` at ``(name, labels)``."""
        metric = self._get_or_create(Gauge, name, labels, help)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, labels: Mapping[str, str] | None = None,
                  help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the :class:`Histogram` at ``(name, labels)``."""
        key = (self._check_name(name), _freeze_labels(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.kind}")
            if existing.buckets != tuple(float(b) for b in buckets):
                raise ConfigurationError(
                    f"histogram {name!r} re-registered with a different "
                    f"bucket layout")
            return existing
        metric = Histogram(key[0], key[1], help=help, buckets=buckets)
        self._metrics[key] = metric
        return metric

    def rate(self, name: str, labels: Mapping[str, str] | None = None,
             help: str = "", window: float = 1.0) -> Rate:
        """Get or create the :class:`Rate` at ``(name, labels)``."""
        key = (self._check_name(name), _freeze_labels(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, Rate):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.kind}")
            return existing
        metric = Rate(key[0], key[1], help=help, window=window)
        self._metrics[key] = metric
        return metric

    def _get_or_create(self, cls: type, name: str,
                       labels: Mapping[str, str] | None, help: str) -> Metric:
        key = (self._check_name(name), _freeze_labels(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if type(existing) is not cls:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.kind}")
            return existing
        metric = cls(key[0], key[1], help=help)
        self._metrics[key] = metric
        return metric

    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_RE.match(name):
            raise ConfigurationError(
                f"bad metric name {name!r}; use lowercase [a-z0-9_], "
                "starting with a letter")
        return name

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterable[Metric]:
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def get(self, name: str,
            labels: Mapping[str, str] | None = None) -> Metric | None:
        """The instrument at ``(name, labels)``, or ``None``."""
        return self._metrics.get((name, _freeze_labels(labels)))

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """A plain JSON-able dict of every instrument, sorted by key.

        Deterministic by construction: fixed bucket layouts, sorted
        label tuples, sorted series — two identical runs produce
        byte-identical snapshots, except for the explicitly wall-clock
        ``repro_run_wall_seconds`` gauge (reporting only, never enters
        simulation state).
        """
        rows = []
        for name, labels in sorted(self._metrics):
            metric = self._metrics[(name, labels)]
            row: dict[str, object] = {
                "name": name,
                "type": metric.kind,
                "labels": {k: v for k, v in labels},
            }
            if metric.help:
                row["help"] = metric.help
            row.update(metric.snapshot())
            rows.append(row)
        return {"metrics": rows}


def observe_step_series(hist: Histogram, series: StepSeries,
                        start: float, end: float) -> None:
    """Fold a piecewise-constant series into ``hist``, time-weighted.

    Every value the series holds over ``[start, end]`` is observed with
    its holding duration as the weight, so the histogram's ``count``
    equals ``end - start`` seconds and ``fraction in bucket`` reads as
    ``fraction of the window spent at that occupancy``.  Duplicate
    timestamps contribute zero-duration segments (dropped); an empty
    series contributes its initial value across the whole window.
    ``start == end`` is a no-op.
    """
    if end < start:
        raise ConfigurationError(
            f"observe window end {end} before start {start}")
    if end == start:
        return
    points = list(series.window(start, end))
    for (t0, v0), (t1, _v1) in zip(points, points[1:]):
        hist.observe_weighted(v0, t1 - t0)
    last_t, last_v = points[-1]
    hist.observe_weighted(last_v, end - last_t)


def _snapshot_of(source: "MetricsRegistry | Mapping[str, object]") -> Mapping[str, object]:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return source


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


def prometheus_text(source: "MetricsRegistry | Mapping[str, object]") -> str:
    """Render a registry or snapshot in Prometheus text exposition format.

    Samples are grouped under one ``# TYPE`` header per metric family
    (the format requires it): label variants of the same metric — and
    the counter/gauge series a :class:`Rate`
    flattens into — emit together regardless of snapshot row order.
    """
    snapshot = _snapshot_of(source)
    #: family name -> (kind, help, [sample lines]) in first-seen order.
    groups: dict[str, tuple[str, str, list[str]]] = {}

    def sample(family: str, kind: str, help_text: str, line: str) -> None:
        group = groups.get(family)
        if group is None:
            group = (kind, help_text, [])
            groups[family] = group
        group[2].append(line)

    for row in snapshot["metrics"]:  # type: ignore[index]
        assert isinstance(row, Mapping)
        name = str(row["name"])
        kind = str(row["type"])
        labels = row.get("labels", {})
        assert isinstance(labels, Mapping)
        help_text = str(row.get("help", ""))
        if kind in ("counter", "gauge"):
            sample(name, kind, help_text,
                   f"{name}{_labels_text(labels)} "
                   f"{_format_value(float(row['value']))}")  # type: ignore[arg-type]
        elif kind == "histogram":
            buckets = list(row["buckets"])  # type: ignore[arg-type]
            counts = list(row["counts"])  # type: ignore[arg-type]
            running = 0.0
            for upper, count in zip(buckets + [float("inf")], counts):
                running += float(count)
                le = _labels_text(labels, (("le", _format_value(float(upper))),))
                sample(name, "histogram", help_text,
                       f"{name}_bucket{le} {_format_value(running)}")
            sample(name, "histogram", help_text,
                   f"{name}_sum{_labels_text(labels)} "
                   f"{_format_value(float(row['sum']))}")  # type: ignore[arg-type]
            sample(name, "histogram", help_text,
                   f"{name}_count{_labels_text(labels)} "
                   f"{_format_value(float(row['count']))}")  # type: ignore[arg-type]
        elif kind == "rate":
            sample(f"{name}_total", "counter",
                   help_text and f"{help_text} (lifetime total)",
                   f"{name}_total{_labels_text(labels)} "
                   f"{_format_value(float(row['total']))}")  # type: ignore[arg-type]
            sample(f"{name}_peak_per_second", "gauge",
                   help_text and f"{help_text} (peak windowed rate)",
                   f"{name}_peak_per_second{_labels_text(labels)} "
                   f"{_format_value(float(row['peak_per_second']))}")  # type: ignore[arg-type]
            sample(f"{name}_last_per_second", "gauge",
                   help_text and f"{help_text} (final windowed rate)",
                   f"{name}_last_per_second{_labels_text(labels)} "
                   f"{_format_value(float(row['last_per_second']))}")  # type: ignore[arg-type]

    lines: list[str] = []
    for family, (kind, help_text, samples) in groups.items():
        if help_text:
            lines.append(f"# HELP {family} {_escape(help_text)}")
        lines.append(f"# TYPE {family} {kind}")
        lines.extend(samples)
    return "\n".join(lines) + "\n"


def export_prometheus(source: "MetricsRegistry | Mapping[str, object]",
                      path: str | Path) -> Path:
    """Write the Prometheus text exposition to ``path``."""
    target = Path(path)
    target.write_text(prometheus_text(source), encoding="utf-8")
    return target

