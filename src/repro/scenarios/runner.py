"""Run scenarios and expose results.

:func:`run` executes a configuration to its configured duration and
wraps the traces in a :class:`ScenarioResult`, which provides the
measurements the paper reports — per-direction utilization, queue
statistics, drop patterns, synchronization verdicts — computed over the
post-warmup window.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Iterable

from repro.analysis.clustering import cluster_runs, clustering_stats
from repro.analysis.compression import compression_stats
from repro.analysis.epochs import CongestionEpoch, detect_epochs
from repro.analysis.synchronization import SyncVerdict, classify_sync
from repro.errors import AnalysisError
from repro.metrics.timeseries import StepSeries
from repro.metrics.trace import TraceSet
from repro.net.topology import Network
from repro.scenarios.builder import BuiltScenario, build
from repro.scenarios.config import ScenarioConfig
from repro.tcp.connection import Connection

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracer import Tracer

__all__ = ["ScenarioResult", "run"]


@dataclass
class ScenarioResult:
    """A finished run plus analysis shortcuts."""

    config: ScenarioConfig
    net: Network
    connections: list[Connection]
    traces: TraceSet
    bottleneck_ports: list[str]
    events_processed: int
    tracer: "Tracer | None" = field(default=None, compare=False)
    """The attached :class:`~repro.obs.tracer.Tracer` when the run was
    traced (``trace=`` on :func:`run`)."""
    metrics: "MetricsRegistry | None" = field(default=None, compare=False)
    """The run's :class:`~repro.obs.registry.MetricsRegistry` when the
    run was metered (``metrics=True`` on :func:`run`)."""
    wall_seconds: float = field(default=0.0, compare=False)
    """Wall-clock seconds :func:`run` spent inside ``sim.run`` (reporting
    only; never enters simulation state)."""

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    @property
    def window(self) -> tuple[float, float]:
        """The measurement window (post-warmup)."""
        return self.config.measurement_window

    # ------------------------------------------------------------------
    # Headline measurements
    # ------------------------------------------------------------------
    def utilization(self, port: str | None = None) -> float:
        """Bottleneck utilization over the measurement window.

        ``port=None`` uses the first watched bottleneck direction
        (``sw1->sw2`` on a dumbbell — the direction congested by
        connection 1's data).
        """
        name = port or self.bottleneck_ports[0]
        start, end = self.window
        return self.traces.link(name).utilization(start, end)

    def utilizations(self) -> dict[str, float]:
        """Utilization of every watched bottleneck direction."""
        start, end = self.window
        return {
            name: self.traces.link(name).utilization(start, end)
            for name in self.bottleneck_ports
        }

    def queue_series(self, port: str | None = None):
        """The queue-length :class:`StepSeries` of a bottleneck port."""
        name = port or self.bottleneck_ports[0]
        return self.traces.queue(name).lengths

    def cwnd_series(self, conn_ids: Iterable[int] | None = None) -> list[StepSeries]:
        """The cwnd :class:`StepSeries` of the given connections (all of
        them by default), in the order asked."""
        if conn_ids is None:
            conn_ids = [conn.conn_id for conn in self.connections]
        return [self.traces.cwnd(conn_id).cwnd for conn_id in conn_ids]

    def max_queue(self, port: str | None = None) -> float:
        """Maximum queue length in the measurement window."""
        name = port or self.bottleneck_ports[0]
        start, end = self.window
        return self.traces.queue(name).lengths.max_in(start, end)

    # ------------------------------------------------------------------
    # Drops and epochs
    # ------------------------------------------------------------------
    def epochs(self, gap: float = 8.0) -> list[CongestionEpoch]:
        """Congestion epochs detected in the measurement window."""
        start, end = self.window
        return detect_epochs(self.traces.drops, gap=gap, start=start, end=end)

    def data_drop_fraction(self) -> float:
        """Fraction of all drops (whole run) that were data packets."""
        return self.traces.drops.data_drop_fraction()

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def queue_sync(self, port_a: str | None = None, port_b: str | None = None,
                   dt: float = 0.25) -> SyncVerdict:
        """Phase classification of two bottleneck queue-length series."""
        if len(self.bottleneck_ports) < 2:
            raise AnalysisError("need two watched ports for queue sync")
        a = port_a or self.bottleneck_ports[0]
        b = port_b or self.bottleneck_ports[1]
        return classify_sync([self.queue_series(a), self.queue_series(b)],
                             *self.window, dt=dt)

    def window_sync(self, conn_a: int, conn_b: int, dt: float = 0.25) -> SyncVerdict:
        """Phase classification of two connections' cwnd series."""
        return classify_sync(self.cwnd_series((conn_a, conn_b)),
                             *self.window, dt=dt)

    def ensemble_sync(self) -> SyncVerdict:
        """Collective classification of every connection's cwnd series
        against the congestion epochs of the measurement window."""
        return classify_sync(self.cwnd_series(), *self.window, self.epochs())

    # ------------------------------------------------------------------
    # Clustering / compression
    # ------------------------------------------------------------------
    def clustering(self, port: str | None = None):
        """Clustering statistics of the data departures at a port."""
        name = port or self.bottleneck_ports[0]
        start, end = self.window
        runs = cluster_runs(self.traces.queue(name).departures, start=start, end=end)
        return clustering_stats(runs)

    def ack_compression(self, conn_id: int, threshold: float = 0.75):
        """ACK-compression statistics for one connection's source."""
        start, end = self.window
        return compression_stats(
            self.traces.ack_log(conn_id),
            data_tx_time=self.config.data_tx_time,
            start=start, end=end, threshold=threshold,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """A multi-line human-readable digest of the run."""
        start, end = self.window
        lines = [
            f"scenario: {self.config.name}",
            f"window:   [{start:.0f}s, {end:.0f}s]   events: {self.events_processed}",
        ]
        drops = Counter(record.queue for record in self.traces.drops.records)
        for name, util in self.utilizations().items():
            monitor = self.traces.queue(name)
            lines.append(
                f"  {name}: util={util * 100:5.1f}%  "
                f"max_q={monitor.lengths.max_in(start, end):.0f}  "
                f"drops={drops[name]}"
            )
        epochs = self.epochs()
        if epochs:
            per_epoch = sum(e.total_drops for e in epochs) / len(epochs)
            lines.append(
                f"  congestion epochs: {len(epochs)}  mean drops/epoch: {per_epoch:.2f}"
            )
        for conn in self.connections:
            sender = conn.sender
            lines.append(
                f"  conn {conn.conn_id} ({conn.src_host}->{conn.dst_host}): "
                f"sent={sender.packets_sent} acked={sender.snd_una}"
            )
        return "\n".join(lines)


def run(
    config: ScenarioConfig,
    *,
    trace: "Tracer | bool | None" = None,
    metrics: bool = False,
) -> ScenarioResult:
    """Build and execute a scenario to completion.

    Parameters
    ----------
    trace:
        Anything :func:`repro.obs.resolve_tracer` accepts — ``True`` for
        a default :class:`~repro.obs.Tracer`, or a configured instance.
        The tracer is attached before the first event fires and is
        observation-only: the traced run is bit-identical to the
        untraced one.
    metrics:
        Harvest the finished run into a
        :class:`~repro.obs.registry.MetricsRegistry`
        (:func:`repro.obs.harvest.harvest`).  Nothing is attached
        before the run, so a metered run is a bare run plus the
        harvest.

    A run's :class:`~repro.obs.RunManifest` is built from the finished
    result: ``build_manifest(result.config,
    events_processed=result.events_processed,
    wall_seconds=result.wall_seconds, tracer=result.tracer)``.

    The :mod:`repro.obs` imports are deliberately lazy: obs sits above
    scenarios in the layer diagram (its manifest module reaches into
    :mod:`repro.parallel`, which imports this runner), so a top-level
    import would be circular.
    """
    built: BuiltScenario = build(config)
    tracer = None
    if trace is not None and trace is not False:
        from repro.obs.tracer import resolve_tracer

        tracer = resolve_tracer(trace)
        if tracer is not None:
            tracer.instrument(built)
    begin = perf_counter()
    built.sim.run(until=config.duration)
    wall_seconds = perf_counter() - begin
    registry = None
    if metrics:
        from repro.obs.harvest import harvest

        registry = harvest(built, wall_seconds=wall_seconds)
    return ScenarioResult(
        config=config,
        net=built.net,
        connections=built.connections,
        traces=built.traces,
        bottleneck_ports=built.bottleneck_ports,
        events_processed=built.sim.events_processed,
        tracer=tracer,
        metrics=registry,
        wall_seconds=wall_seconds,
    )
