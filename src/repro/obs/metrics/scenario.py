"""Meter a scenario: live probes bound once, everything else harvested.

The :class:`ScenarioMeter` instruments a
:class:`~repro.scenarios.builder.BuiltScenario` across all four layers
while adding **nothing** to the unmetered hot path:

- **One live probe** goes through an existing observer fan-out
  (:func:`repro.engine.fanout.bind_fanout`): without a meter the fan is
  the ``None`` sentinel and the data path pays one ``is not None``
  check it was already paying.  Only a signal that cannot be
  reconstructed afterwards is probed live — RTT samples (the estimator
  consumes and discards them).
- **Everything else is harvested in** :meth:`finalize`, after the run,
  from counters the model maintains anyway (queue drop/enqueue totals,
  port busy time, sender retransmit counters, engine compactions) and
  from the :class:`~repro.metrics.trace.TraceSet` monitors the builder
  always attaches (occupancy and cwnd distributions are time-weighted
  folds over the measurement window; the departure rate at each
  bottleneck port is marked from its monitor's departures).

Metering is observation-only by construction: probes never schedule
events or mutate model state, so a metered run is bit-identical to a
bare run on every parity fingerprint
(``tests/obs/metrics/test_parity.py``, ``repro parity --metered``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import AnalysisError, ConfigurationError
from repro.obs.metrics.core import (
    CWND_BUCKETS,
    OCCUPANCY_BUCKETS,
    RTT_BUCKETS,
    Histogram,
    MetricsRegistry,
    observe_step_series,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.builder import BuiltScenario
    from repro.tcp.connection import Connection

__all__ = ["ScenarioMeter", "resolve_meter"]


def resolve_meter(metrics: object) -> "ScenarioMeter | None":
    """Normalize the user-facing ``metrics=`` argument.

    ``None``/``False`` disable metering, ``True`` creates a default
    :class:`ScenarioMeter`, and a meter instance is used as-is
    (mirrors :func:`repro.obs.tracer.resolve_tracer`).
    """
    if metrics is None or metrics is False:
        return None
    if metrics is True:
        return ScenarioMeter()
    if isinstance(metrics, ScenarioMeter):
        return metrics
    raise ConfigurationError(
        f"metrics must be True, False, None or a ScenarioMeter, got {metrics!r}")


class ScenarioMeter:
    """Collects one run's :class:`MetricsRegistry`.

    Usage mirrors the tracer::

        meter = ScenarioMeter().instrument(built)
        built.sim.run(until=config.duration)
        registry = meter.finalize(built)

    or simply ``run(config, metrics=True)``.
    """

    #: Window of the departure rates, in sim seconds.
    RATE_WINDOW = 1.0

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._finalized = False

    # ------------------------------------------------------------------
    # Live probe (bind-once: the observer resolves into the existing fan)
    # ------------------------------------------------------------------
    def instrument(self, built: "BuiltScenario") -> "ScenarioMeter":
        """Attach the RTT probe to a built scenario.

        Must run before the first event fires.  Connections are visited
        in id order so observer registration — and therefore snapshot
        content — never depends on construction order.
        """
        for conn in built.connections:
            hist = self.registry.histogram(
                "repro_tcp_rtt_seconds", {"conn": str(conn.conn_id)},
                help="accepted RTT samples (Karn-filtered), seconds",
                buckets=RTT_BUCKETS,
            )
            self._probe_rtt(conn, hist)
        return self

    @staticmethod
    def _probe_rtt(conn: "Connection", hist: Histogram) -> None:
        observe = hist.observe

        def on_rtt(record: tuple) -> None:
            observe(record[1])

        conn.sender.on_rtt_sample(on_rtt)

    # ------------------------------------------------------------------
    # Post-run harvest
    # ------------------------------------------------------------------
    def finalize(self, built: "BuiltScenario", *,
                 wall_seconds: float = 0.0) -> MetricsRegistry:
        """Harvest every derivable metric after the run completes.

        Idempotent-hostile by design: harvesting twice would double the
        counters, so a second call raises.
        """
        if self._finalized:
            raise ConfigurationError("ScenarioMeter.finalize called twice")
        self._finalized = True
        reg = self.registry
        sim = built.sim
        config = built.config
        start, end = config.measurement_window

        # --- engine ----------------------------------------------------
        reg.counter("repro_engine_events_dispatched_total",
                    help="events executed by the simulator").inc(
                        sim.events_processed)
        reg.counter("repro_engine_events_cancelled_total",
                    help="events cancelled before firing").inc(
                        sim.cancelled_total)
        reg.counter("repro_engine_calendar_compactions_total",
                    help="calendar compaction passes").inc(sim.compactions)
        reg.gauge("repro_engine_calendar_depth",
                  help="calendar entries at end of run").set(sim.calendar_size)
        reg.gauge("repro_run_sim_seconds",
                  help="configured scenario duration").set(config.duration)
        if wall_seconds:
            reg.gauge("repro_run_wall_seconds",
                      help="wall-clock seconds spent in sim.run (reporting "
                           "only)").set(wall_seconds)

        # --- net: per watched bottleneck direction ---------------------
        for name in sorted(built.bottleneck_ports):
            monitor = built.traces.queue(name)
            port = monitor.port
            labels = {"port": name}
            mark = reg.rate(
                "repro_link_departures", labels,
                help="packets leaving the port transmitter (sliding sim-time window)",
                window=self.RATE_WINDOW,
            ).mark
            for departure in monitor.departures:
                mark(departure.time)
            queue = port.queue
            reg.counter("repro_queue_drops_total", labels,
                        help="packets dropped at the buffer").inc(queue.drops)
            reg.counter("repro_queue_enqueues_total", labels,
                        help="packets accepted into the buffer").inc(
                            queue.enqueues)
            reg.counter("repro_queue_dequeues_total", labels,
                        help="packets handed to the transmitter").inc(
                            queue.dequeues)
            reg.counter("repro_link_busy_seconds_total", labels,
                        help="transmitter busy time, whole run").inc(
                            port.busy_time)
            occupancy = reg.histogram(
                "repro_queue_occupancy_packets", labels,
                help="time-weighted buffer occupancy over the measurement "
                     "window (count is in seconds)",
                buckets=OCCUPANCY_BUCKETS,
            )
            observe_step_series(occupancy, monitor.lengths, start, end)
            reg.gauge("repro_link_utilization_ratio", labels,
                      help="busy fraction over the measurement window"
                      ).set(monitor.utilization(start, end))

        # --- tcp: per flow ---------------------------------------------
        for conn in built.connections:
            sender = conn.sender
            labels = {"conn": str(conn.conn_id)}
            reg.counter("repro_tcp_packets_sent_total", labels,
                        help="data packets transmitted (retransmits included)"
                        ).inc(sender.packets_sent)
            reg.counter("repro_tcp_retransmits_total", labels,
                        help="retransmitted data packets").inc(
                            sender.retransmits)
            reg.counter("repro_tcp_fast_retransmits_total", labels,
                        help="retransmissions triggered by duplicate ACKs"
                        ).inc(sender.fast_retransmits)
            reg.counter("repro_tcp_rto_expirations_total", labels,
                        help="retransmission timer expirations").inc(
                            sender.timeouts)
            reg.counter("repro_tcp_loss_events_total", labels,
                        help="loss detections (dupack or timeout)").inc(
                            sender.loss_events)
            reg.counter("repro_tcp_acks_received_total", labels,
                        help="ACK packets processed").inc(sender.acks_received)
            reg.counter("repro_tcp_packets_acked_total", labels,
                        help="cumulatively acknowledged data packets").inc(
                            sender.snd_una)
            cwnd_log = built.traces.cwnds.get(conn.conn_id)
            if cwnd_log is not None:
                cwnd_hist = reg.histogram(
                    "repro_tcp_cwnd_packets", labels,
                    help="time-weighted congestion window over the "
                         "measurement window (count is in seconds)",
                    buckets=CWND_BUCKETS,
                )
                observe_step_series(cwnd_hist, cwnd_log.cwnd, start, end)
            ack_log = built.traces.acks.get(conn.conn_id)
            if ack_log is not None:
                from repro.analysis.compression import compression_stats

                try:
                    compressed = compression_stats(
                        ack_log, data_tx_time=config.data_tx_time,
                        start=start, end=end,
                    ).compressed_gaps
                except AnalysisError:
                    # Fewer than two ACKs in the window: no gap to compress.
                    compressed = 0
                reg.counter(
                    "repro_tcp_ack_compression_incidents_total", labels,
                    help="compressed ACK gaps in the measurement window",
                ).inc(compressed)
        return reg
