"""Meter a finished run: one registry, read off what the run recorded.

:func:`harvest` builds a :class:`~repro.obs.registry.MetricsRegistry`
for a :class:`~repro.scenarios.builder.BuiltScenario` after
``sim.run`` returns, and attaches nothing before it.  Every row comes
from counters the model maintains anyway (queue drop/enqueue totals,
port busy time, sender retransmit counters, engine compactions) or from
the :class:`~repro.metrics.trace.TraceSet` monitors the builder always
attaches: occupancy and cwnd distributions are time-weighted folds over
the measurement window, the departure rate at each bottleneck port is
marked from its monitor's departures, and the RTT histogram folds the
accepted samples the ACK log journals (``AckArrivalLog.rtt_samples``)
in record order.

A metered run therefore registers exactly the sinks a bare run
registers, and is bit-identical to it on every parity fingerprint by
construction: every ``repro parity --check`` case runs metered against
the golden fingerprints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.compression import compression_stats
from repro.errors import AnalysisError
from repro.obs.registry import (
    CWND_BUCKETS,
    OCCUPANCY_BUCKETS,
    RTT_BUCKETS,
    MetricsRegistry,
    observe_step_series,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.builder import BuiltScenario

__all__ = ["harvest"]

#: Window of the departure rates, in sim seconds.
RATE_WINDOW = 1.0


def harvest(built: "BuiltScenario", *,
            wall_seconds: float = 0.0) -> MetricsRegistry:
    """The run's metrics, harvested after ``built.sim.run`` returns.

    Each call builds a fresh registry from the finished run.
    ``wall_seconds`` is reported as ``repro_run_wall_seconds`` when
    non-zero (reporting only).
    """
    reg = MetricsRegistry()
    sim = built.sim
    config = built.config
    start, end = config.measurement_window

    # --- engine --------------------------------------------------------
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

    # --- net: per watched bottleneck direction -------------------------
    for name in sorted(built.bottleneck_ports):
        monitor = built.traces.queue(name)
        port = monitor.port
        labels = {"port": name}
        mark = reg.rate(
            "repro_link_departures", labels,
            help="packets leaving the port transmitter (sliding sim-time window)",
            window=RATE_WINDOW,
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

    # --- tcp: per flow -------------------------------------------------
    for conn in built.connections:
        sender = conn.sender
        labels = {"conn": str(conn.conn_id)}
        ack_log = built.traces.ack_log(conn.conn_id)
        observe = reg.histogram(
            "repro_tcp_rtt_seconds", labels,
            help="accepted RTT samples (Karn-filtered), seconds",
            buckets=RTT_BUCKETS,
        ).observe
        for sample in ack_log.rtt_samples:
            observe(sample)
        reg.counter("repro_tcp_packets_sent_total", labels,
                    help="data packets transmitted (retransmits included)"
                    ).inc(sender.packets_sent)
        reg.counter("repro_tcp_retransmits_total", labels,
                    help="retransmitted data packets").inc(sender.retransmits)
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
