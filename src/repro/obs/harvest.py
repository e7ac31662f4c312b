"""Meter a finished run: one snapshot, read off what the run recorded.

:func:`harvest` builds the run's metrics snapshot — the sorted
``{"metrics": [row, ...]}`` document — for a
:class:`~repro.scenarios.builder.BuiltScenario` after ``sim.run``
returns, and attaches nothing before it.  Every row comes from counters
the model maintains anyway (queue drop/enqueue totals, port busy time,
sender retransmit counters, engine compactions) or from the
:class:`~repro.metrics.trace.TraceSet` monitors the builder always
attaches: occupancy and cwnd distributions are time-weighted folds over
the measurement window, the departure rate at each bottleneck port is
counted from its monitor's departures, and the RTT histogram folds the
accepted samples the ACK log journals (``AckArrivalLog.rtt_samples``)
in record order.

A row is built once, by one of four pure constructors:

- :func:`counter` — a monotone total (drops, retransmits, dispatched
  events);
- :func:`gauge` — a point-in-time value (utilization over the
  measurement window, final calendar depth);
- :func:`histogram` — a distribution of ``(value, weight)``
  observations over a **fixed, deterministic bucket layout** (queue
  occupancy, cwnd, RTT samples).  Layouts are module constants, never
  derived from the data, so two runs of the same scenario produce
  byte-identical snapshots;
- :func:`rate` — an event rate over a sliding window of *simulation*
  time (departures per second at a bottleneck port); no wall clock is
  read.

Every metric name, label and bucket layout is a constant of this
module; ``tests/obs/test_metered_snapshots.py`` checks their form on the
recorded rows.  A metered run registers exactly the sinks a bare run
registers, and is bit-identical to it on every parity fingerprint by
construction: every ``repro parity --check`` case runs metered against
the golden fingerprints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.analysis.compression import compression_stats
from repro.errors import AnalysisError
from repro.metrics.timeseries import StepSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.builder import BuiltScenario

__all__ = [
    "harvest",
    "counter",
    "gauge",
    "histogram",
    "rate",
    "holding_times",
    "OCCUPANCY_BUCKETS",
    "CWND_BUCKETS",
    "RTT_BUCKETS",
]

#: One snapshot row: ``name``, ``type``, ``labels``, ``help`` and the
#: kind's fields.
Row = dict[str, Any]

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

#: Window of the departure rates, in sim seconds.
RATE_WINDOW = 1.0


def counter(name: str, labels: dict[str, str], help: str,
            value: float) -> Row:
    """A monotone total."""
    return {"name": name, "type": "counter", "labels": labels,
            "help": help, "value": 0.0 + value}


def gauge(name: str, labels: dict[str, str], help: str,
          value: float) -> Row:
    """A point-in-time value."""
    return {"name": name, "type": "gauge", "labels": labels,
            "help": help, "value": float(value)}


def histogram(name: str, labels: dict[str, str], help: str,
              buckets: tuple[float, ...],
              observations: Iterable[tuple[float, float]]) -> Row:
    """A distribution of ``(value, weight)`` observations.

    ``buckets`` are the inclusive upper bounds of the finite buckets;
    the last of ``counts`` is the implicit ``+Inf`` bucket (Prometheus
    convention).  A time-weighted fold (:func:`holding_times`) weighs
    each value by its holding duration, so ``count`` is then measured
    in seconds, not samples.  Zero weights are skipped.
    """
    counts = [0.0] * (len(buckets) + 1)
    total = 0.0
    count = 0.0
    for value, weight in observations:
        if weight == 0:
            continue
        count += weight
        total += value * weight
        # Linear scan: layouts are ~10 buckets, and the branchy bisect
        # setup costs more than the walk at this size.
        for i, upper in enumerate(buckets):
            if value <= upper:
                counts[i] += weight
                break
        else:
            counts[-1] += weight
    return {"name": name, "type": "histogram", "labels": labels,
            "help": help, "buckets": list(buckets), "counts": counts,
            "sum": total, "count": count}


def rate(name: str, labels: dict[str, str], help: str, window: float,
         times: Sequence[float]) -> Row:
    """Event rate over a sliding ``window`` of sim time.

    ``times`` are the events' sim times, non-decreasing.  The row keeps
    the lifetime ``total``, the ``peak`` windowed rate, and the rate of
    the window ending at the last event.
    """
    total = 0.0
    peak = 0.0
    in_window = 0.0
    head = 0  # first event still inside the window
    for time in times:
        total += 1.0
        in_window += 1.0
        cutoff = time - window
        while times[head] <= cutoff:
            in_window -= 1.0
            head += 1
        current = in_window / window
        if current > peak:
            peak = current
    return {"name": name, "type": "rate", "labels": labels, "help": help,
            "window": window, "total": total, "peak_per_second": peak,
            "last_per_second": in_window / window}


def holding_times(series: StepSeries, start: float,
                  end: float) -> list[tuple[float, float]]:
    """Each value ``series`` holds over ``[start, end)`` with its
    holding duration in seconds.

    The weights telescope to ``end - start``, so a histogram of them
    reads ``fraction in bucket`` as ``fraction of the window spent at
    that value``.  Duplicate timestamps give zero-duration segments; an
    empty series holds its initial value across the whole window.
    """
    points = list(series.window(start, end))
    ends = [t for t, _ in points[1:]] + [end]
    return [(value, t1 - t0) for (t0, value), t1 in zip(points, ends)]


def harvest(built: "BuiltScenario", *,
            wall_seconds: float = 0.0) -> dict[str, list[Row]]:
    """The run's metrics snapshot, harvested after ``built.sim.run``
    returns.

    Rows are sorted by name and labels.  ``wall_seconds`` is reported
    as ``repro_run_wall_seconds`` when non-zero (reporting only, the one
    row two identical runs may disagree on).
    """
    sim = built.sim
    config = built.config
    start, end = config.measurement_window

    # --- engine --------------------------------------------------------
    rows = [
        counter("repro_engine_events_dispatched_total", {},
                "events executed by the simulator", sim.events_processed),
        counter("repro_engine_events_cancelled_total", {},
                "events cancelled before firing", sim.cancelled_total),
        counter("repro_engine_calendar_compactions_total", {},
                "calendar compaction passes", sim.compactions),
        gauge("repro_engine_calendar_depth", {},
              "calendar entries at end of run", sim.calendar_size),
        gauge("repro_run_sim_seconds", {},
              "configured scenario duration", config.duration),
    ]
    if wall_seconds:
        rows.append(gauge("repro_run_wall_seconds", {},
                          "wall-clock seconds spent in sim.run (reporting "
                          "only)", wall_seconds))

    # --- net: per watched bottleneck direction -------------------------
    for name in built.bottleneck_ports:
        monitor = built.traces.queue(name)
        port = monitor.port
        queue = port.queue
        labels = {"port": name}
        rows += [
            rate("repro_link_departures", labels,
                 "packets leaving the port transmitter (sliding sim-time "
                 "window)", RATE_WINDOW,
                 [departure.time for departure in monitor.departures]),
            counter("repro_queue_drops_total", labels,
                    "packets dropped at the buffer", queue.drops),
            counter("repro_queue_enqueues_total", labels,
                    "packets accepted into the buffer", queue.enqueues),
            counter("repro_queue_dequeues_total", labels,
                    "packets handed to the transmitter", queue.dequeues),
            counter("repro_link_busy_seconds_total", labels,
                    "transmitter busy time, whole run", port.busy_time),
            histogram("repro_queue_occupancy_packets", labels,
                      "time-weighted buffer occupancy over the measurement "
                      "window (count is in seconds)", OCCUPANCY_BUCKETS,
                      holding_times(monitor.lengths, start, end)),
            gauge("repro_link_utilization_ratio", labels,
                  "busy fraction over the measurement window",
                  monitor.utilization(start, end)),
        ]

    # --- tcp: per flow -------------------------------------------------
    for conn in built.connections:
        sender = conn.sender
        labels = {"conn": str(conn.conn_id)}
        ack_log = built.traces.ack_log(conn.conn_id)
        rows += [
            histogram("repro_tcp_rtt_seconds", labels,
                      "accepted RTT samples (Karn-filtered), seconds",
                      RTT_BUCKETS,
                      [(sample, 1.0) for sample in ack_log.rtt_samples]),
            counter("repro_tcp_packets_sent_total", labels,
                    "data packets transmitted (retransmits included)",
                    sender.packets_sent),
            counter("repro_tcp_retransmits_total", labels,
                    "retransmitted data packets", sender.retransmits),
            counter("repro_tcp_fast_retransmits_total", labels,
                    "retransmissions triggered by duplicate ACKs",
                    sender.fast_retransmits),
            counter("repro_tcp_rto_expirations_total", labels,
                    "retransmission timer expirations", sender.timeouts),
            counter("repro_tcp_loss_events_total", labels,
                    "loss detections (dupack or timeout)",
                    sender.loss_events),
            counter("repro_tcp_acks_received_total", labels,
                    "ACK packets processed", sender.acks_received),
            counter("repro_tcp_packets_acked_total", labels,
                    "cumulatively acknowledged data packets",
                    sender.snd_una),
        ]
        cwnd_log = built.traces.cwnds.get(conn.conn_id)
        if cwnd_log is not None:
            rows.append(histogram(
                "repro_tcp_cwnd_packets", labels,
                "time-weighted congestion window over the measurement "
                "window (count is in seconds)", CWND_BUCKETS,
                holding_times(cwnd_log.cwnd, start, end)))
        try:
            compressed = compression_stats(
                ack_log, data_tx_time=config.data_tx_time,
                start=start, end=end,
            ).compressed_gaps
        except AnalysisError:
            # Fewer than two ACKs in the window: no gap to compress.
            compressed = 0
        rows.append(counter(
            "repro_tcp_ack_compression_incidents_total", labels,
            "compressed ACK gaps in the measurement window", compressed))
    rows.sort(key=lambda row: (row["name"], sorted(row["labels"].items())))
    return {"metrics": rows}
