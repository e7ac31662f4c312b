"""The meter as a function of the finished run: ``harvest`` and the
``run(metrics=True)`` knob."""

import dataclasses
import json

import pytest

from repro.obs import harvest
from repro.scenarios import build, families, paper, run


def row(snapshot, name, labels=None):
    """The row of series ``(name, labels)`` in ``snapshot``, or ``None``."""
    return next((row for row in snapshot["metrics"]
                 if (row["name"], row["labels"]) == (name, labels or {})),
                None)


@pytest.fixture(scope="module")
def metered_result():
    config = dataclasses.replace(paper.figure2(), duration=40.0, warmup=10.0)
    return run(config, metrics=True)


class TestMeteredRun:
    def test_registry_attached_and_bare_run_has_none(self, metered_result):
        assert list(metered_result.metrics) == ["metrics"]
        config = dataclasses.replace(paper.figure2(), duration=5.0, warmup=1.0)
        assert run(config).metrics is None

    def test_engine_counters_match_run(self, metered_result):
        reg = metered_result.metrics
        dispatched = row(reg, "repro_engine_events_dispatched_total")
        assert dispatched["value"] == metered_result.events_processed
        assert row(reg, "repro_run_sim_seconds")["value"] == \
            metered_result.config.duration

    def test_queue_counters_per_bottleneck(self, metered_result):
        reg = metered_result.metrics
        dequeued = []
        for name in metered_result.bottleneck_ports:
            labels = {"port": name}
            port = metered_result.net.port(*name.split("->"))
            enq = row(reg, "repro_queue_enqueues_total", labels)["value"]
            deq = row(reg, "repro_queue_dequeues_total", labels)["value"]
            assert enq == port.queue.enqueues
            assert deq == port.queue.dequeues
            assert row(reg, "repro_queue_drops_total", labels)["value"] == \
                port.queue.drops
            dequeued.append(deq)
            util = row(reg, "repro_link_utilization_ratio", labels)["value"]
            assert 0.0 <= util <= 1.0
        # The loaded direction buffers; not every direction has to.
        assert any(d > 0 for d in dequeued)

    def test_occupancy_histogram_covers_measurement_window(self, metered_result):
        reg = metered_result.metrics
        start, end = metered_result.config.measurement_window
        for name in metered_result.bottleneck_ports:
            hist = row(reg, "repro_queue_occupancy_packets", {"port": name})
            assert hist["count"] == pytest.approx(end - start)

    def test_cwnd_histogram_covers_measurement_window(self, metered_result):
        reg = metered_result.metrics
        start, end = metered_result.config.measurement_window
        conns = [c for c in metered_result.connections
                 if c.conn_id in metered_result.traces.cwnds]
        assert conns
        for conn in conns:
            hist = row(reg, "repro_tcp_cwnd_packets",
                           {"conn": str(conn.conn_id)})
            assert hist["count"] == pytest.approx(end - start)

    def test_tcp_counters_match_senders(self, metered_result):
        reg = metered_result.metrics
        for conn in metered_result.connections:
            labels = {"conn": str(conn.conn_id)}
            assert row(reg, "repro_tcp_packets_sent_total", labels)["value"] == \
                conn.sender.packets_sent
            assert row(reg, "repro_tcp_retransmits_total", labels)["value"] == \
                conn.sender.retransmits

    def test_live_probes_fired(self, metered_result):
        reg = metered_result.metrics
        # Departure rates at every bottleneck direction.
        for name in metered_result.bottleneck_ports:
            rate = row(reg, "repro_link_departures", {"port": name})
            assert rate["total"] > 0
            assert rate["peak_per_second"] > 0
        # One RTT observation per journalled sample, on every flow.
        rtt_counts = []
        for conn in metered_result.connections:
            hist = row(reg, "repro_tcp_rtt_seconds", {"conn": str(conn.conn_id)})
            samples = metered_result.traces.ack_log(conn.conn_id).rtt_samples
            assert hist["count"] == len(samples)
            assert hist["sum"] == sum(samples)
            rtt_counts.append(hist["count"])
        assert any(count > 0 for count in rtt_counts)

    def test_snapshot_deterministic_across_identical_runs(self):
        config = dataclasses.replace(paper.figure4(), duration=20.0, warmup=5.0)

        def stable_snapshot():
            snap = run(config, metrics=True).metrics
            rows = [row for row in snap["metrics"]
                    if row["name"] != "repro_run_wall_seconds"]
            return json.dumps(rows, sort_keys=True)

        assert stable_snapshot() == stable_snapshot()


class TestHarvestedFromTheMonitors:
    def test_meter_puts_no_sink_on_any_transmission_fan(self):
        config = dataclasses.replace(paper.figure4(), duration=5.0, warmup=1.0)
        built = build(config)
        ports = [built.net.port(*name.split("->"))
                 for name in built.bottleneck_ports]
        fans = [port._fan for port in ports]
        built.sim.run(until=config.duration)
        harvest(built)
        assert [port._fan for port in ports] == fans
        # Still the monitor's own C-level append: nobody joined it.
        assert all(isinstance(fan, type([].append)) for fan in fans)

    def test_flows_without_two_acks_in_the_window_count_zero(self):
        config = families.manyflow_config((16, 10, 0.0), duration=150.0,
                                          warmup=60.0)
        result = run(config, metrics=True)
        start, end = config.measurement_window
        silent = [conn.conn_id for conn in result.connections
                  if len(result.traces.ack_log(conn.conn_id)
                         .inter_arrival_times(start, end)) == 0]
        assert silent  # the case that used to raise
        for conn in result.connections:
            counter = row(result.metrics,
                "repro_tcp_ack_compression_incidents_total",
                {"conn": str(conn.conn_id)})
            assert counter is not None
            if conn.conn_id in silent:
                assert counter["value"] == 0


class TestMeterLifecycle:
    def test_harvest_twice_builds_equal_registries(self):
        config = dataclasses.replace(paper.figure2(), duration=5.0, warmup=1.0)
        built = build(config)
        built.sim.run(until=config.duration)
        first, second = harvest(built), harvest(built)
        assert first is not second
        assert first == second

    def test_manual_lifecycle_matches_run_knob(self):
        config = dataclasses.replace(paper.figure2(), duration=10.0, warmup=2.0)
        built = build(config)
        built.sim.run(until=config.duration)
        manual = harvest(built)
        assert row(manual, "repro_engine_events_dispatched_total")["value"] == \
            built.sim.events_processed
        knob = run(config, metrics=True).metrics["metrics"]
        assert manual["metrics"] == [
            row for row in knob if row["name"] != "repro_run_wall_seconds"]
