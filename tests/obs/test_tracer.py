"""Unit tests for repro.obs.tracer: the engine hook and instrumentation."""

import pytest

from repro.engine import Simulator
from repro.errors import ConfigurationError
from repro.obs import HOP_KINDS, Tracer, resolve_tracer
from repro.obs.model import span_category
from repro.scenarios import FlowSpec, ScenarioConfig, run
from repro.scenarios.builder import build


def two_way_config(**kwargs):
    defaults = dict(
        name="obs-tracer",
        flows=(
            FlowSpec(src="host1", dst="host2"),
            FlowSpec(src="host2", dst="host1"),
        ),
        duration=30.0,
        warmup=10.0,
        bottleneck_propagation=0.01,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestResolveTracer:
    def test_none_and_false_disable(self):
        assert resolve_tracer(None) is None
        assert resolve_tracer(False) is None

    def test_true_makes_default_tracer(self):
        tracer = resolve_tracer(True)
        assert isinstance(tracer, Tracer)
        assert tracer.record_hops and not tracer.record_spans

    def test_instance_passes_through(self):
        tracer = Tracer(record_spans=True)
        assert resolve_tracer(tracer) is tracer

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_tracer("yes")

    def test_inverted_window_rejected(self):
        with pytest.raises(ConfigurationError):
            Tracer(window=(5.0, 1.0))


class TestEngineHook:
    def test_every_event_observed(self):
        sim = Simulator()
        tracer = Tracer(record_spans=True)
        sim.set_tracer(tracer)
        for i in range(5):
            sim.schedule(0.1 * (i + 1), lambda: None, label="demo:tick")
        sim.run()
        assert tracer.events_observed == sim.events_processed == 5
        assert len(tracer.spans) == 5
        assert [span.category for span in tracer.spans] == ["tick"] * 5
        assert tracer.peak_calendar == 5
        # sim-times in dispatch order, wall times non-negative.
        assert [span.sim_time for span in tracer.spans] == pytest.approx(
            [0.1, 0.2, 0.3, 0.4, 0.5])
        assert all(span.wall_ns >= 0 for span in tracer.spans)

    def test_aggregates_without_span_storage(self):
        sim = Simulator()
        tracer = Tracer(record_spans=False)
        sim.set_tracer(tracer)
        sim.schedule(0.1, lambda: None, label="q:proc")
        sim.schedule(0.2, lambda: None, label="q:proc")
        sim.run()
        assert tracer.spans == []
        stats = tracer.categories()["proc"]
        assert stats.events == 2
        assert stats.wall_ns >= stats.max_wall_ns >= 0

    def test_step_is_traced(self):
        sim = Simulator()
        tracer = Tracer(record_spans=True)
        sim.set_tracer(tracer)
        sim.schedule(1.0, lambda: None, label="x:one")
        assert sim.step()
        assert tracer.events_observed == 1

    def test_tracer_sampled_at_run_start(self):
        # Attaching mid-run takes effect on the next run() call.
        sim = Simulator()
        tracer = Tracer()
        sim.schedule(0.1, lambda: sim.set_tracer(tracer), label="attach:late")
        sim.schedule(0.2, lambda: None, label="x:tick")
        sim.run()
        assert tracer.events_observed == 0
        sim.schedule(0.3, lambda: None, label="x:tick")
        sim.run()
        assert tracer.events_observed == 1

    def test_unlabeled_events_categorized(self):
        assert span_category("") == "unlabeled"
        assert span_category("sw1->sw2:txdone") == "txdone"
        assert span_category("plain") == "plain"


class TestInstrumentation:
    @pytest.fixture(scope="class")
    def traced(self):
        config = two_way_config()
        tracer = Tracer(record_spans=True)
        result = run(config, trace=tracer)
        return tracer, result

    def test_all_hop_kinds_recorded(self, traced):
        tracer, _ = traced
        kinds = {hop.hop for hop in tracer.hops}
        assert kinds == set(HOP_KINDS)

    def test_queue_occupancy_carried(self, traced):
        tracer, _ = traced
        enqueues = [h for h in tracer.hops
                    if h.hop == "enqueue" and h.site == "sw1->sw2"]
        assert enqueues
        assert all(h.queue_len >= 1 for h in enqueues)

    def test_transmit_duration_is_serialization_time(self, traced):
        tracer, result = traced
        transmits = tracer.hops_at("sw1->sw2", "transmit")
        data = [h for h in transmits if h.kind == "data"]
        assert data
        expected = result.config.data_tx_time
        assert all(h.duration == pytest.approx(expected) for h in data)

    def test_packet_journey_is_chronological(self, traced):
        tracer, _ = traced
        sends = [h for h in tracer.hops if h.hop == "send"]
        journey = tracer.packet_journey(sends[100].uid)
        assert len(journey) >= 3
        assert [h.sim_time for h in journey] == sorted(h.sim_time for h in journey)
        assert journey[0].hop == "send"

    def test_drop_hops_match_drop_log(self, traced):
        tracer, result = traced
        traced_drops = [h for h in tracer.hops if h.hop == "drop"]
        assert len(traced_drops) == len(result.traces.drops.records)

    def test_window_limits_storage_not_aggregates(self):
        config = two_way_config()
        windowed = Tracer(record_spans=True, window=(10.0, 20.0))
        result = run(config, trace=windowed)
        assert windowed.events_observed == result.events_processed
        assert windowed.hops
        assert all(10.0 <= h.sim_time < 20.0 for h in windowed.hops)
        assert all(10.0 <= s.sim_time < 20.0 for s in windowed.spans)

    def test_profile_sorted_by_wall_time(self, traced):
        tracer, _ = traced
        rows = tracer.profile()
        assert len(rows) >= 3
        assert [r.wall_ns for r in rows] == sorted(
            (r.wall_ns for r in rows), reverse=True)
        assert sum(r.events for r in rows) == tracer.events_observed

    def test_instrument_builds_once(self):
        built = build(two_way_config(duration=1.0, warmup=0.5))
        tracer = Tracer()
        assert tracer.instrument(built) is tracer
        assert built.sim.tracer is tracer
