"""Unit tests for repro.scenarios.builder and runner."""

import pytest

from repro.scenarios import (
    FlowSpec,
    ScenarioConfig,
    TopologyKind,
    build,
    paper,
    run,
)
from repro.scenarios.families import substituted
from repro.tcp import AimdControl, FixedWindowControl, TahoeControl


def _small_two_way(**kwargs):
    defaults = dict(
        name="small",
        flows=(
            FlowSpec(src="host1", dst="host2"),
            FlowSpec(src="host2", dst="host1"),
        ),
        duration=40.0,
        warmup=10.0,
        bottleneck_propagation=0.01,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestBuild:
    def test_dumbbell_ports_watched(self):
        built = build(_small_two_way())
        assert built.bottleneck_ports == ["sw1->sw2", "sw2->sw1"]
        assert set(built.traces.queues) == {"sw1->sw2", "sw2->sw1"}

    def test_connections_created_in_order(self):
        built = build(_small_two_way())
        assert [c.conn_id for c in built.connections] == [1, 2]
        assert built.connections[0].src_host == "host1"

    def test_flow_algorithms_respected(self):
        config = _small_two_way(flows=(
            FlowSpec(src="host1", dst="host2", algorithm="tahoe"),
            FlowSpec(src="host2", dst="host1", algorithm="fixed", window=4),
        ), buffer_packets=None)
        built = build(config)
        assert type(built.connections[0].sender.control) is TahoeControl
        control = built.connections[1].sender.control
        assert isinstance(control, FixedWindowControl)
        assert control.window == 4
        assert built.connections[1].is_fixed_window

    def test_algorithm_params_reach_the_strategy(self):
        config = _small_two_way(flows=(
            FlowSpec(src="host1", dst="host2", algorithm="aimd",
                     params={"a": 2.0, "b": 0.25}, window=12),
            FlowSpec(src="host2", dst="host1"),
        ))
        built = build(config)
        control = built.connections[0].sender.control
        assert isinstance(control, AimdControl)
        assert (control.a, control.b, control.window) == (2.0, 0.25, 12)

    def test_jittered_starts_deterministic_per_seed(self):
        config = _small_two_way(flows=(
            FlowSpec(src="host1", dst="host2", start_time=None),
            FlowSpec(src="host2", dst="host1", start_time=None),
        ), seed=5, start_jitter=3.0)
        built_a = build(config)
        built_b = build(config)
        built_a.sim.run(until=5.0)
        built_b.sim.run(until=5.0)
        assert (built_a.connections[0].sender.packets_sent
                == built_b.connections[0].sender.packets_sent)

    def test_chain_topology_ports(self):
        config = ScenarioConfig(
            name="chain", topology=TopologyKind.CHAIN, n_switches=3,
            flows=(FlowSpec(src="host1", dst="host3"),),
            duration=20.0, warmup=5.0,
        )
        built = build(config)
        assert "sw1->sw2" in built.bottleneck_ports
        assert "sw3->sw2" in built.bottleneck_ports
        assert len(built.bottleneck_ports) == 4


class TestRun:
    def test_result_shape(self):
        result = run(_small_two_way())
        assert result.events_processed > 0
        assert result.window == (10.0, 40.0)
        assert set(result.utilizations()) == {"sw1->sw2", "sw2->sw1"}

    def test_utilization_bounds(self):
        result = run(_small_two_way())
        for util in result.utilizations().values():
            assert 0.0 <= util <= 1.0

    def test_queue_accessors(self):
        result = run(_small_two_way())
        assert result.max_queue() >= 0
        assert len(result.queue_series()) > 0

    def test_epochs_accessor(self):
        result = run(_small_two_way(duration=120.0, warmup=30.0))
        epochs = result.epochs()
        for epoch in epochs:
            assert 30.0 <= epoch.start < 120.0

    def test_sync_accessors(self):
        result = run(_small_two_way(duration=120.0, warmup=30.0))
        verdict = result.queue_sync()
        assert -1.0 <= verdict.correlation <= 1.0
        window = result.window_sync(1, 2)
        assert -1.0 <= window.correlation <= 1.0

    def test_summary_is_text(self):
        result = run(_small_two_way())
        text = result.summary()
        assert "small" in text
        assert "sw1->sw2" in text
        records = result.traces.drops.records
        assert records  # the per-port counts below are not all zero
        for name in result.bottleneck_ports:
            line = next(row for row in text.splitlines()
                        if row.startswith(f"  {name}:"))
            assert line.endswith(
                f"drops={sum(1 for r in records if r.queue == name)}")

    def test_clustering_accessor(self):
        result = run(_small_two_way(duration=120.0, warmup=30.0))
        stats = result.clustering()
        assert stats.total_packets > 0

    def test_ack_compression_accessor(self):
        result = run(_small_two_way(duration=120.0, warmup=30.0))
        stats = result.ack_compression(1)
        assert 0.0 <= stats.compressed_fraction <= 1.0

    def test_determinism(self):
        a = run(_small_two_way())
        b = run(_small_two_way())
        assert a.events_processed == b.events_processed
        assert a.utilizations() == b.utilizations()


class TestAlgorithmOverride:
    """Counterfactuals are configs passed through ``substitute``."""

    def test_substituted_family(self):
        def make(value):
            return _small_two_way(duration=float(value))

        config = substituted(
            60, make_config=make, algorithm="aimd",
            params=(("a", 2.0), ("b", 0.25)))
        assert config.duration == 60.0
        assert config.algorithms == ("aimd",)
        assert all(flow.params == (("a", 2.0), ("b", 0.25))
                   for flow in config.flows)
        assert substituted(60, make_config=make, queue="red").name == "small+red"


class TestPaperFactories:
    @pytest.mark.parametrize("factory,flows", [
        (paper.figure2, 3),
        (paper.figure3, 10),
        (paper.figure4, 2),
        (paper.figure6, 2),
        (paper.figure8, 2),
        (paper.figure9, 2),
        (paper.four_switch, 6),
        (paper.four_switch_fifty, 50),
    ])
    def test_flow_counts(self, factory, flows):
        assert factory().n_connections == flows

    def test_figure2_parameters(self):
        config = paper.figure2()
        assert config.bottleneck_propagation == 1.0
        assert config.buffer_packets == 20

    def test_figure3_buffer_override(self):
        assert paper.figure3(buffer_packets=60).buffer_packets == 60

    def test_figure8_infinite_buffers(self):
        config = paper.figure8()
        assert config.buffer_packets is None
        windows = [f.window for f in config.flows]
        assert sorted(windows) == [25, 30]

    def test_zero_ack_factory(self):
        config = paper.zero_ack_fixed_window(30, 25, 0.01)
        assert config.tcp.ack_packet_bytes == 0

    def test_delayed_ack_factory(self):
        config = paper.delayed_ack_two_way(maxwnd=8)
        assert config.tcp.delayed_ack is True
        assert config.tcp.maxwnd == 8

    def test_one_way_flows_all_same_direction(self):
        config = paper.one_way(n_connections=4)
        assert all(f.src == "host1" for f in config.flows)
