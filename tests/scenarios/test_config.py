"""Unit tests for repro.scenarios.config."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    FlowSpec,
    ScenarioConfig,
    TopologyKind,
    substitute,
)
from repro.tcp import TcpOptions


def _flow(**kwargs):
    defaults = dict(src="host1", dst="host2")
    defaults.update(kwargs)
    return FlowSpec(**defaults)


def _config(**kwargs):
    defaults = dict(name="test", flows=(_flow(),))
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestFlowSpec:
    def test_tahoe_default(self):
        assert _flow().algorithm == "tahoe"
        assert _flow().params == ()

    def test_fixed_needs_window(self):
        with pytest.raises(ConfigurationError):
            _flow(algorithm="fixed")
        with pytest.raises(ConfigurationError):
            _flow(algorithm="fixed", window=0)
        assert _flow(algorithm="fixed", window=5).window == 5

    def test_unknown_algorithm_lists_registered(self):
        with pytest.raises(ConfigurationError, match="tahoe"):
            _flow(algorithm="vegas")

    def test_unknown_param_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError):
            _flow(algorithm="tahoe", params={"bogus": 1})

    def test_bad_param_value_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError):
            _flow(algorithm="aimd", params={"a": 1.0, "b": 2.0})

    def test_params_normalize_to_sorted_pairs(self):
        flow = _flow(algorithm="aimd", params={"b": 0.5, "a": 1.0})
        assert flow.params == (("a", 1.0), ("b", 0.5))
        assert flow == _flow(algorithm="aimd", params={"a": 1.0, "b": 0.5})
        assert hash(flow) == hash(_flow(algorithm="aimd",
                                        params=(("a", 1.0), ("b", 0.5))))

    def test_window_sugar_folds_into_params(self):
        flow = _flow(algorithm="aimd", params={"a": 1.0, "b": 0.5}, window=12)
        assert flow.effective_params() == {"a": 1.0, "b": 0.5, "window": 12}

    def test_window_given_twice_rejected(self):
        with pytest.raises(ConfigurationError):
            _flow(algorithm="fixed", params={"window": 5}, window=5)

    def test_same_endpoints_rejected(self):
        with pytest.raises(ConfigurationError):
            _flow(dst="host1")

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            _flow(start_time=-1.0)

    def test_none_start_means_jittered(self):
        assert _flow(start_time=None).start_time is None


class TestSubstituteAlgorithm:
    def test_replaces_every_flow_and_renames(self):
        config = _config(flows=(_flow(), _flow(src="host2", dst="host1")))
        swapped = substitute(config, algorithm="aimd", params={"a": 1.0, "b": 0.5})
        assert swapped.name == "test+aimd"
        assert swapped.algorithms == ("aimd",)
        assert all(f.params == (("a", 1.0), ("b", 0.5)) for f in swapped.flows)

    def test_keeps_window_and_start_time(self):
        config = _config(flows=(
            _flow(algorithm="fixed", window=30, start_time=None),))
        swapped = substitute(config, algorithm="aimd")
        assert swapped.flows[0].window == 30
        assert swapped.flows[0].start_time is None

    def test_every_other_flow_field_survives(self):
        # Differs from the FlowSpec default in every field, so a field the
        # substitution forgot shows as a reset to that default.
        flow = _flow(src="host2", dst="host1", algorithm="fixed", window=30,
                     start_time=None, access_propagation=0.0002)
        swapped = substitute(_config(flows=(flow,)), algorithm="aimd").flows[0]
        kept = [f for f in dataclasses.fields(FlowSpec)
                if f.name not in ("algorithm", "params")]
        assert kept
        for f in kept:
            assert getattr(flow, f.name) != f.default
            assert getattr(swapped, f.name) == getattr(flow, f.name), f.name

    def test_original_untouched(self):
        config = _config()
        substitute(config, algorithm="reno")
        assert config.flows[0].algorithm == "tahoe"

    def test_queue_then_both_rename_in_order(self):
        config = _config()
        red = substitute(config, queue="red", queue_params={"max_p": 0.05})
        assert red.name == "test+red"
        assert red.queue.params == (("max_p", 0.05),)
        assert red.flows == config.flows
        both = substitute(config, algorithm="aimd", queue="red")
        assert both.name == "test+aimd+red"
        assert both.algorithms == ("aimd",) and both.queue.name == "red"

    def test_params_without_their_owner_rejected(self):
        with pytest.raises(ConfigurationError):
            substitute(_config(), params={"a": 1.0})
        with pytest.raises(ConfigurationError):
            substitute(_config(), queue_params={"max_p": 0.05})

    def test_algorithms_property(self):
        config = _config(flows=(
            _flow(), _flow(src="host2", dst="host1", algorithm="reno")))
        assert config.algorithms == ("reno", "tahoe")


class TestScenarioValidation:
    def test_needs_flows(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(name="x", flows=())

    def test_duration_positive(self):
        with pytest.raises(ConfigurationError):
            _config(duration=0.0)

    def test_warmup_before_duration(self):
        with pytest.raises(ConfigurationError):
            _config(duration=100.0, warmup=100.0)

    def test_chain_needs_switches(self):
        with pytest.raises(ConfigurationError):
            _config(topology=TopologyKind.CHAIN, n_switches=1)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(start_jitter=-1.0)


class TestDerivedQuantities:
    def test_pipe_size_small(self):
        config = _config(bottleneck_propagation=0.01)
        assert config.pipe_size == pytest.approx(0.125)

    def test_pipe_size_large(self):
        config = _config(bottleneck_propagation=1.0)
        assert config.pipe_size == pytest.approx(12.5)

    def test_tx_times(self):
        config = _config()
        assert config.data_tx_time == pytest.approx(0.08)
        assert config.ack_tx_time == pytest.approx(0.008)

    def test_capacity_formula(self):
        config = _config(bottleneck_propagation=1.0, buffer_packets=20)
        assert config.capacity == int(20 + 2 * 12.5)

    def test_capacity_undefined_for_infinite_buffers(self):
        config = _config(buffer_packets=None)
        with pytest.raises(ConfigurationError):
            config.capacity

    def test_measurement_window(self):
        config = _config(duration=100.0, warmup=30.0)
        assert config.measurement_window == (30.0, 100.0)

    def test_n_connections(self):
        config = _config(flows=(_flow(), _flow()))
        assert config.n_connections == 2

    def test_with_updates(self):
        config = _config(buffer_packets=20)
        changed = config.with_updates(buffer_packets=60)
        assert changed.buffer_packets == 60
        assert config.buffer_packets == 20
        assert changed.name == config.name

    def test_zero_ack_tx_time(self):
        config = _config(tcp=TcpOptions(ack_packet_bytes=0))
        assert config.ack_tx_time == 0.0
