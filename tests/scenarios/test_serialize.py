"""Unit tests for repro.scenarios.serialize."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import parity
from repro.experiments.registry import EXPERIMENTS, experiment_ids
from repro.parallel.cache import config_hash
from repro.scenarios import (
    FlowSpec,
    QueueSpec,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    paper,
    run,
    save_config,
)
from repro.tcp import TcpOptions

#: The paper factories at their defaults, then every config `repro
#: report` plans (49 points, 43 distinct), keyed `<experiment>-<index>`.
CONFIGS = {
    **{factory.__name__: factory() for factory in (
        paper.figure2, paper.figure3, paper.figure4, paper.figure6,
        paper.figure8, paper.figure9, paper.four_switch, paper.reno_two_way)},
    **{f"{exp_id}-{index}": config
       for exp_id in experiment_ids()
       for index, config in enumerate(EXPERIMENTS.factory(exp_id).plan())},
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_every_paper_config_round_trips(self, name):
        config = CONFIGS[name]
        restored = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert restored == config
        assert config_hash(restored) == config_hash(config)

    def test_rerun_from_saved_file_is_the_same_run(self, tmp_path):
        """A saved run is its config: re-running the file reproduces the
        live run section by section, which also catches state outside
        the config that equality cannot see."""
        [case] = parity.parity_cases(["figure4"])
        config = case.build()
        live = parity.section_hashes(run(config))
        path = save_config(config, tmp_path / "figure4.json")
        assert parity.section_hashes(run(load_config(path))) == live

    def test_tcp_options_preserved(self):
        config = paper.delayed_ack_two_way(maxwnd=8)
        restored = config_from_dict(config_to_dict(config))
        assert restored.tcp.delayed_ack is True
        assert restored.tcp.maxwnd == 8

    def test_queue_spec_preserved(self):
        config = paper.figure4().with_updates(
            queue=QueueSpec("red", {"min_th": 4, "max_th": 12}))
        restored = config_from_dict(config_to_dict(config))
        assert restored.queue == config.queue

    @pytest.mark.parametrize("flag", [True, False])
    def test_legacy_random_drop_flag_rejected(self, flag):
        document = config_to_dict(paper.figure4())
        document.pop("queue")
        document["random_drop"] = flag
        with pytest.raises(ConfigurationError,
                           match=r"unknown scenario fields: \['random_drop'\]"):
            config_from_dict(document)

    def test_queue_and_legacy_flag_together_rejected(self):
        document = config_to_dict(paper.figure4())
        document["random_drop"] = True
        with pytest.raises(ConfigurationError, match="random_drop"):
            config_from_dict(document)

    def test_file_round_trip(self, tmp_path):
        config = paper.figure8()
        path = save_config(config, tmp_path / "scenario.json")
        assert load_config(path) == config
        # The file is human-editable JSON.
        document = json.loads(path.read_text())
        assert document["name"] == "figure8"


class TestValidation:
    def test_missing_required_fields(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"name": "x"})
        with pytest.raises(ConfigurationError):
            config_from_dict({"flows": []})

    def test_unknown_scenario_field_rejected(self):
        document = config_to_dict(paper.figure4())
        document["bogus"] = 1
        with pytest.raises(ConfigurationError):
            config_from_dict(document)

    def test_unknown_flow_field_rejected(self):
        document = config_to_dict(paper.figure4())
        document["flows"][0]["oops"] = 1
        with pytest.raises(ConfigurationError):
            config_from_dict(document)

    def test_unknown_tcp_option_rejected(self):
        document = config_to_dict(paper.figure4())
        document["tcp"]["nagle"] = True
        with pytest.raises(ConfigurationError):
            config_from_dict(document)

    def test_unknown_algorithm_rejected_with_registered_names(self):
        document = config_to_dict(paper.figure4())
        document["flows"][0]["algorithm"] = "vegas"
        with pytest.raises(ConfigurationError, match="tahoe"):
            config_from_dict(document)

    def test_conflicting_kind_and_algorithm_rejected(self):
        document = config_to_dict(paper.figure4())
        document["flows"][0]["kind"] = "vegas"  # algorithm says "tahoe"
        with pytest.raises(ConfigurationError, match="kind"):
            config_from_dict(document)

    def test_params_must_be_object(self):
        document = config_to_dict(paper.figure4())
        document["flows"][0]["params"] = [1, 2]
        with pytest.raises(ConfigurationError):
            config_from_dict(document)

    def test_unknown_topology_rejected(self):
        document = config_to_dict(paper.figure4())
        document["topology"] = "torus"
        with pytest.raises(ConfigurationError):
            config_from_dict(document)


class TestAlgorithmRoundTrip:
    def _aimd_config(self):
        return ScenarioConfig(
            name="aimd-two-way",
            flows=(
                FlowSpec(src="host1", dst="host2", algorithm="aimd",
                         params={"a": 1.0, "b": 0.5}, window=30),
                FlowSpec(src="host2", dst="host1", algorithm="aimd",
                         params={"b": 0.25, "a": 2.0}),
            ),
        )

    def test_aimd_params_survive_round_trip(self):
        config = self._aimd_config()
        restored = config_from_dict(config_to_dict(config))
        assert restored == config
        assert restored.flows[0].effective_params() == {
            "a": 1.0, "b": 0.5, "window": 30}

    def test_aimd_params_survive_canonical_json(self):
        from repro.parallel.cache import canonical_config_json, config_hash

        config = self._aimd_config()
        blob = canonical_config_json(config)
        assert '"algorithm":"aimd"' in blob
        restored = config_from_dict(json.loads(blob))
        assert restored == config
        assert config_hash(restored) == config_hash(config)

    def test_param_order_does_not_change_the_hash(self):
        from repro.parallel.cache import config_hash

        ab = ScenarioConfig(name="x", flows=(
            FlowSpec(src="host1", dst="host2", algorithm="aimd",
                     params={"a": 1.0, "b": 0.5}),))
        ba = ScenarioConfig(name="x", flows=(
            FlowSpec(src="host1", dst="host2", algorithm="aimd",
                     params={"b": 0.5, "a": 1.0}),))
        assert config_hash(ab) == config_hash(ba)


class TestLegacyKindDocuments:
    """Documents written before the pluggable-algorithm architecture named
    a flow's algorithm ``kind``; that key is now an unknown flow field."""

    @pytest.mark.parametrize("kind", ["tahoe", "reno", "fixed"])
    def test_old_kind_values_rejected(self, kind):
        flow = {"src": "host1", "dst": "host2", "kind": kind}
        with pytest.raises(ConfigurationError,
                           match=r"unknown flow fields: \['kind'\]"):
            config_from_dict({"name": "legacy", "flows": [flow]})

    def test_rewritten_legacy_document_round_trips(self):
        legacy = {"name": "legacy", "flows": [
            {"src": "host1", "dst": "host2", "kind": "fixed",
             "window": 30, "start_time": None}]}
        with pytest.raises(ConfigurationError, match="kind"):
            config_from_dict(legacy)
        legacy["flows"][0]["algorithm"] = legacy["flows"][0].pop("kind")
        config = config_from_dict(legacy)
        assert config.flows[0].algorithm == "fixed"
        assert config_from_dict(config_to_dict(config)) == config


class TestMinimalDocuments:
    def test_defaults_fill_in(self):
        config = config_from_dict({
            "name": "minimal",
            "flows": [{"src": "host1", "dst": "host2"}],
        })
        assert config.buffer_packets == 20
        assert config.flows[0].algorithm == "tahoe"
        assert config.tcp == TcpOptions()

    def test_minimal_document_runs(self):
        from repro.scenarios import run

        config = config_from_dict({
            "name": "minimal",
            "flows": [{"src": "host1", "dst": "host2"}],
            "duration": 30.0,
            "warmup": 10.0,
        })
        result = run(config)
        assert result.events_processed > 0
