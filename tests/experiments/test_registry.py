"""Unit tests for the experiment registry (no full runs here)."""

import re
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import Experiment
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from repro.registry import Registry
from tests.experiments.test_fast_pins import FAST_STDOUT


class TestRegistry:
    def test_all_figures_registered(self):
        """``FAST_STDOUT``'s keys are the one hand-kept list of experiment
        ids: registering another, or reordering the registry, fails here."""
        assert experiment_ids() == list(FAST_STDOUT)

    def test_committed_report_covers_exactly_the_registry(self):
        """EXPERIMENTS.md is `repro report` output; CI diffs the whole
        file, this catches a stale one without running anything."""
        report = Path(__file__).parents[2] / "EXPERIMENTS.md"
        sections = re.findall(r"^### `(\w+)`", report.read_text(), re.M)
        assert sections == experiment_ids()

    def test_entries_have_titles_and_runners(self):
        """Every entry is a declaration: configs for both parameter sets,
        a module-level extractor (workers re-import it), a grader."""
        for exp_id in experiment_ids():
            experiment = EXPERIMENTS.factory(exp_id)
            assert isinstance(experiment, Experiment)
            assert experiment.exp_id == exp_id
            assert experiment.title and experiment.paper_ref
            assert experiment.measure.__qualname__ == experiment.measure.__name__
            assert callable(experiment.grade)
            for params in (experiment.full, experiment.fast):
                assert experiment.configs(**params)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match=re.escape(
                "unknown experiment 'nope'; registered: ack_compression, aimd_conjecture,")):
            run_experiment("nope")

    def test_one_registry_class(self):
        assert type(EXPERIMENTS) is Registry
        with pytest.raises(ConfigurationError, match="already registered"):
            EXPERIMENTS.register("fig2", EXPERIMENTS.factory("fig2"))
        with pytest.raises(ConfigurationError, match="lowercase identifier"):
            EXPERIMENTS.register("Fig-10", EXPERIMENTS.factory("fig2"))

    def test_lazy_package_attribute(self):
        import repro.experiments as exp

        assert exp.experiment_ids() == experiment_ids()
        with pytest.raises(AttributeError):
            exp.does_not_exist

