"""Unit tests for the experiment registry (no full runs here)."""

import re
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.registry import REGISTRY, experiment_ids, run_experiment


EXPECTED_IDS = [
    "fig2", "fig2_small_pipe", "fig3", "fig3_buf60", "fig4_5", "fig6_7",
    "fig8", "fig9", "ack_compression", "conjecture", "buffer_sweep",
    "delayed_ack", "four_switch", "clustering", "effective_pipe", "pacing",
    "unequal_rtt", "four_switch_fifty", "aimd_conjecture", "idle_scaling",
    "capacity", "droptail_sync", "red_meanfield",
]


class TestRegistry:
    def test_all_figures_registered(self):
        assert experiment_ids() == EXPECTED_IDS

    def test_committed_report_covers_exactly_the_registry(self):
        """EXPERIMENTS.md is `repro report` output; CI diffs the whole
        file, this catches a stale one without running anything."""
        report = Path(__file__).parents[2] / "EXPERIMENTS.md"
        sections = re.findall(r"^### `(\w+)`", report.read_text(), re.M)
        assert sections == experiment_ids()

    def test_entries_have_titles_and_runners(self):
        for experiment in REGISTRY.values():
            assert experiment.title
            assert callable(experiment.full)
            assert callable(experiment.fast)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("nope")

    def test_lazy_package_attribute(self):
        import repro.experiments as exp

        assert exp.experiment_ids() == EXPECTED_IDS
        with pytest.raises(AttributeError):
            exp.does_not_exist
