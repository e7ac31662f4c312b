"""Scenario layer: declarative configs and the paper's named runs."""

from repro.scenarios import families, paper
from repro.scenarios.builder import BuiltScenario, build
from repro.scenarios.config import (
    FlowSpec,
    QueueSpec,
    ScenarioConfig,
    TopologyKind,
    substitute,
)
from repro.scenarios.runner import ScenarioResult, run
from repro.scenarios.serialize import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from repro.scenarios.sweeps import SweepPoint, sweep

__all__ = [
    "ScenarioConfig",
    "FlowSpec",
    "QueueSpec",
    "TopologyKind",
    "substitute",
    "BuiltScenario",
    "build",
    "run",
    "ScenarioResult",
    "paper",
    "families",
    "SweepPoint",
    "sweep",
    "config_to_dict",
    "config_from_dict",
    "save_config",
    "load_config",
]
