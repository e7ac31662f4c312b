"""Experiment harness: paper-vs-measured reproduction of every figure."""

from repro.experiments.report import (
    Experiment,
    ExperimentReport,
    MetricRow,
    format_reports_markdown,
)

__all__ = [
    "Experiment",
    "ExperimentReport",
    "MetricRow",
    "format_reports_markdown",
    "EXPERIMENTS",
    "experiment_ids",
    "run_experiment",
    "run_all",
]


def __getattr__(name):
    # The registry imports the experiment modules, which import the
    # scenario layer; resolve lazily to keep package import light and
    # cycle-free.
    if name in {"EXPERIMENTS", "experiment_ids", "run_experiment", "run_all"}:
        from repro.experiments import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
