"""The experiment table: every reproduced figure and claim, by id.

The table is the third :class:`~repro.registry.Registry` instance,
beside the window algorithms and the queue disciplines: one name rule,
one unknown-id message.  Its entries are :class:`~repro.experiments.report.Experiment`
declarations, kept in paper order.  ``run_experiment("fig4_5")``
executes one; ``run_all()`` regenerates the paper-vs-measured comparison
of EXPERIMENTS.md.  Both run their points as one sweep through the
sweep runner, so ``jobs=`` and ``cache=`` apply, and ``fast=True``
takes each experiment's shorter parameter set.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.experiments import extensions, fixed_window, one_way, population, two_way
from repro.experiments.report import Experiment, ExperimentReport, sweep_experiments
from repro.registry import Registry

__all__ = ["EXPERIMENTS", "experiment_ids", "run_experiment", "run_all"]

EXPERIMENTS: Registry[ExperimentReport] = Registry("experiment", ExperimentReport)

_PAPER_ORDER: tuple[Experiment, ...] = (
    one_way.fig2, one_way.fig2_small_pipe,
    two_way.fig3, two_way.fig3_buffer60, two_way.fig4_5, two_way.fig6_7,
    fixed_window.fig8, fixed_window.fig9, fixed_window.ack_compression,
    fixed_window.conjecture_sweep,
    two_way.buffer_sweep, two_way.delayed_ack,
    extensions.four_switch, extensions.clustering_two_way,
    extensions.effective_pipe, extensions.pacing, extensions.unequal_rtt,
    extensions.four_switch_fifty, extensions.aimd_conjecture,
    one_way.idle_scaling, one_way.capacity_check,
    population.droptail_sync, population.red_meanfield,
)
for _experiment in _PAPER_ORDER:
    EXPERIMENTS.register(_experiment.exp_id, _experiment)


def experiment_ids() -> list[str]:
    """All registered experiment ids, in paper order."""
    return [experiment.exp_id for experiment in _PAPER_ORDER]


def run_experiment(exp_id: str, fast: bool = False, *, jobs: int = 1,
                   cache: object = None,
                   substitution: Mapping[str, Any] | None = None
                   ) -> ExperimentReport:
    """Run one experiment by id through the sweep runner.

    ``substitution`` (:func:`~repro.scenarios.substitute` keywords)
    re-runs the experiment's scenarios under another window algorithm or
    queue discipline — the expected values still describe the original
    scenario, so treat the verdicts as a comparison, not a reproduction.
    """
    [report] = _run([exp_id], fast, jobs, cache, substitution)
    return report


def run_all(fast: bool = False, *, jobs: int = 1,
            cache: object = None) -> list[ExperimentReport]:
    """Run every registered experiment, in order, as one sweep."""
    return _run(experiment_ids(), fast, jobs, cache)


def _run(exp_ids: list[str], fast: bool, jobs: int, cache: object,
         substitution: Mapping[str, Any] | None = None
         ) -> list[ExperimentReport]:
    experiments: list[Experiment] = [
        EXPERIMENTS.factory(exp_id) for exp_id in exp_ids]  # type: ignore[misc]
    plans = [(experiment,
              experiment.plan(substitution, **(experiment.fast if fast else {})))
             for experiment in experiments]
    return [experiment.report(points) for experiment, points
            in zip(experiments, sweep_experiments(plans, jobs=jobs, cache=cache))]
