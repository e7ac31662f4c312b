"""The experiment registry: every reproduced figure/claim by id.

``run_experiment("fig4_5")`` executes one; ``run_all()`` regenerates the
full paper-vs-measured comparison used for EXPERIMENTS.md.  ``fast=True``
shrinks simulation durations ~4x for smoke testing; verdicts are tuned
for the full durations and may occasionally differ in fast mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.experiments import extensions, fixed_window, one_way, population, two_way
from repro.experiments.report import ExperimentReport

__all__ = ["Experiment", "REGISTRY", "experiment_ids", "run_experiment", "run_all"]


@dataclass(frozen=True)
class Experiment:
    """A named, runnable reproduction experiment."""

    exp_id: str
    title: str
    full: Callable[[], ExperimentReport]
    fast: Callable[[], ExperimentReport]


def _experiments() -> list[Experiment]:
    return [
        Experiment(
            "fig2", "One-way, 3 connections, tau=1s (Figure 2)",
            full=lambda: one_way.fig2(),
            fast=lambda: one_way.fig2(duration=250.0, warmup=100.0),
        ),
        Experiment(
            "fig2_small_pipe", "One-way, tau=0.01s (Section 3.1)",
            full=lambda: one_way.fig2_small_pipe(),
            fast=lambda: one_way.fig2_small_pipe(duration=150.0, warmup=50.0),
        ),
        Experiment(
            "fig3", "Two-way 5+5 connections (Figure 3)",
            full=lambda: two_way.fig3(),
            fast=lambda: two_way.fig3(duration=300.0, warmup=120.0),
        ),
        Experiment(
            "fig3_buf60", "Figure 3 with doubled buffers",
            full=lambda: two_way.fig3_buffer60(),
            fast=lambda: two_way.fig3_buffer60(duration=300.0, warmup=120.0),
        ),
        Experiment(
            "fig4_5", "Two-way 1+1, tau=0.01s (Figures 4-5)",
            full=lambda: two_way.fig4_5(),
            fast=lambda: two_way.fig4_5(duration=350.0, warmup=150.0),
        ),
        Experiment(
            "fig6_7", "Two-way 1+1, tau=1s (Figures 6-7)",
            full=lambda: two_way.fig6_7(),
            fast=lambda: two_way.fig6_7(duration=500.0, warmup=200.0),
        ),
        Experiment(
            "fig8", "Fixed windows 30/25, tau=0.01s (Figure 8)",
            full=lambda: fixed_window.fig8(),
            fast=lambda: fixed_window.fig8(duration=200.0, warmup=100.0),
        ),
        Experiment(
            "fig9", "Fixed windows 30/25, tau=1s (Figure 9)",
            full=lambda: fixed_window.fig9(),
            fast=lambda: fixed_window.fig9(duration=300.0, warmup=150.0),
        ),
        Experiment(
            "ack_compression", "ACK-compression mechanics (Section 4.2)",
            full=lambda: fixed_window.ack_compression(),
            fast=lambda: fixed_window.ack_compression(duration=200.0, warmup=100.0),
        ),
        Experiment(
            "conjecture", "Zero-ACK synchronization conjecture (Section 4.3.3)",
            full=lambda: fixed_window.conjecture_sweep(),
            fast=lambda: fixed_window.conjecture_sweep(duration=150.0, warmup=100.0),
        ),
        Experiment(
            "buffer_sweep", "Utilization vs buffer size (Section 4.3.1)",
            full=lambda: two_way.buffer_sweep(),
            fast=lambda: two_way.buffer_sweep(duration=300.0, warmup=120.0),
        ),
        Experiment(
            "delayed_ack", "Delayed-ACK option (Section 5)",
            full=lambda: two_way.delayed_ack(),
            fast=lambda: two_way.delayed_ack(duration=250.0, warmup=100.0),
        ),
        Experiment(
            "four_switch", "Four-switch chain (Section 5)",
            full=lambda: extensions.four_switch(),
            fast=lambda: extensions.four_switch(duration=250.0, warmup=100.0),
        ),
        Experiment(
            "clustering", "Packet clustering (Sections 3.1/4.1)",
            full=lambda: extensions.clustering_two_way(),
            fast=lambda: extensions.clustering_two_way(duration=250.0, warmup=100.0),
        ),
        Experiment(
            "effective_pipe", "Effective pipe vs buffer size (Section 4.3.1)",
            full=lambda: extensions.effective_pipe(),
            fast=lambda: extensions.effective_pipe(duration=300.0, warmup=120.0),
        ),
        Experiment(
            "pacing", "Pacing counterfactual (Sections 3.1/6)",
            full=lambda: extensions.pacing(),
            fast=lambda: extensions.pacing(duration=200.0, warmup=80.0),
        ),
        Experiment(
            "unequal_rtt", "Clustering vs unequal RTTs (Section 5)",
            full=lambda: extensions.unequal_rtt(),
            fast=lambda: extensions.unequal_rtt(duration=250.0, warmup=100.0),
        ),
        Experiment(
            "four_switch_fifty", "50 connections on the [19] chain (Section 5)",
            full=lambda: extensions.four_switch_fifty(),
            fast=lambda: extensions.four_switch_fifty(duration=250.0, warmup=100.0),
        ),
        Experiment(
            "aimd_conjecture", "Conjecture grid under AIMD(1, 0.5) (Section 6)",
            full=lambda: extensions.aimd_conjecture(),
            fast=lambda: extensions.aimd_conjecture(duration=150.0, warmup=100.0),
        ),
        Experiment(
            "idle_scaling", "One-way idle time vs buffer size (Section 3.1)",
            full=lambda: one_way.idle_scaling(),
            fast=lambda: one_way.idle_scaling(duration=250.0, warmup=100.0),
        ),
        Experiment(
            "capacity", "Capacity formula C = B + 2P (Section 3.1)",
            full=lambda: one_way.capacity_check(),
            fast=lambda: one_way.capacity_check(duration=250.0, warmup=100.0),
        ),
        Experiment(
            "droptail_sync",
            "Drop-tail synchronization vs buffer size (N flows)",
            full=lambda: population.droptail_sync(),
            fast=lambda: population.droptail_sync(duration=150.0, warmup=60.0),
        ),
        Experiment(
            "red_meanfield",
            "RED ensemble mean vs mean-field prediction",
            full=lambda: population.red_meanfield(),
            fast=lambda: population.red_meanfield(duration=150.0, warmup=60.0,
                                                  ns=(2, 4, 8)),
        ),
    ]


REGISTRY: dict[str, Experiment] = {exp.exp_id: exp for exp in _experiments()}


def experiment_ids() -> list[str]:
    """All registered experiment ids, in paper order."""
    return list(REGISTRY)


def run_experiment(exp_id: str, fast: bool = False) -> ExperimentReport:
    """Run one experiment by id.

    To re-run an experiment's scenarios under another window algorithm
    or queue discipline, call this inside
    :func:`~repro.scenarios.runner.override` — the expected values still
    describe the original scenario, so treat the verdicts as a
    comparison, not a reproduction.
    """
    if exp_id not in REGISTRY:
        raise ConfigurationError(
            f"unknown experiment {exp_id!r}; known: {', '.join(REGISTRY)}"
        )
    experiment = REGISTRY[exp_id]
    return experiment.fast() if fast else experiment.full()


def run_all(fast: bool = False) -> list[ExperimentReport]:
    """Run every registered experiment, in order."""
    return [run_experiment(exp_id, fast=fast) for exp_id in REGISTRY]
