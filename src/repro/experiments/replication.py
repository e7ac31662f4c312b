"""Multi-seed replication: are the reproduced numbers seed-robust?

The paper reports single runs; our scenarios jitter start times from a
seed.  :func:`replicate` reruns a scenario family across seeds and
summarizes each extracted metric with mean, standard deviation and a
Student-t 95% confidence interval, so EXPERIMENTS.md claims can be
checked for robustness rather than luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.analysis.stats import t_critical_95
from repro.errors import AnalysisError
from repro.parallel.runner import ParallelSweepRunner
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import ScenarioResult

__all__ = ["MetricSummary", "replicate", "t_critical_95"]


@dataclass(frozen=True)
class MetricSummary:
    """Replication statistics for one metric."""

    name: str
    values: tuple[float, ...]
    mean: float
    std: float
    ci_half_width: float

    @property
    def n(self) -> int:
        """Number of replications."""
        return len(self.values)

    @property
    def ci_low(self) -> float:
        """Lower edge of the 95% confidence interval."""
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        """Upper edge of the 95% confidence interval."""
        return self.mean + self.ci_half_width

    def contains(self, value: float) -> bool:
        """Is ``value`` inside the confidence interval?"""
        return self.ci_low <= value <= self.ci_high

    def __str__(self) -> str:
        return (f"{self.name}: {self.mean:.4g} ± {self.ci_half_width:.2g} "
                f"(n={self.n}, 95% CI)")


def _summarize(name: str, values: list[float]) -> MetricSummary:
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(variance)
        half = t_critical_95(n - 1) * std / math.sqrt(n)
    else:
        std = 0.0
        half = float("inf")
    return MetricSummary(name=name, values=tuple(values), mean=mean,
                         std=std, ci_half_width=half)


def replicate(
    make_config: Callable[[int], ScenarioConfig],
    seeds: Iterable[int],
    extract: Callable[[ScenarioResult], dict[str, float]],
) -> dict[str, MetricSummary]:
    """Run ``make_config(seed)`` per seed; summarize extracted metrics.

    The seeds run as one :class:`~repro.parallel.runner.ParallelSweepRunner`
    sweep.  Every replication must produce the same metric names.
    """
    configs = [make_config(seed) for seed in seeds]
    if not configs:
        raise AnalysisError("need at least one seed")
    replications = ParallelSweepRunner().run_configs(configs, extract)
    if any(set(metrics) != set(replications[0]) for metrics in replications):
        raise AnalysisError("replications produced inconsistent metric names")
    return {name: _summarize(name, [float(metrics[name])
                                    for metrics in replications])
            for name in replications[0]}
