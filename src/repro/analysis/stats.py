"""Batch means: error bars for steady-state measures.

A single long run's utilization has no error bar unless the window is
split into batches — the standard batch-means method for steady-state
discrete-event output analysis.  Batches must be long relative to the
system's cycle time so adjacent batches are roughly independent; for
the paper's configurations that means batches of several window
increase-decrease cycles.

Independent replications are batches too: a sweep whose values are
seeds (``sweep(partial(families.seeded, config=config), seeds,
extract)``) summarized by :func:`summarize` is a mean with a Student-t
95% interval per metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import AnalysisError
from repro.metrics.port_monitor import PortMonitor

__all__ = ["BatchStats", "batch_means", "summarize", "utilization_batches",
           "t_critical_95"]

# Two-sided 95% critical values of Student's t, indexed by degrees of
# freedom 1..30; beyond that the normal approximation is used.
_T_TABLE = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def t_critical_95(degrees_of_freedom: int) -> float:
    """Two-sided 95% Student-t critical value."""
    if degrees_of_freedom < 1:
        raise AnalysisError("need at least 1 degree of freedom")
    if degrees_of_freedom <= len(_T_TABLE):
        return _T_TABLE[degrees_of_freedom - 1]
    return 1.96


@dataclass(frozen=True)
class BatchStats:
    """Batch-means summary of one steady-state measure."""

    batches: tuple[float, ...]
    mean: float
    std: float
    ci_half_width: float

    @property
    def n(self) -> int:
        """Number of batches."""
        return len(self.batches)

    @property
    def ci_low(self) -> float:
        """Lower edge of the 95% confidence interval."""
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        """Upper edge of the 95% confidence interval."""
        return self.mean + self.ci_half_width


def batch_means(values: list[float]) -> BatchStats:
    """Summarize per-batch values with a Student-t 95% CI."""
    if len(values) < 2:
        raise AnalysisError("batch means needs at least two batches")
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = variance ** 0.5
    half = t_critical_95(n - 1) * std / (n ** 0.5)
    return BatchStats(batches=tuple(values), mean=mean, std=std,
                      ci_half_width=half)


def summarize(runs: Sequence[Mapping[str, float]]) -> dict[str, BatchStats]:
    """Batch means of every metric across independent runs (one
    measurement dict per run, e.g. a seed sweep's).  Every run must
    report the same metric names."""
    if not runs:
        raise AnalysisError("need at least one run")
    if any(set(run) != set(runs[0]) for run in runs):
        raise AnalysisError("runs produced inconsistent metric names")
    return {name: batch_means([float(run[name]) for run in runs])
            for name in runs[0]}


def utilization_batches(
    monitor: PortMonitor,
    start: float,
    end: float,
    n_batches: int = 10,
) -> BatchStats:
    """Batch-means utilization of a link over ``[start, end]``.

    Choose ``n_batches`` so each batch spans several oscillation cycles;
    with the paper's ~34 s cycles and a 300 s window, 5-10 batches is
    appropriate.
    """
    if n_batches < 2:
        raise AnalysisError("need at least two batches")
    if end <= start:
        raise AnalysisError(f"need end > start, got [{start}, {end}]")
    width = (end - start) / n_batches
    values = [
        monitor.utilization(start + i * width, start + (i + 1) * width)
        for i in range(n_batches)
    ]
    return batch_means(values)
