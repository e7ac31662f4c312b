"""Parameter-sweep utilities.

Run a family of scenarios differing in one or two parameters and
collect a uniform record per run — the pattern behind the paper's
buffer-size and pipe-size observations, packaged for reuse by examples
and benchmarks.

Sweep points are independent deterministic runs, so :func:`sweep` can
fan them over a process pool (``jobs=N``) and memoize finished points in
the content-addressed on-disk cache (``cache=True``); see
:mod:`repro.parallel`.  Results are always returned in input order and
are identical whatever the ``jobs`` setting.  With ``jobs > 1`` the
``make_config`` values and the ``extract`` callable must be picklable —
use module-level functions such as the ones in
:mod:`repro.scenarios.families`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import ScenarioResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.runner import PointProgress
    from repro.resilience.policy import ResilienceConfig

__all__ = ["SweepPoint", "sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One run of a sweep: the varied value plus extracted measurements."""

    value: object
    measurements: dict[str, float]


def sweep(
    make_config: Callable[[object], ScenarioConfig],
    values: Iterable[object],
    extract: Callable[[ScenarioResult], dict[str, float]],
    *,
    jobs: int = 1,
    cache: object = None,
    on_progress: "Callable[[PointProgress], None] | None" = None,
    manifest: str | Path | None = None,
    resilience: "ResilienceConfig | bool | None" = None,
    backend: object = None,
) -> list[SweepPoint]:
    """Run ``make_config(v)`` for each value and extract measurements.

    Parameters
    ----------
    make_config:
        Builds the scenario for one swept value.
    values:
        The parameter values; results come back in this order.  An empty
        iterable is a configuration error — a sweep with no points is
        always a bug at the call site.
    extract:
        Maps a finished :class:`ScenarioResult` to named numbers.  Runs
        in the worker process when ``jobs > 1`` so only small dicts
        cross process boundaries.
    jobs:
        Worker processes; ``1`` (default) runs serially in-process.
    cache:
        ``True`` for the default on-disk cache, a path or
        :class:`~repro.parallel.cache.ResultCache` for a specific one,
        ``None``/``False`` (default) to disable.
    on_progress:
        Progress callback receiving
        :class:`~repro.parallel.runner.PointProgress` start/finish/retry/
        fail notifications with worker identity, cache-hit status and
        timing; a finish carries the point's measurements (cache hits
        first, then completions).  ``repro sweep`` prints its lines from
        these.
    manifest:
        Directory receiving one ``<run_id>.manifest.json`` provenance
        document per sweep point, cache hits included; the manifest's
        ``config_hash``/``cache_key`` match the result cache's
        addressing exactly.
    resilience:
        ``True`` or a :class:`~repro.resilience.policy.ResilienceConfig`
        runs the sweep under fault-tolerant supervision — per-point
        timeouts, bounded retries with deterministic backoff, worker
        crash containment, and optional checkpoint/resume through a
        :class:`~repro.resilience.journal.SweepJournal`.  The default
        ``None`` keeps the unsupervised hot path, where any point
        failure fails the whole sweep.
    backend:
        Which execution backend runs the live points: ``None`` (default)
        or ``"local"`` for this host's process pool, ``"worker"`` (or a
        configured :class:`~repro.parallel.backends.worker.WorkerBackend`)
        for the distributed fleet; non-local backends run supervised.
    """
    from repro.parallel.runner import ParallelSweepRunner

    runner = ParallelSweepRunner(jobs=jobs, cache=cache, resilience=resilience,
                                 backend=backend)
    return runner.run(make_config, values, extract, on_progress=on_progress,
                      manifest_dir=manifest)

