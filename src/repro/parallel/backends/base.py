"""The contract every sweep execution backend implements.

A backend executes the *live* points of one sweep — everything the
journal and cache prefilters left pending — and reports each point back
through the callbacks the runner packed into a :class:`BackendRequest`.
The runner owns all sweep-level state (results list, cache, journal,
report, manifests, telemetry); a backend owns only *how* points run:
in-process, on local worker processes, or leased out to a fleet of worker
agents.

That split is what makes degradation safe: when a distributed backend
raises :class:`~repro.errors.BackendUnavailable` mid-sweep, the runner
re-issues the same request — minus the points already completed or
terminally failed — to the local backend, and every callback keeps
accounting exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from repro.parallel.progress import PointProgress
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import ResilienceConfig
from repro.resilience.report import ResilienceReport
from repro.scenarios.config import ScenarioConfig

__all__ = ["BackendRequest", "SweepBackend"]


class CompleteFn(Protocol):
    """``complete(index, measurements, worker, wall_seconds, events,
    attempts=, snapshot=)`` — one point produced measurements."""

    def __call__(self, index: int, measurements: dict, worker: str,
                 wall_seconds: float, events: int, attempts: int = 1,
                 snapshot: dict | None = None) -> None: ...


class AttemptFailedFn(Protocol):
    """``attempt_failed(index, attempt, outcome, wall_seconds, detail,
    worker)`` — one attempt failed.  Returns the backoff delay in
    seconds when the point gets another try, or ``None`` when the
    failure is terminal (the runner has recorded a
    :class:`~repro.resilience.report.PointFailure`)."""

    def __call__(self, index: int, attempt: int, outcome: str,
                 wall_seconds: float, detail: str,
                 worker: str) -> float | None: ...


@dataclass
class BackendRequest:
    """Everything a backend needs to execute one sweep's live points.

    The callbacks close over runner state and must be called from the
    coordinating (parent) process only — backends never ship them to
    workers.
    """

    pending: Sequence[int]
    """Point indices still to execute, in input order."""
    configs: Sequence[ScenarioConfig]
    """All sweep configs; index into this with a pending index."""
    extract: Callable
    """Measurement extractor applied to each ScenarioResult."""
    jobs: int
    """Worker budget, already clamped to ``len(pending)`` by the runner."""
    complete: CompleteFn
    emit: Callable[[PointProgress], None]
    policy: ResilienceConfig | None = None
    """``None`` runs unsupervised (local backend only: no deadlines, no
    retries, the first failure fails the sweep); distributed backends
    always run supervised."""
    attempt_failed: AttemptFailedFn | None = None
    """Present whenever ``policy`` is — terminal-failure bookkeeping."""
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    metered: bool = False
    """Run points with metrics registries and ship snapshots back."""
    report: ResilienceReport | None = None
    """Supervised runs only; the coordinator bumps the lease counters
    (``lease_reclaims``, ``duplicate_results``) directly."""
    conflict: Callable[[int, dict, dict], None] | None = None
    """``conflict(index, accepted, duplicate)`` — an at-least-once
    duplicate completion disagreed with the accepted payload."""


class SweepBackend:
    """Base class: execute a :class:`BackendRequest` to completion.

    ``execute`` returns when every pending point has either completed
    (``request.complete`` called) or terminally failed
    (``request.attempt_failed`` returned ``None``).  It raises
    :class:`~repro.errors.BackendUnavailable` when the backend cannot
    make further progress at all — the signal for the runner to degrade
    the remaining points to the local backend.
    """

    #: Registry key and the value of ``ResilienceReport.backend``.
    name = "abstract"

    def execute(self, request: BackendRequest) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
