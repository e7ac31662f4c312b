"""The contract every sweep execution backend implements.

A backend executes the *live* points of one sweep — everything the
journal and cache prefilters left pending — and reports each point back
through the sweep's ledger, handed over in a :class:`BackendRequest`.
The ledger owns all sweep-level state (results list, cache, journal,
report, manifests); a backend owns only *how* points run:
in-process, on local worker processes, or leased out to a fleet of
worker agents.

That split is what makes degradation safe: when a distributed backend
raises :class:`~repro.errors.BackendUnavailable` mid-sweep, the runner
re-issues the same request — minus the points already completed or
terminally failed — to the local backend, and the same ledger keeps
accounting exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.resilience.faults import FaultPlan
from repro.resilience.policy import ResilienceConfig
from repro.scenarios.config import ScenarioConfig

__all__ = ["BackendRequest", "SweepBackend"]


@dataclass
class BackendRequest:
    """Everything a backend needs to execute one sweep's live points."""

    pending: Sequence[int]
    """Point indices still to execute, in input order."""
    configs: Sequence[ScenarioConfig]
    """All sweep configs; index into this with a pending index."""
    extracts: Sequence[Callable]
    """Each config's measurement extractor, applied to its ScenarioResult
    (one per config, like ``configs``)."""
    jobs: int
    """Worker budget, already clamped to ``len(pending)`` by the runner."""
    ledger: Any
    """The sweep's books; ``started`` / ``settle`` / ``attempt_failed`` /
    ``duplicate`` / ``conflict`` / ``reclaimed`` are all a backend ever
    reports.  It holds runner state and must be called from the
    coordinating (parent) process only — backends never ship it to
    workers."""
    policy: ResilienceConfig | None = None
    """``None`` runs unsupervised (local backend only: no deadlines, no
    retries, the first failure fails the sweep); distributed backends
    always run supervised."""
    fault_plan: FaultPlan = field(default_factory=FaultPlan)


class SweepBackend:
    """Base class: execute a :class:`BackendRequest` to completion.

    ``execute`` returns when every pending point has either completed
    (``request.ledger.settle`` called) or terminally failed
    (``request.ledger.attempt_failed`` returned ``None``).  It raises
    :class:`~repro.errors.BackendUnavailable` when the backend cannot
    make further progress at all — the signal for the runner to degrade
    the remaining points to the local backend.
    """

    #: ``--backend`` name and the value of ``ResilienceReport.backend``.
    name = "abstract"

    def execute(self, request: BackendRequest) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
