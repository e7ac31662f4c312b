"""Structured outcome reporting for supervised sweeps.

A resilient sweep never silently loses work, and it never silently
*recovers* work either: every attempt — success, timeout, crash, error —
is recorded, so a run that needed three tries to finish says so in its
report and in the per-point run manifests.  :class:`PointFailure` is the
terminal record of a point that exhausted its retry budget;
:class:`ResilienceReport` aggregates a whole sweep and serializes to the
JSON document ``repro sweep --report`` writes (and chaos CI uploads).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["AttemptRecord", "PointFailure", "ResilienceReport"]

#: Attempt outcome vocabulary (also used in manifests and progress lines).
OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_CRASH = "crash"
OUTCOME_ERROR = "error"


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt at one sweep point."""

    attempt: int
    outcome: str
    """``ok`` | ``timeout`` | ``crash`` | ``error``."""
    wall_seconds: float
    detail: str = ""
    """Error text, exit code, or timeout budget — human context."""


@dataclass(frozen=True)
class PointFailure:
    """A sweep point that failed every allowed attempt."""

    index: int
    run_id: str
    config_hash: str
    scenario: str
    attempts: int
    kind: str
    """Outcome of the final attempt: ``timeout`` | ``crash`` | ``error``."""
    message: str
    history: tuple[AttemptRecord, ...] = ()

    def to_dict(self) -> dict[str, object]:
        """A JSON-compatible representation (manifests, reports)."""
        return asdict(self)


@dataclass
class ResilienceReport:
    """Accumulated accounting of one supervised sweep execution."""

    points: int = 0
    journal_skips: int = 0
    """Points restored from the resume journal (zero recomputation)."""
    cache_hits: int = 0
    live: int = 0
    """Points that ran a simulation in this execution."""
    retries: int = 0
    """Failed attempts that were re-queued (not terminal)."""
    timeouts: int = 0
    crashes: int = 0
    errors: int = 0
    failures: list[PointFailure] = field(default_factory=list)
    attempts_by_index: dict[int, int] = field(default_factory=dict)
    """Attempts used per point index, for every point that needed > 1."""
    backend: str = "local"
    """Which execution backend ran the sweep's live points."""
    lease_reclaims: int = 0
    """Leases taken back from a worker that died, went silent, overran
    the point's budget or was fault-partitioned — on any backend."""
    duplicate_results: int = 0
    """At-least-once completions whose payload matched the accepted one
    and was deduplicated by content address."""
    conflicts: int = 0
    """Duplicate completions whose payload *differed* — both copies
    quarantined; a conflict means nondeterminism or corruption."""
    degraded_points: int = 0
    """Points completed by the local fallback after the configured
    backend became unavailable mid-sweep."""

    @property
    def ok(self) -> bool:
        """True when every point produced measurements."""
        return not self.failures

    @property
    def measured(self) -> int:
        """Points settled with measurements so far, from any source."""
        return self.journal_skips + self.cache_hits + self.live

    def count_attempt_outcome(self, outcome: str) -> None:
        """Bump the counter matching a failed attempt's outcome."""
        if outcome == OUTCOME_TIMEOUT:
            self.timeouts += 1
        elif outcome == OUTCOME_CRASH:
            self.crashes += 1
        else:
            self.errors += 1

    def to_dict(self) -> dict[str, object]:
        """The ``--report`` JSON document."""
        return {
            "points": self.points,
            "journal_skips": self.journal_skips,
            "cache_hits": self.cache_hits,
            "live": self.live,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "errors": self.errors,
            "backend": self.backend,
            "lease_reclaims": self.lease_reclaims,
            "duplicate_results": self.duplicate_results,
            "conflicts": self.conflicts,
            "degraded_points": self.degraded_points,
            "failed_points": len(self.failures),
            "attempts_by_index": {str(index): attempts for index, attempts
                                  in sorted(self.attempts_by_index.items())},
            "failures": [failure.to_dict() for failure in self.failures],
        }
