"""Progress notifications shared by every sweep execution backend.

Lives in its own module so backends, the runner front end, telemetry and
the dashboard can all import :class:`PointProgress` without touching the
runner (which imports the backends — keeping this here breaks the cycle).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PointProgress"]


@dataclass(frozen=True)
class PointProgress:
    """One progress notification from a sweep execution.

    ``phase`` is ``"start"`` when a point is handed to the process that
    will simulate it, ``"finish"`` when its measurements are
    available, and — on supervised runs — ``"retry"`` when a failed
    attempt is re-queued and ``"fail"`` when a point exhausts its retry
    budget.  Cache and journal hits finish immediately with
    ``cached=True`` and no execution statistics.
    """

    index: int
    phase: str
    cached: bool = False
    worker: str = ""
    wall_seconds: float = 0.0
    events_processed: int = 0
    attempt: int = 1
