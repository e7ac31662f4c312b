"""Progress notifications of a sweep, whatever backend executes it.

The sweep ledger (:mod:`repro.parallel.runner`) is their only emitter;
``repro sweep --progress`` prints them.  With the per-point manifests
(``manifest_dir=``) and the resilience report they are the whole record
of how a sweep ran.
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
