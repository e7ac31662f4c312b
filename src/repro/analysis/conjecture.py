"""The Section 4.3.3 zero-length-ACK conjecture.

For two fixed-window connections in opposite directions with windows
``W1 >= W2``, pipe size ``P`` (packets per direction), and *zero-length*
ACKs, the paper conjectures exactly two regimes:

1. ``W1 > W2 + 2P`` — the queues synchronize **out-of-phase** and only
   one line is fully utilized;
2. ``W1 < W2 + 2P`` — the queues synchronize **in-phase** and neither
   line is fully utilized (strictly, when the inequality is strict).

``W1 == W2 + 2P`` is the boundary; the conjecture makes no claim there.

:func:`predict` evaluates the criterion; :func:`check_prediction`
compares it against a measured run (queue phase + per-direction
utilizations).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.synchronization import SyncMode
from repro.errors import AnalysisError

__all__ = ["ConjecturePrediction", "predict", "CheckResult", "check_prediction"]


@dataclass(frozen=True)
class ConjecturePrediction:
    """What the conjecture says for one (W1, W2, P) triple."""

    w1: int
    w2: int
    pipe: float
    mode: SyncMode | None
    """The predicted queue phase; ``None`` on the boundary."""
    fully_utilized_lines: int
    """2 is never predicted with P > 0; 1 in the out-of-phase regime,
    0 in the strict in-phase regime."""
    boundary: bool
    """True when W1 == W2 + 2P exactly (no prediction made)."""


def predict(w1: int, w2: int, pipe: float) -> ConjecturePrediction:
    """Apply the zero-ACK criterion.  Windows are normalized so W1 >= W2."""
    if w1 < 1 or w2 < 1:
        raise AnalysisError("windows must be >= 1")
    if pipe < 0:
        raise AnalysisError(f"pipe size cannot be negative: {pipe}")
    hi, lo = max(w1, w2), min(w1, w2)
    threshold = lo + 2.0 * pipe
    if hi > threshold:
        return ConjecturePrediction(
            w1=hi, w2=lo, pipe=pipe, mode=SyncMode.OUT_OF_PHASE,
            fully_utilized_lines=1, boundary=False,
        )
    if hi < threshold:
        return ConjecturePrediction(
            w1=hi, w2=lo, pipe=pipe, mode=SyncMode.IN_PHASE,
            fully_utilized_lines=0, boundary=False,
        )
    return ConjecturePrediction(
        w1=hi, w2=lo, pipe=pipe, mode=None,
        fully_utilized_lines=0, boundary=True,
    )


@dataclass(frozen=True)
class CheckResult:
    """Comparison of a conjecture prediction against a measured run."""

    prediction: ConjecturePrediction
    measured_mode: SyncMode
    utilization_1: float
    utilization_2: float
    mode_matches: bool
    utilization_matches: bool

    @property
    def holds(self) -> bool:
        """True when both the mode and the utilization pattern match."""
        return self.mode_matches and self.utilization_matches


def check_prediction(
    prediction: ConjecturePrediction,
    measured_mode: SyncMode,
    utilization_1: float,
    utilization_2: float,
    full_threshold: float = 0.99,
) -> CheckResult:
    """Grade a measured run against the conjecture.

    A line counts as "fully utilized" when its utilization exceeds
    ``full_threshold``.  Boundary predictions never fail (the conjecture
    is silent there).
    """
    full_lines = sum(
        1 for u in (utilization_1, utilization_2) if u >= full_threshold
    )
    if prediction.boundary:
        mode_ok = True
        util_ok = True
    else:
        mode_ok = measured_mode == prediction.mode
        util_ok = full_lines == prediction.fully_utilized_lines
    return CheckResult(
        prediction=prediction,
        measured_mode=measured_mode,
        utilization_1=utilization_1,
        utilization_2=utilization_2,
        mode_matches=mode_ok,
        utilization_matches=util_ok,
    )
