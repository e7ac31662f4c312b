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
compares its utilization pattern against a measured run's per-direction
utilizations.
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
    utilization_1: float
    utilization_2: float
    utilization_matches: bool


def check_prediction(
    prediction: ConjecturePrediction,
    utilization_1: float,
    utilization_2: float,
    full_threshold: float = 0.99,
) -> CheckResult:
    """Grade a measured run's utilization pattern against the conjecture.

    A line counts as "fully utilized" when its utilization exceeds
    ``full_threshold``.  Boundary predictions never fail (the conjecture
    is silent there).  The queue phase is not graded: measured with
    ``result.queue_sync()``, the predicted in-phase cases of the graded
    grid classify out-of-phase (see ``docs/analysis_methods.md``).
    """
    full_lines = sum(
        1 for u in (utilization_1, utilization_2) if u >= full_threshold
    )
    return CheckResult(
        prediction=prediction,
        utilization_1=utilization_1,
        utilization_2=utilization_2,
        utilization_matches=(prediction.boundary
                             or full_lines == prediction.fully_utilized_lines),
    )
