"""Synchronization-mode classification: two signals, two groups, N flows.

The paper distinguishes two modes for two-way traffic:

- **in-phase**: the connections' windows (and the two bottleneck
  queues) rise and fall together — Figures 6-7;
- **out-of-phase**: one rises while the other falls — Figures 4-5 and
  the ten-connection data of Figure 3.

Everything here rests on one statistic, :func:`phase_correlation`: the
Pearson correlation of two signals resampled on a common grid, after
removing their means.

**Two signals** (:func:`classify_phase`).  Strongly positive →
in-phase; strongly negative → out-of-phase; near zero → ambiguous (the
paper itself observes modes that "do not fit neatly" — §4.3.3).

**Two groups** (:func:`group_phase`).  Section 3.2, on the
ten-connection configuration: "the connections sending in the same
direction are window-synchronized in-phase, but the connections with
sources on Host-1 are synchronized out-of-phase with the connections on
Host-2."  The mean pairwise correlation within each group and across
the two gives one number per relationship for the harness to grade.

**N flows** (:func:`classify_ensemble`).  Given the cwnd traces of N
connections sharing a bottleneck, are they

- **drop-synchronized** — losses are global events hitting (almost)
  every connection in the same congestion epoch, the drop-tail
  limit-cycle pathology studied by Malangadan/Raina/Ghosh (large
  drop-tail buffers drive the whole ensemble into synchronized
  oscillations);
- **in-phase** — windows rise and fall together (positive mean pairwise
  correlation) without every epoch being a global loss;
- **out-of-phase** — connections take turns (negative mean pairwise
  correlation; for N signals the mean pairwise correlation is bounded
  below by ``-1/(N-1)``, so the threshold scales accordingly);
- **desynchronized** — no coherent phase relationship (what RED aims
  for: losses spread thinly and independently across the population).

The two supporting statistics — the drop-coincidence fraction over
congestion epochs (:func:`drop_coincidence`; with a full quorum it is
the paper's loss-synchronization, :func:`loss_synchronization`) and the
mean pairwise correlation (:func:`mean_pairwise_correlation`) — are
exposed separately so sweeps can record the raw numbers next to the
categorical verdict.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.analysis.epochs import CongestionEpoch
from repro.errors import AnalysisError
from repro.metrics.timeseries import StepSeries

__all__ = [
    "SyncMode",
    "SyncVerdict",
    "classify_phase",
    "phase_correlation",
    "loss_synchronization",
    "alternation_fraction",
    "GroupPhase",
    "group_phase",
    "EnsembleMode",
    "EnsembleVerdict",
    "classify_ensemble",
    "drop_coincidence",
    "mean_pairwise_correlation",
]


class SyncMode(enum.Enum):
    """The relative phase of two oscillating signals."""

    IN_PHASE = "in-phase"
    OUT_OF_PHASE = "out-of-phase"
    AMBIGUOUS = "ambiguous"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SyncVerdict:
    """Classification result with its supporting statistic."""

    mode: SyncMode
    correlation: float


def _sample_each(
    series: Iterable[StepSeries], start: float, end: float, dt: float
) -> list[np.ndarray]:
    """Every series resampled, once, on the window's shared grid."""
    if end <= start:
        raise AnalysisError(f"need end > start, got [{start}, {end}]")
    sampled = [s.sample(start, end, dt)[1] for s in series]
    if sampled and len(sampled[0]) < 4:
        raise AnalysisError("window too short for the requested sampling interval")
    return sampled


def _centre_each(
    series: Iterable[StepSeries], start: float, end: float, dt: float
) -> list[tuple[np.ndarray, float]]:
    """Each series as ``(v, v @ v)`` — its grid samples with their mean
    removed, and their squared norm: all a correlation needs from one
    series, computed once rather than once per pair it appears in."""
    centred = [v - v.mean() for v in _sample_each(series, start, end, dt)]
    return [(v, v @ v) for v in centred]


def _correlate(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> float:
    """Pearson correlation of two :func:`_centre_each` entries."""
    (va, saa), (vb, sbb) = a, b
    denom = float(np.sqrt(saa * sbb))
    if denom == 0.0:
        return 0.0  # at least one signal is constant: no phase information
    return float((va @ vb) / denom)


def _mean_correlation(centred: list[tuple[np.ndarray, float]]) -> float:
    """Mean of :func:`_correlate` over all pairs (0.0 when there is none).

    One scalar expression per pair, summed in index order: a Gram matrix
    is faster and rounds differently in the last place, which every
    cached ``mean_correlation`` and measurement hash would see.
    """
    pairs = len(centred) * (len(centred) - 1) // 2
    total = 0.0
    for a, b in itertools.combinations(centred, 2):
        total += _correlate(a, b)
    return total / pairs if pairs else 0.0


def phase_correlation(
    a: StepSeries,
    b: StepSeries,
    start: float,
    end: float,
    dt: float,
) -> float:
    """Pearson correlation of two step series resampled on a shared grid."""
    return _correlate(*_centre_each((a, b), start, end, dt))


def classify_phase(
    a: StepSeries,
    b: StepSeries,
    start: float,
    end: float,
    dt: float = 0.25,
    threshold: float = 0.2,
) -> SyncVerdict:
    """Classify two signals as in-phase / out-of-phase / ambiguous.

    ``threshold`` is the minimum |correlation| for a definite verdict.
    """
    corr = phase_correlation(a, b, start, end, dt)
    if corr >= threshold:
        return SyncVerdict(SyncMode.IN_PHASE, corr)
    if corr <= -threshold:
        return SyncVerdict(SyncMode.OUT_OF_PHASE, corr)
    return SyncVerdict(SyncMode.AMBIGUOUS, corr)


def alternation_fraction(epochs: list[CongestionEpoch]) -> float:
    """How often the single losing connection alternates between epochs.

    Considers only epochs where exactly one connection lost; returns the
    fraction of consecutive such epochs whose loser differs.  The paper's
    out-of-phase mode (Figure 4) alternates perfectly: "in the next
    congestion epoch, the roles are reversed."
    """
    losers = [next(iter(e.connections)) for e in epochs if len(e.connections) == 1]
    if len(losers) < 2:
        raise AnalysisError("need at least two single-loser epochs")
    changes = sum(1 for a, b in zip(losers, losers[1:]) if a != b)
    return changes / (len(losers) - 1)


def drop_coincidence(
    epochs: Iterable[CongestionEpoch],
    n_connections: int,
    *,
    quorum: float = 0.5,
) -> float:
    """Fraction of epochs in which ``>= quorum * n_connections``
    connections lost at least one packet.

    The default half-quorum is the usual "global synchronization"
    criterion for larger populations (a few laggards do not hide an
    ensemble-wide loss event); ``quorum=1.0`` is the strict
    :func:`loss_synchronization` statistic.
    """
    if n_connections < 1:
        raise AnalysisError(f"need >= 1 connection, got {n_connections}")
    if not 0.0 < quorum <= 1.0:
        raise AnalysisError(f"quorum must be in (0, 1], got {quorum}")
    epochs = list(epochs)
    if not epochs:
        return 0.0
    needed = quorum * n_connections
    hits = sum(1 for epoch in epochs if len(epoch.connections) >= needed)
    return hits / len(epochs)


def loss_synchronization(epochs: list[CongestionEpoch], n_connections: int) -> float:
    """Fraction of congestion epochs in which *every* connection lost.

    1.0 reproduces the one-way loss-synchronization of Figure 2; values
    near 0.0 with alternating single-connection losses correspond to the
    out-of-phase mode of Figure 4.
    """
    return drop_coincidence(epochs, n_connections, quorum=1.0)


def mean_pairwise_correlation(
    series: Sequence[StepSeries],
    start: float,
    end: float,
    dt: float = 0.25,
) -> float:
    """Mean Pearson correlation over all pairs of cwnd traces.

    Bounded below by ``-1/(N-1)`` for N series (perfectly staggered
    signals), above by 1.0 (lock-step).  A single series has no pairs
    and returns 0.0.
    """
    if not series:
        raise AnalysisError("need at least one cwnd series")
    return _mean_correlation(_centre_each(series, start, end, dt))


@dataclass(frozen=True)
class GroupPhase:
    """Mean pairwise correlations within and between two groups."""

    within_a: float
    within_b: float
    between: float

    @property
    def groups_internally_in_phase(self) -> bool:
        """True when both groups cohere positively."""
        return self.within_a > 0.0 and self.within_b > 0.0

    @property
    def groups_mutually_out_of_phase(self) -> bool:
        """True when the two groups anti-correlate."""
        return self.between < 0.0


def group_phase(
    group_a: list[StepSeries],
    group_b: list[StepSeries],
    start: float,
    end: float,
    dt: float = 0.25,
) -> GroupPhase:
    """Within- and between-group mean phase correlations."""
    if len(group_a) < 2 or len(group_b) < 2:
        raise AnalysisError("each group needs at least two series")
    centred_a = _centre_each(group_a, start, end, dt)
    centred_b = _centre_each(group_b, start, end, dt)
    cross = [_correlate(a, b) for a, b in itertools.product(centred_a, centred_b)]
    return GroupPhase(
        within_a=_mean_correlation(centred_a),
        within_b=_mean_correlation(centred_b),
        between=sum(cross) / len(cross),
    )


class EnsembleMode(enum.Enum):
    """The collective phase behavior of an N-connection ensemble."""

    DROP_SYNCHRONIZED = "drop-synchronized"
    IN_PHASE = "in-phase"
    OUT_OF_PHASE = "out-of-phase"
    DESYNCHRONIZED = "desynchronized"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def code(self) -> int:
        """A stable numeric code for sweep measurements (phase diagrams
        store floats): 3 drop-synchronized, 2 in-phase, 1 out-of-phase,
        0 desynchronized."""
        return _MODE_CODES[self]


_MODE_CODES = {
    EnsembleMode.DROP_SYNCHRONIZED: 3,
    EnsembleMode.IN_PHASE: 2,
    EnsembleMode.OUT_OF_PHASE: 1,
    EnsembleMode.DESYNCHRONIZED: 0,
}


@dataclass(frozen=True)
class EnsembleVerdict:
    """Classification result with its supporting statistics."""

    mode: EnsembleMode
    coincidence: float
    """Fraction of congestion epochs in which a loss quorum of the
    population lost packets (1.0 = every epoch is a global loss)."""
    correlation: float
    """Mean pairwise Pearson correlation of the cwnd traces."""
    n_connections: int
    n_epochs: int


def classify_ensemble(
    series: Sequence[StepSeries],
    epochs: Iterable[CongestionEpoch],
    n_connections: int,
    start: float,
    end: float,
    *,
    dt: float = 0.25,
    corr_threshold: float = 0.2,
    coincidence_threshold: float = 0.6,
    quorum: float = 0.5,
    min_epochs: int = 3,
) -> EnsembleVerdict:
    """Classify an N-connection ensemble's collective phase behavior.

    Drop-coincidence dominates: when most congestion epochs are global
    loss events the ensemble is drop-synchronized whatever the window
    correlations say (lock-step windows are a *consequence*).  Otherwise
    the mean pairwise cwnd correlation decides between in-phase,
    out-of-phase (threshold scaled by the ``-1/(N-1)`` attainable floor)
    and desynchronized.

    The coincidence fraction only gets a vote with at least
    ``min_epochs`` congestion epochs: in continuous-loss regimes the
    epoch clustering merges the whole window into one or two epochs and
    a coincidence over them carries no evidence of *repeated* global
    loss events.
    """
    epochs = list(epochs)
    coincidence = drop_coincidence(epochs, n_connections, quorum=quorum)
    correlation = mean_pairwise_correlation(series, start, end, dt)
    if len(epochs) >= min_epochs and coincidence >= coincidence_threshold:
        mode = EnsembleMode.DROP_SYNCHRONIZED
    elif correlation >= corr_threshold:
        mode = EnsembleMode.IN_PHASE
    elif correlation <= -corr_threshold / max(1, n_connections - 1):
        mode = EnsembleMode.OUT_OF_PHASE
    else:
        mode = EnsembleMode.DESYNCHRONIZED
    return EnsembleVerdict(
        mode=mode,
        coincidence=coincidence,
        correlation=correlation,
        n_connections=n_connections,
        n_epochs=len(epochs),
    )
