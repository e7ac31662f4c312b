"""Synchronization-mode classification: one rule for two signals, two
groups and N flows.

The paper distinguishes two modes for two-way traffic (§4.3):

- **in-phase**: the connections' windows (and the two bottleneck
  queues) rise and fall together — Figures 6-7;
- **out-of-phase**: one rises while the other falls — Figures 4-5 and
  the ten-connection data of Figure 3.

A population sharing a drop-tail bottleneck adds a third: the
**drop-synchronized** limit cycle studied by Malangadan/Raina/Ghosh,
where losses are global events hitting (almost) every connection in the
same congestion epoch.  Whatever fits none of the three is
**desynchronized** — what RED aims for, and what the paper means by
modes that "do not fit neatly" (§4.3.3).

One statistic carries all of it, :func:`mean_correlation`: the mean
Pearson correlation, over all pairs within one group of signals or all
pairs across two, of the signals resampled on a common grid with their
means removed.  Section 3.2's "connections sending in the same direction
are window-synchronized in-phase, but the connections with sources on
Host-1 are synchronized out-of-phase with the connections on Host-2" is
three sign tests over it.

One classifier, :func:`classify_sync`, grades N signals and the
congestion epochs they shared.  For N signals the mean pairwise
correlation is bounded below by ``-1/(N-1)``, so the out-of-phase
threshold scales by it; two signals and no epochs is the paper's §4.3
dichotomy, with the floor at ``-1/(2-1) = -1`` and the threshold
unscaled.  The supporting drop-coincidence fraction
(:func:`drop_coincidence`; with ``quorum=1.0`` it is the paper's
loss-synchronization) is exposed separately so sweeps can record the raw
numbers next to the categorical verdict.
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
    "classify_sync",
    "mean_correlation",
    "drop_coincidence",
    "alternation_fraction",
]


class SyncMode(enum.Enum):
    """The collective phase behavior of two or more oscillating signals."""

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
    SyncMode.DROP_SYNCHRONIZED: 3,
    SyncMode.IN_PHASE: 2,
    SyncMode.OUT_OF_PHASE: 1,
    SyncMode.DESYNCHRONIZED: 0,
}


@dataclass(frozen=True)
class SyncVerdict:
    """Classification result with its supporting statistics."""

    mode: SyncMode
    correlation: float
    """Mean pairwise Pearson correlation of the signals."""
    coincidence: float
    """Fraction of congestion epochs in which a loss quorum of the
    population lost packets (1.0 = every epoch is a global loss)."""
    n: int
    """How many signals were classified."""
    n_epochs: int


def _centre_each(
    series: Iterable[StepSeries], start: float, end: float, dt: float
) -> list[tuple[np.ndarray, float]]:
    """Each series as ``(v, v @ v)`` — its samples on the window's
    shared grid with their mean removed, and their squared norm: all a
    correlation needs from one series, computed once rather than once
    per pair it appears in."""
    if end <= start:
        raise AnalysisError(f"need end > start, got [{start}, {end}]")
    sampled = [s.sample(start, end, dt)[1] for s in series]
    if sampled and len(sampled[0]) < 4:
        raise AnalysisError("window too short for the requested sampling interval")
    centred = [v - v.mean() for v in sampled]
    return [(v, v @ v) for v in centred]


def _correlate(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> float:
    """Pearson correlation of two :func:`_centre_each` entries."""
    (va, saa), (vb, sbb) = a, b
    denom = float(np.sqrt(saa * sbb))
    if denom == 0.0:
        return 0.0  # at least one signal is constant: no phase information
    return float((va @ vb) / denom)


def mean_correlation(
    series: Sequence[StepSeries],
    start: float,
    end: float,
    dt: float = 0.25,
    *,
    across: Sequence[StepSeries] | None = None,
) -> float:
    """Mean Pearson correlation over all pairs within ``series`` — or,
    given ``across``, over all pairs of one signal from each group.

    Within one group of N it is bounded below by ``-1/(N-1)`` (perfectly
    staggered signals) and above by 1.0 (lock-step); a single series has
    no pairs and returns 0.0.

    One scalar expression per pair, summed in ``combinations`` /
    ``product`` order: a Gram matrix is faster and rounds differently in
    the last place, which every cached ``mean_correlation`` and
    measurement hash would see.
    """
    if not series or (across is not None and not across):
        raise AnalysisError("need at least one cwnd series")
    centred = _centre_each(series, start, end, dt)
    if across is None:
        pairs = itertools.combinations(centred, 2)
        count = len(centred) * (len(centred) - 1) // 2
    else:
        others = _centre_each(across, start, end, dt)
        pairs = itertools.product(centred, others)
        count = len(centred) * len(others)
    total = 0.0
    for a, b in pairs:
        total += _correlate(a, b)
    return total / count if count else 0.0


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
    ensemble-wide loss event).  ``quorum=1.0`` is the paper's strict
    loss-synchronization — the fraction of epochs in which *every*
    connection lost: 1.0 reproduces Figure 2, values near 0.0 with
    alternating single-connection losses are the out-of-phase mode of
    Figure 4.
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


def classify_sync(
    series: Sequence[StepSeries],
    start: float,
    end: float,
    epochs: Iterable[CongestionEpoch] = (),
    *,
    dt: float = 0.25,
    corr_threshold: float = 0.2,
    coincidence_threshold: float = 0.6,
    quorum: float = 0.5,
    min_epochs: int = 3,
) -> SyncVerdict:
    """Classify the collective phase behavior of ``len(series)`` signals.

    Drop-coincidence dominates: when most congestion epochs are global
    loss events the ensemble is drop-synchronized whatever the window
    correlations say (lock-step windows are a *consequence*).  Otherwise
    the mean pairwise correlation decides between in-phase, out-of-phase
    (threshold scaled by the ``-1/(N-1)`` attainable floor) and
    desynchronized.  Two signals and no epochs is the two-signal case:
    ``±corr_threshold`` on their one correlation.

    The coincidence fraction only gets a vote with at least
    ``min_epochs`` congestion epochs: in continuous-loss regimes the
    epoch clustering merges the whole window into one or two epochs and
    a coincidence over them carries no evidence of *repeated* global
    loss events.
    """
    epochs = list(epochs)
    n = len(series)
    coincidence = drop_coincidence(epochs, n, quorum=quorum)
    correlation = mean_correlation(series, start, end, dt)
    if len(epochs) >= min_epochs and coincidence >= coincidence_threshold:
        mode = SyncMode.DROP_SYNCHRONIZED
    elif correlation >= corr_threshold:
        mode = SyncMode.IN_PHASE
    elif correlation <= -corr_threshold / max(1, n - 1):
        mode = SyncMode.OUT_OF_PHASE
    else:
        mode = SyncMode.DESYNCHRONIZED
    return SyncVerdict(
        mode=mode,
        correlation=correlation,
        coincidence=coincidence,
        n=n,
        n_epochs=len(epochs),
    )
