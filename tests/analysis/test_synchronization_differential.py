"""The one classifier and the one mean correlation against what they
replaced.

Two generations of referee live here, both frozen verbatim:

- the **per-pair definition** from before the sample-once change
  (``_frozen_*``): ``mean_pairwise_correlation`` and ``group_phase`` used
  to call ``phase_correlation`` once per pair, and every call resampled
  and re-centred both series;
- the **three classifiers** of the parent of the one-classifier change
  (``classify_phase``, ``group_phase``, ``classify_ensemble`` and what
  they stand on, under their own names below — the new code is reached
  through ``sync.``).

The arithmetic per pair and the order of summation never changed, so
every float must compare equal with ``==`` (they feed
``mean_correlation`` and through it every cached measurement hash), the
mode must be the same mode (``AMBIGUOUS`` is what ``DESYNCHRONIZED`` was
called for two signals), and every rejected input must be rejected with
the same message.
"""

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import synchronization as sync
from repro.analysis.epochs import CongestionEpoch
from repro.errors import AnalysisError
from repro.metrics import StepSeries
from repro.metrics.drop_log import DropRecord


# --- The frozen three classifiers (verbatim from the parent, docstrings ----
# --- dropped) ---------------------------------------------------------------

class SyncMode(enum.Enum):
    IN_PHASE = "in-phase"
    OUT_OF_PHASE = "out-of-phase"
    AMBIGUOUS = "ambiguous"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SyncVerdict:
    mode: SyncMode
    correlation: float


def _sample_each(
    series: Iterable[StepSeries], start: float, end: float, dt: float
) -> list[np.ndarray]:
    if end <= start:
        raise AnalysisError(f"need end > start, got [{start}, {end}]")
    sampled = [s.sample(start, end, dt)[1] for s in series]
    if sampled and len(sampled[0]) < 4:
        raise AnalysisError("window too short for the requested sampling interval")
    return sampled


def _centre_each(
    series: Iterable[StepSeries], start: float, end: float, dt: float
) -> list[tuple[np.ndarray, float]]:
    centred = [v - v.mean() for v in _sample_each(series, start, end, dt)]
    return [(v, v @ v) for v in centred]


def _correlate(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> float:
    (va, saa), (vb, sbb) = a, b
    denom = float(np.sqrt(saa * sbb))
    if denom == 0.0:
        return 0.0  # at least one signal is constant: no phase information
    return float((va @ vb) / denom)


def _mean_correlation(centred: list[tuple[np.ndarray, float]]) -> float:
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
    return _correlate(*_centre_each((a, b), start, end, dt))


def classify_phase(
    a: StepSeries,
    b: StepSeries,
    start: float,
    end: float,
    dt: float = 0.25,
    threshold: float = 0.2,
) -> SyncVerdict:
    corr = phase_correlation(a, b, start, end, dt)
    if corr >= threshold:
        return SyncVerdict(SyncMode.IN_PHASE, corr)
    if corr <= -threshold:
        return SyncVerdict(SyncMode.OUT_OF_PHASE, corr)
    return SyncVerdict(SyncMode.AMBIGUOUS, corr)


def drop_coincidence(
    epochs: Iterable[CongestionEpoch],
    n_connections: int,
    *,
    quorum: float = 0.5,
) -> float:
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


def mean_pairwise_correlation(
    series: Sequence[StepSeries],
    start: float,
    end: float,
    dt: float = 0.25,
) -> float:
    if not series:
        raise AnalysisError("need at least one cwnd series")
    return _mean_correlation(_centre_each(series, start, end, dt))


@dataclass(frozen=True)
class GroupPhase:
    within_a: float
    within_b: float
    between: float

    @property
    def groups_internally_in_phase(self) -> bool:
        return self.within_a > 0.0 and self.within_b > 0.0

    @property
    def groups_mutually_out_of_phase(self) -> bool:
        return self.between < 0.0


def group_phase(
    group_a: list[StepSeries],
    group_b: list[StepSeries],
    start: float,
    end: float,
    dt: float = 0.25,
) -> GroupPhase:
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
    DROP_SYNCHRONIZED = "drop-synchronized"
    IN_PHASE = "in-phase"
    OUT_OF_PHASE = "out-of-phase"
    DESYNCHRONIZED = "desynchronized"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def code(self) -> int:
        return _MODE_CODES[self]


_MODE_CODES = {
    EnsembleMode.DROP_SYNCHRONIZED: 3,
    EnsembleMode.IN_PHASE: 2,
    EnsembleMode.OUT_OF_PHASE: 1,
    EnsembleMode.DESYNCHRONIZED: 0,
}


@dataclass(frozen=True)
class EnsembleVerdict:
    mode: EnsembleMode
    coincidence: float
    correlation: float
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


# --- The frozen per-pair definition (as of the parent of the sample-once ---
# --- change) ----------------------------------------------------------------

def _frozen_phase_correlation(a, b, start, end, dt):
    if end <= start:
        raise AnalysisError(f"need end > start, got [{start}, {end}]")
    _, va = a.sample(start, end, dt)
    _, vb = b.sample(start, end, dt)
    if len(va) < 4:
        raise AnalysisError("window too short for the requested sampling interval")
    va = va - va.mean()
    vb = vb - vb.mean()
    denom = float(np.sqrt((va @ va) * (vb @ vb)))
    if denom == 0.0:
        return 0.0
    return float((va @ vb) / denom)


def _frozen_mean_pairwise(series, start, end, dt):
    if not series:
        raise AnalysisError("need at least one cwnd series")
    if len(series) == 1:
        # The one deliberate difference: a lone series used to answer
        # 0.0 for a window that two series reject.  The oracle validates
        # the window the way a pair would.
        _frozen_phase_correlation(series[0], series[0], start, end, dt)
        return 0.0
    pairs = list(itertools.combinations(range(len(series)), 2))
    total = 0.0
    for i, j in pairs:
        total += _frozen_phase_correlation(series[i], series[j], start, end, dt)
    return total / len(pairs)


def _frozen_group_rows(group_a, group_b, start, end, dt):
    within_a = _frozen_mean_pairwise(group_a, start, end, dt)
    within_b = _frozen_mean_pairwise(group_b, start, end, dt)
    cross = [_frozen_phase_correlation(a, b, start, end, dt)
             for a, b in itertools.product(group_a, group_b)]
    return GroupPhase(within_a, within_b, sum(cross) / len(cross))


def _frozen_group_phase(group_a, group_b, start, end, dt):
    if len(group_a) < 2 or len(group_b) < 2:
        raise AnalysisError("each group needs at least two series")
    return _frozen_group_rows(group_a, group_b, start, end, dt)


# --- Comparing -------------------------------------------------------------

def _outcome(compute):
    """The value, or the error's text — compared with ``==`` either way."""
    try:
        return ("value", compute())
    except AnalysisError as error:
        return ("error", str(error))


def _same_mode(old):
    """The one enum's member for a member of either old enum."""
    return sync.SyncMode["DESYNCHRONIZED" if old is SyncMode.AMBIGUOUS
                         else old.name]


def _group_rows(group_a, group_b, start, end, dt):
    """What ``group_phase`` returned, stated over the one function."""
    return GroupPhase(
        within_a=sync.mean_correlation(group_a, start, end, dt),
        within_b=sync.mean_correlation(group_b, start, end, dt),
        between=sync.mean_correlation(group_a, start, end, dt, across=group_b),
    )


# --- Inputs ----------------------------------------------------------------

_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def step_series(draw):
    """Empty, constant, a single change-point, or a ragged staircase."""
    initial = draw(_values)
    series = StepSeries("cwnd", initial)
    steps = draw(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                  _values),
        min_size=0, max_size=30))
    time = draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    constant = draw(st.booleans())
    for gap, value in steps:
        time += gap
        series.record(time, initial if constant else value)
    return series


@st.composite
def windows(draw):
    """``(start, end, dt)`` — mostly usable, sometimes empty, reversed,
    shorter than four samples, or with a non-positive interval."""
    start = draw(st.floats(min_value=0.0, max_value=40.0, allow_nan=False))
    dt = draw(st.sampled_from([0.25, 0.5, 1.0, 3.0, 0.0, -1.0]))
    length = draw(st.one_of(
        st.floats(min_value=-1.0, max_value=60.0, allow_nan=False),
        st.sampled_from([0.0, 0.25, 0.75, 1.0, 3.0, 4.0])))
    return start, start + length, dt


@st.composite
def epoch_lists(draw):
    """None to eight congestion epochs, each losing packets of any subset
    (with repeats, possibly empty) of connections 0 … 13 — so a quorum of
    a 0 … 12 population is sometimes met, sometimes missed, and some
    losers are not in the population at all."""
    losers = draw(st.lists(st.lists(st.integers(0, 13), max_size=20),
                           max_size=8))
    return [CongestionEpoch(
        start=10.0 * k, end=10.0 * k + 1.0,
        drops=[DropRecord(time=10.0 * k, queue="q", conn_id=conn,
                          is_data=True, seq=0, is_retransmit=False)
               for conn in conns]) for k, conns in enumerate(losers)]


_thresholds = st.one_of(st.sampled_from([0.2, 0.0, 0.6, 1.0]),
                        st.floats(min_value=0.0, max_value=1.0))

#: The five keywords the classifier has, each sometimes left at its
#: default; the quorum is sometimes outside (0, 1].
keywords = st.fixed_dictionaries({}, optional={
    "corr_threshold": _thresholds,
    "coincidence_threshold": _thresholds,
    "quorum": st.sampled_from([0.5, 1.0, 0.25, 0.01, 0.0, 1.5, -0.5]),
    "min_epochs": st.integers(0, 6),
})


# --- The differential: the mean correlation --------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(step_series(), min_size=0, max_size=12), windows())
def test_mean_pairwise_equals_the_per_pair_definition(series, window):
    expected = _outcome(lambda: _frozen_mean_pairwise(series, *window))
    assert _outcome(lambda: sync.mean_correlation(series, *window)) == expected
    assert _outcome(lambda: mean_pairwise_correlation(series, *window)) == expected


@settings(max_examples=150, deadline=None)
@given(st.lists(step_series(), min_size=0, max_size=6),
       st.lists(step_series(), min_size=0, max_size=6), windows())
def test_group_phase_equals_the_per_pair_definition(group_a, group_b, window):
    expected = _outcome(lambda: _frozen_group_phase(group_a, group_b, *window))
    assert _outcome(lambda: group_phase(group_a, group_b, *window)) == expected
    rows = _outcome(lambda: _group_rows(group_a, group_b, *window))
    if len(group_a) >= 2 and len(group_b) >= 2:
        assert rows == expected
    else:
        # ``group_phase`` refused a group of fewer than two outright.
        # The one function has the rule it has everywhere: an empty
        # group is an error, a lone series has no pair within itself
        # (0.0) and one pair with each member of the other group.
        assert expected == ("error", "each group needs at least two series")
        assert rows == _outcome(
            lambda: _frozen_group_rows(group_a, group_b, *window))


@settings(max_examples=150, deadline=None)
@given(step_series(), step_series(), windows())
def test_phase_correlation_is_unchanged(a, b, window):
    expected = _outcome(lambda: _frozen_phase_correlation(a, b, *window))
    assert _outcome(lambda: phase_correlation(a, b, *window)) == expected
    assert _outcome(lambda: sync.mean_correlation([a, b], *window)) == expected
    assert _outcome(
        lambda: sync.mean_correlation([a], *window, across=[b])) == expected
    if expected[0] == "value":
        start, end, dt = window
        assert sync.classify_sync([a, b], start, end,
                                  dt=dt).correlation == expected[1]


def test_a_lone_series_is_held_to_the_window_a_pair_is():
    series = [StepSeries("cwnd", 1.0)]
    assert sync.mean_correlation(series, 0.0, 10.0) == 0.0
    for start, end, dt in [(5.0, 5.0, 0.25), (5.0, 4.0, 0.25), (0.0, 0.5, 0.25)]:
        lone = _outcome(lambda: sync.mean_correlation(series, start, end, dt))
        pair = _outcome(lambda: sync.mean_correlation(series * 2, start, end, dt))
        assert lone == pair and lone[0] == "error"


# --- The differential: the classifier --------------------------------------

@settings(max_examples=200, deadline=None)
@given(step_series(), step_series(), windows(), _thresholds)
def test_two_signals_and_no_epochs_is_what_classify_phase_was(
        a, b, window, threshold):
    start, end, dt = window
    old = _outcome(lambda: classify_phase(a, b, start, end, dt, threshold))
    new = _outcome(lambda: sync.classify_sync(
        [a, b], start, end, dt=dt, corr_threshold=threshold))
    assert new[0] == old[0]
    if old[0] == "error":
        assert new == old
        return
    verdict = new[1]
    assert verdict.mode is _same_mode(old[1].mode)
    assert verdict.correlation == old[1].correlation
    assert (verdict.coincidence, verdict.n, verdict.n_epochs) == (0.0, 2, 0)
    # ... and the N-flow classifier already agreed with it at N = 2.
    ensemble = classify_ensemble([a, b], (), 2, start, end, dt=dt,
                                 corr_threshold=threshold)
    assert verdict.mode is _same_mode(ensemble.mode)
    assert verdict.correlation == ensemble.correlation


@settings(max_examples=300, deadline=None)
@given(st.lists(step_series(), min_size=0, max_size=12), epoch_lists(),
       windows(), keywords)
def test_n_series_and_their_epochs_is_what_classify_ensemble_was(
        series, epochs, window, keywords):
    start, end, dt = window
    old = _outcome(lambda: classify_ensemble(
        series, iter(epochs), len(series), start, end, dt=dt, **keywords))
    new = _outcome(lambda: sync.classify_sync(
        series, start, end, iter(epochs), dt=dt, **keywords))
    assert new[0] == old[0]
    if old[0] == "error":
        assert new == old
        return
    verdict, was = new[1], old[1]
    assert verdict.mode is _same_mode(was.mode)
    assert verdict.mode.code == was.mode.code
    assert str(verdict.mode) == str(was.mode)
    assert (verdict.correlation, verdict.coincidence, verdict.n,
            verdict.n_epochs) == (was.correlation, was.coincidence,
                                  was.n_connections, was.n_epochs)

