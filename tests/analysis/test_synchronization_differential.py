"""Sample-once correlation against the frozen per-pair definition.

``mean_pairwise_correlation`` and ``group_phase`` used to call
``phase_correlation`` once per pair, and every call resampled and
re-centred both series.  They now resample each series once.  The
per-pair definition is frozen here, verbatim, as the oracle: the
arithmetic per pair and the order of summation did not change, so every
float must compare equal with ``==`` (they feed ``mean_correlation`` and
through it every cached measurement hash), and every rejected window
must be rejected with the same message.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    classify_phase,
    group_phase,
    mean_pairwise_correlation,
    phase_correlation,
)
from repro.analysis.synchronization import GroupPhase
from repro.errors import AnalysisError
from repro.metrics import StepSeries


# --- The frozen definition (as of the parent of the sample-once change) ----

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


def _frozen_group_phase(group_a, group_b, start, end, dt):
    if len(group_a) < 2 or len(group_b) < 2:
        raise AnalysisError("each group needs at least two series")
    cross = [_frozen_phase_correlation(a, b, start, end, dt)
             for a, b in itertools.product(group_a, group_b)]
    return GroupPhase(
        within_a=_frozen_mean_pairwise(group_a, start, end, dt),
        within_b=_frozen_mean_pairwise(group_b, start, end, dt),
        between=sum(cross) / len(cross),
    )


def _outcome(compute):
    """The value, or the error's text — compared with ``==`` either way."""
    try:
        return ("value", compute())
    except AnalysisError as error:
        return ("error", str(error))


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


# --- The differential ------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(step_series(), min_size=0, max_size=12), windows())
def test_mean_pairwise_equals_the_per_pair_definition(series, window):
    assert (_outcome(lambda: mean_pairwise_correlation(series, *window))
            == _outcome(lambda: _frozen_mean_pairwise(series, *window)))


@settings(max_examples=150, deadline=None)
@given(st.lists(step_series(), min_size=0, max_size=6),
       st.lists(step_series(), min_size=0, max_size=6), windows())
def test_group_phase_equals_the_per_pair_definition(group_a, group_b, window):
    assert (_outcome(lambda: group_phase(group_a, group_b, *window))
            == _outcome(lambda: _frozen_group_phase(group_a, group_b, *window)))


@settings(max_examples=150, deadline=None)
@given(step_series(), step_series(), windows())
def test_phase_correlation_is_unchanged(a, b, window):
    expected = _outcome(lambda: _frozen_phase_correlation(a, b, *window))
    assert _outcome(lambda: phase_correlation(a, b, *window)) == expected
    if expected[0] == "value":
        assert classify_phase(a, b, *window).correlation == expected[1]


def test_a_lone_series_is_held_to_the_window_a_pair_is():
    series = [StepSeries("cwnd", 1.0)]
    assert mean_pairwise_correlation(series, 0.0, 10.0) == 0.0
    for start, end, dt in [(5.0, 5.0, 0.25), (5.0, 4.0, 0.25), (0.0, 0.5, 0.25)]:
        lone = _outcome(lambda: mean_pairwise_correlation(series, start, end, dt))
        pair = _outcome(lambda: mean_pairwise_correlation(series * 2, start, end, dt))
        assert lone == pair and lone[0] == "error"
