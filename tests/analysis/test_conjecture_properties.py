"""Property-based tests for the zero-ACK conjecture predicate."""

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import SyncMode, predict

windows = st.integers(min_value=1, max_value=200)
pipes = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@given(windows, windows, pipes)
def test_prediction_is_symmetric_in_window_order(w1, w2, pipe):
    a = predict(w1, w2, pipe)
    b = predict(w2, w1, pipe)
    assert a.mode == b.mode
    assert a.fully_utilized_lines == b.fully_utilized_lines
    assert (a.w1, a.w2) == (b.w1, b.w2)


@given(windows, windows, pipes)
def test_exactly_one_regime_or_boundary(w1, w2, pipe):
    prediction = predict(w1, w2, pipe)
    if prediction.boundary:
        assert prediction.mode is None
    else:
        assert prediction.mode in (SyncMode.IN_PHASE, SyncMode.OUT_OF_PHASE)


@given(windows, windows, pipes)
def test_prediction_follows_inequality(w1, w2, pipe):
    prediction = predict(w1, w2, pipe)
    hi, lo = max(w1, w2), min(w1, w2)
    if hi > lo + 2 * pipe:
        assert prediction.mode is SyncMode.OUT_OF_PHASE
        assert prediction.fully_utilized_lines == 1
    elif hi < lo + 2 * pipe:
        assert prediction.mode is SyncMode.IN_PHASE
        assert prediction.fully_utilized_lines == 0


@given(windows, pipes)
def test_equal_windows_never_out_of_phase(w, pipe):
    prediction = predict(w, w, pipe)
    assert prediction.mode is not SyncMode.OUT_OF_PHASE


@given(windows, windows)
def test_zero_pipe_reduces_to_window_comparison(w1, w2):
    prediction = predict(w1, w2, 0.0)
    if w1 == w2:
        assert prediction.boundary
    else:
        assert prediction.mode is SyncMode.OUT_OF_PHASE


@given(windows, windows, pipes)
def test_growing_pipe_moves_toward_in_phase(w1, w2, pipe):
    """Increasing P can only move the system from out-of-phase toward
    in-phase, never the reverse."""
    near = predict(w1, w2, pipe)
    far = predict(w1, w2, pipe + 50.0)
    if near.mode is SyncMode.IN_PHASE:
        assert far.mode is SyncMode.IN_PHASE
