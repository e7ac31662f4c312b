"""Unit tests for repro.analysis.conjecture."""

import pytest

from repro.analysis import SyncMode, check_prediction, predict
from repro.errors import AnalysisError


class TestPredict:
    def test_out_of_phase_regime(self):
        pred = predict(30, 5, pipe=0.125)
        assert pred.mode is SyncMode.OUT_OF_PHASE
        assert pred.fully_utilized_lines == 1
        assert not pred.boundary

    def test_in_phase_regime(self):
        pred = predict(30, 25, pipe=12.5)
        assert pred.mode is SyncMode.IN_PHASE
        assert pred.fully_utilized_lines == 0

    def test_boundary(self):
        pred = predict(30, 20, pipe=5.0)  # 30 == 20 + 10
        assert pred.boundary
        assert pred.mode is None

    def test_windows_normalized(self):
        pred = predict(5, 30, pipe=0.125)
        assert pred.w1 == 30 and pred.w2 == 5
        assert pred.mode is SyncMode.OUT_OF_PHASE

    def test_equal_windows_always_in_phase_with_pipe(self):
        assert predict(10, 10, pipe=1.0).mode is SyncMode.IN_PHASE

    def test_zero_pipe_equal_windows_boundary(self):
        assert predict(10, 10, pipe=0.0).boundary

    def test_errors(self):
        with pytest.raises(AnalysisError):
            predict(0, 5, pipe=1.0)
        with pytest.raises(AnalysisError):
            predict(5, 5, pipe=-1.0)


class TestCheckPrediction:
    def test_out_of_phase_match(self):
        pred = predict(30, 5, pipe=0.125)
        assert check_prediction(pred, 1.0, 0.4).utilization_matches

    def test_out_of_phase_utilization_mismatch(self):
        pred = predict(30, 5, pipe=0.125)
        assert not check_prediction(pred, 0.9, 0.4).utilization_matches

    def test_in_phase_match(self):
        pred = predict(30, 25, pipe=12.5)
        assert check_prediction(pred, 0.8, 0.7).utilization_matches

    def test_in_phase_fails_if_a_line_is_full(self):
        pred = predict(30, 25, pipe=12.5)
        assert not check_prediction(pred, 1.0, 0.7).utilization_matches

    def test_boundary_never_fails(self):
        pred = predict(30, 20, pipe=5.0)
        assert check_prediction(pred, 1.0, 1.0).utilization_matches

    def test_full_threshold(self):
        pred = predict(30, 5, pipe=0.125)
        strict = check_prediction(pred, 0.985, 0.4, full_threshold=0.99)
        loose = check_prediction(pred, 0.985, 0.4, full_threshold=0.98)
        assert not strict.utilization_matches
        assert loose.utilization_matches
