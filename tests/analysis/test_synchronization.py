"""Unit tests for repro.analysis.synchronization: the one classifier and
the one mean correlation, on two signals, two groups and N-flow
ensembles.  The class names are the cases (and the test ids of the three
classifiers these used to be), not three functions."""

import math

import pytest

from repro.analysis import (
    SyncMode,
    alternation_fraction,
    classify_sync,
    drop_coincidence,
    mean_correlation,
)
from repro.analysis.epochs import CongestionEpoch, detect_epochs
from repro.errors import AnalysisError
from repro.metrics import StepSeries
from repro.metrics.drop_log import DropRecord


def _wave(phase, period=10.0, duration=100.0, dt=0.1):
    series = StepSeries()
    t = 0.0
    while t < duration:
        series.record(t, math.sin(2 * math.pi * t / period + phase))
        t += dt
    return series


def _drop(time, conn):
    return DropRecord(time=time, queue="q", conn_id=conn, is_data=True,
                      seq=0, is_retransmit=False)


def _epoch(start, end, conn_ids):
    return CongestionEpoch(start=start, end=end,
                           drops=[_drop(start, c) for c in conn_ids])


def _sawtooth(period, phase, start=0.0, end=100.0, dt=0.5):
    """A cwnd-like sawtooth StepSeries with the given phase offset."""
    series = StepSeries("cwnd", 1.0)
    t = start
    while t <= end:
        frac = ((t + phase) % period) / period
        series.record(t, 1.0 + 20.0 * frac)
        t += dt
    return series


class TestPhaseClassification:
    def test_identical_signals_in_phase(self):
        a, b = _wave(0.0), _wave(0.0)
        verdict = classify_sync([a, b], 0.0, 100.0, dt=0.1)
        assert verdict.mode is SyncMode.IN_PHASE
        assert verdict.correlation > 0.95

    def test_antiphase_signals_out_of_phase(self):
        a, b = _wave(0.0), _wave(math.pi)
        verdict = classify_sync([a, b], 0.0, 100.0, dt=0.1)
        assert verdict.mode is SyncMode.OUT_OF_PHASE
        assert verdict.correlation < -0.95

    def test_quadrature_is_ambiguous(self):
        a, b = _wave(0.0), _wave(math.pi / 2)
        verdict = classify_sync([a, b], 0.0, 100.0, dt=0.1)
        assert verdict.mode is SyncMode.DESYNCHRONIZED

    def test_constant_signal_no_phase(self):
        a = _wave(0.0)
        flat = StepSeries()
        flat.record(0.0, 5.0)
        assert mean_correlation([a, flat], 0.0, 100.0, 0.1) == 0.0

    def test_window_too_short(self):
        a, b = _wave(0.0), _wave(0.0)
        with pytest.raises(AnalysisError):
            classify_sync([a, b], 0.0, 0.5, dt=0.25)

    def test_invalid_window(self):
        a, b = _wave(0.0), _wave(0.0)
        with pytest.raises(AnalysisError):
            classify_sync([a, b], 10.0, 10.0)

    def test_threshold_controls_verdict(self):
        a, b = _wave(0.0), _wave(math.pi / 3)  # corr = 0.5
        strict = classify_sync([a, b], 0.0, 100.0, dt=0.1, corr_threshold=0.9)
        loose = classify_sync([a, b], 0.0, 100.0, dt=0.1, corr_threshold=0.3)
        assert strict.mode is SyncMode.DESYNCHRONIZED
        assert loose.mode is SyncMode.IN_PHASE


class TestLossSynchronization:
    def test_fully_synchronized(self):
        drops = [_drop(1.0, 1), _drop(1.1, 2), _drop(30.0, 1), _drop(30.1, 2)]
        epochs = detect_epochs(drops, gap=5.0)
        assert drop_coincidence(epochs, 2, quorum=1.0) == 1.0

    def test_unsynchronized(self):
        drops = [_drop(1.0, 1), _drop(30.0, 2)]
        epochs = detect_epochs(drops, gap=5.0)
        assert drop_coincidence(epochs, 2, quorum=1.0) == 0.0

    def test_no_epochs(self):
        assert drop_coincidence([], 2, quorum=1.0) == 0.0

    def test_invalid_connection_count(self):
        with pytest.raises(AnalysisError):
            drop_coincidence([], 0, quorum=1.0)


class TestAlternation:
    def test_perfect_alternation(self):
        drops = [_drop(0.0, 1), _drop(30.0, 2), _drop(60.0, 1), _drop(90.0, 2)]
        epochs = detect_epochs(drops, gap=5.0)
        assert alternation_fraction(epochs) == 1.0

    def test_no_alternation(self):
        drops = [_drop(0.0, 1), _drop(30.0, 1), _drop(60.0, 1)]
        epochs = detect_epochs(drops, gap=5.0)
        assert alternation_fraction(epochs) == 0.0

    def test_multi_loser_epochs_excluded(self):
        drops = [_drop(0.0, 1), _drop(0.1, 2),  # epoch with both: excluded
                 _drop(30.0, 1), _drop(60.0, 2)]
        epochs = detect_epochs(drops, gap=5.0)
        assert alternation_fraction(epochs) == 1.0

    def test_needs_two_single_loser_epochs(self):
        epochs = detect_epochs([_drop(0.0, 1)], gap=5.0)
        with pytest.raises(AnalysisError):
            alternation_fraction(epochs)


def _group_rows(group_a, group_b, start, end, dt=0.25):
    """The three numbers figure 3 grades by sign: within A, within B,
    across the two."""
    return (mean_correlation(group_a, start, end, dt),
            mean_correlation(group_b, start, end, dt),
            mean_correlation(group_a, start, end, dt, across=group_b))


class TestGroupPhase:
    def test_coherent_antiphase_groups(self):
        group_a = [_wave(0.0), _wave(0.05)]
        group_b = [_wave(math.pi), _wave(math.pi + 0.05)]
        within_a, within_b, between = _group_rows(group_a, group_b,
                                                  0.0, 100.0, dt=0.1)
        assert within_a > 0.9
        assert within_b > 0.9
        assert between < -0.9

    def test_all_in_phase(self):
        group_a = [_wave(0.0), _wave(0.0)]
        group_b = [_wave(0.0), _wave(0.0)]
        _, _, between = _group_rows(group_a, group_b, 0.0, 100.0, dt=0.1)
        assert between > 0.9

    def test_incoherent_group_detected(self):
        group_a = [_wave(0.0), _wave(math.pi)]  # internally anti-phased
        group_b = [_wave(0.0), _wave(0.0)]
        within_a, within_b, _ = _group_rows(group_a, group_b,
                                            0.0, 100.0, dt=0.1)
        assert within_a < 0.0
        assert within_b > 0.0

    def test_group_size_validated(self):
        # An empty group on either side has no pair to offer; a group of
        # one has no pair *within* it (0.0, as for any lone series) and
        # one pair per member of the other group across.
        pair = [_wave(0.0), _wave(0.0)]
        with pytest.raises(AnalysisError):
            mean_correlation(pair, 0.0, 100.0, across=[])
        with pytest.raises(AnalysisError):
            mean_correlation([], 0.0, 100.0, across=pair)
        assert mean_correlation([_wave(0.0)], 0.0, 100.0) == 0.0
        assert mean_correlation([_wave(0.0)], 0.0, 100.0, across=pair) > 0.9

    def test_symmetry(self):
        group_a = [_wave(0.0), _wave(0.1)]
        group_b = [_wave(1.0), _wave(1.1)]
        ab = _group_rows(group_a, group_b, 0.0, 100.0, dt=0.1)
        ba = _group_rows(group_b, group_a, 0.0, 100.0, dt=0.1)
        assert ab[2] == pytest.approx(ba[2])
        assert ab[0] == pytest.approx(ba[1])


class TestDropCoincidence:
    def test_all_global_epochs(self):
        epochs = [_epoch(i * 10.0, i * 10.0 + 1.0, range(8)) for i in range(5)]
        assert drop_coincidence(epochs, 8) == 1.0

    def test_quorum_counts_distinct_connections(self):
        # 4 of 8 connections lose: exactly at the default half quorum.
        epochs = [_epoch(0.0, 1.0, [0, 1, 2, 3])]
        assert drop_coincidence(epochs, 8) == 1.0
        # 3 of 8 misses the quorum.
        epochs = [_epoch(0.0, 1.0, [0, 1, 2])]
        assert drop_coincidence(epochs, 8) == 0.0

    def test_repeated_drops_by_one_connection_do_not_inflate(self):
        epoch = CongestionEpoch(start=0.0, end=1.0,
                                drops=[_drop(0.1, 1) for _ in range(10)])
        assert drop_coincidence([epoch], 4) == 0.0

    def test_strict_quorum_matches_two_flow_statistic(self):
        epochs = [_epoch(0.0, 1.0, [0, 1]), _epoch(10.0, 11.0, [0])]
        assert drop_coincidence(epochs, 2, quorum=1.0) == 0.5

    def test_no_epochs_is_zero(self):
        assert drop_coincidence([], 4) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(AnalysisError):
            drop_coincidence([], 0)
        with pytest.raises(AnalysisError):
            drop_coincidence([], 4, quorum=0.0)
        with pytest.raises(AnalysisError):
            drop_coincidence([], 4, quorum=1.5)


class TestMeanPairwiseCorrelation:
    def test_lockstep_is_near_one(self):
        series = [_sawtooth(20.0, 0.0) for _ in range(4)]
        corr = mean_correlation(series, 10.0, 90.0)
        assert corr > 0.95

    def test_staggered_ensemble_approaches_floor(self):
        # N sawtooths spread uniformly over the period: the mean pairwise
        # correlation sits near the attainable floor -1/(N-1).
        n, period = 4, 20.0
        series = [_sawtooth(period, i * period / n) for i in range(n)]
        corr = mean_correlation(series, 10.0, 90.0)
        floor = -1.0 / (n - 1)
        assert corr < 0.0
        assert corr >= floor - 0.05
        assert math.isclose(corr, floor, abs_tol=0.15)

    def test_single_series_has_no_pairs(self):
        assert mean_correlation([_sawtooth(20.0, 0.0)], 10.0, 90.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            mean_correlation([], 0.0, 1.0)


class TestClassifyEnsemble:
    def test_global_loss_epochs_dominate(self):
        series = [_sawtooth(20.0, 0.0) for _ in range(4)]
        epochs = [_epoch(i * 20.0, i * 20.0 + 1.0, range(4)) for i in range(4)]
        verdict = classify_sync(series, 10.0, 90.0, epochs)
        assert verdict.mode is SyncMode.DROP_SYNCHRONIZED
        assert verdict.coincidence == 1.0
        assert verdict.n_epochs == 4
        assert verdict.mode.code == 3

    def test_min_epochs_guard_defers_to_correlation(self):
        # One merged epoch (continuous-loss regime): coincidence is
        # trivially 1.0 but carries no evidence of repeated global
        # events, so the correlation decides.
        series = [_sawtooth(20.0, 0.0) for _ in range(4)]
        epochs = [_epoch(0.0, 90.0, range(4))]
        verdict = classify_sync(series, 10.0, 90.0, epochs)
        assert verdict.coincidence == 1.0
        assert verdict.mode is SyncMode.IN_PHASE

    def test_min_epochs_is_tunable(self):
        series = [_sawtooth(20.0, 0.0) for _ in range(4)]
        epochs = [_epoch(0.0, 90.0, range(4))]
        verdict = classify_sync(series, 10.0, 90.0, epochs,
                                    min_epochs=1)
        assert verdict.mode is SyncMode.DROP_SYNCHRONIZED

    def test_out_of_phase_threshold_scales_with_population(self):
        n, period = 4, 20.0
        series = [_sawtooth(period, i * period / n) for i in range(n)]
        verdict = classify_sync(series, 10.0, 90.0)
        assert verdict.mode is SyncMode.OUT_OF_PHASE
        assert verdict.correlation < 0.0

    def test_flat_uncorrelated_is_desynchronized(self):
        flat = StepSeries("cwnd", 5.0)
        flat.record(0.0, 5.0)
        series = [flat, _sawtooth(20.0, 0.0), _sawtooth(31.0, 7.0)]
        verdict = classify_sync(series, 10.0, 90.0,
                                    corr_threshold=0.5)
        assert verdict.mode in (SyncMode.DESYNCHRONIZED,
                                SyncMode.OUT_OF_PHASE)

    def test_verdict_carries_statistics(self):
        series = [_sawtooth(20.0, 0.0) for _ in range(3)]
        epochs = [_epoch(i * 20.0, i * 20.0 + 1.0, [0]) for i in range(5)]
        verdict = classify_sync(series, 10.0, 90.0, epochs)
        assert verdict.n == 3
        assert verdict.n_epochs == 5
        assert verdict.coincidence == 0.0
        assert verdict.mode is SyncMode.IN_PHASE
