"""Integration tests: fixed-window dynamics (Sections 4.2-4.3.3, shortened)."""

import pytest

from repro.analysis import compressed_ack_bursts, plateau_heights, predict
from repro.analysis.synchronization import SyncMode
from repro.scenarios import families, paper, run


@pytest.fixture(scope="module")
def fig8():
    return run(paper.figure8(duration=250.0, warmup=150.0))


@pytest.fixture(scope="module")
def fig9():
    return run(paper.figure9(duration=350.0, warmup=200.0))


class TestFigure8:
    def test_asymmetric_queue_maxima(self, fig8):
        q1 = fig8.max_queue("sw1->sw2")
        q2 = fig8.max_queue("sw2->sw1")
        # Paper: 55 vs 23 (including the packet in transmission).
        assert q1 + 1 == pytest.approx(55, abs=2)
        assert q2 + 1 == pytest.approx(23, abs=2)

    def test_q1_max_is_w1_plus_w2(self, fig8):
        """Queue 1 peaks when both windows sit in it (30+25 = 55)."""
        assert fig8.max_queue("sw1->sw2") + 1 == pytest.approx(30 + 25, abs=2)

    def test_only_line_one_fully_utilized(self, fig8):
        utils = fig8.utilizations()
        assert utils["sw1->sw2"] >= 0.99
        assert utils["sw2->sw1"] < 0.95

    def test_no_drops(self, fig8):
        assert len(fig8.traces.drops) == 0

    def test_square_wave_plateaus(self, fig8):
        start, end = fig8.window
        series = fig8.queue_series("sw1->sw2")
        plateaus = plateau_heights(series, start, min(start + 20.0, end),
                                   min_duration=0.3, tolerance=1.5)
        assert plateaus, "expected square-wave plateaus"
        assert max(plateaus) > 40

    def test_compressed_ack_bursts_leave_queue2(self, fig8):
        start, end = fig8.window
        bursts = compressed_ack_bursts(
            fig8.traces.queue("sw2->sw1").departures,
            data_tx_time=fig8.config.data_tx_time, start=start, end=end)
        assert bursts
        assert max(bursts) >= 10  # a whole cluster compresses together


class TestFigure9:
    def test_equal_queue_maxima(self, fig9):
        q1 = fig9.max_queue("sw1->sw2")
        q2 = fig9.max_queue("sw2->sw1")
        assert abs(q1 - q2) <= 2
        assert q1 + 1 == pytest.approx(23, abs=2)

    def test_neither_line_full(self, fig9):
        for util in fig9.utilizations().values():
            assert util < 0.95

    def test_plateau_heights_alternate(self, fig9):
        """"An alternation pattern in the plateau heights": more than
        one distinct level recurs."""
        start, end = fig9.window
        plateaus = plateau_heights(fig9.queue_series("sw1->sw2"),
                                   start, min(start + 60.0, end),
                                   min_duration=1.0, tolerance=1.5)
        assert len({round(p) for p in plateaus}) >= 2

    def test_both_queues_empty_at_times(self, fig9):
        start, end = fig9.window
        for port in ("sw1->sw2", "sw2->sw1"):
            series = fig9.queue_series(port)
            assert series.fraction_at_or_below(0, start, end) > 0.05


class TestZeroAckConjecture:
    @pytest.mark.parametrize("w1,w2,tau", families.CONJECTURE_CASES)
    def test_utilization_pattern(self, w1, w2, tau):
        """The whole grid, dense on both sides of W1 = W2 + 2P."""
        config = families.conjecture_config((w1, w2, tau))
        result = run(config)
        prediction = predict(w1, w2, config.pipe_size)
        utils = list(result.utilizations().values())
        full = sum(1 for u in utils if u >= 0.99)
        assert full == prediction.fully_utilized_lines

    def test_fixed_window_never_drops_with_infinite_buffers(self):
        config = paper.zero_ack_fixed_window(30, 25, 0.01,
                                             duration=100.0, warmup=50.0)
        result = run(config)
        assert len(result.traces.drops) == 0
        for conn in result.connections:
            assert conn.sender.packets_out == conn.sender.control.window
