"""LiveDashboard rendering: TTY redraw and the non-TTY fallback."""

import io

from repro.obs import LiveDashboard, SweepTelemetry
from repro.parallel import ResultCache
from repro.parallel.runner import PointProgress
from repro.resilience import ResilienceReport
from repro.scenarios import paper
from repro.scenarios.sweeps import sweep


def make_config(tau):
    return paper.two_way(tau, duration=20.0, warmup=5.0)


def extract(result):
    return {"events": float(result.events_processed)}


def finish(tele, index, worker="w0", wall=0.1, events=500):
    """Settle a live point in the bound report the way the sweep's
    ledger does, and return the progress event it then announces."""
    tele.report.live += 1
    tele.fold_point(worker, wall, events, None)
    return PointProgress(index=index, phase="finish", worker=worker,
                         wall_seconds=wall, events_processed=events)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make(total, live):
    telemetry = SweepTelemetry()
    telemetry.bind(ResilienceReport(points=total))
    stream = io.StringIO()
    clock = FakeClock()
    dash = LiveDashboard(telemetry, total, stream=stream, live=live,
                         clock=clock)
    return dash, telemetry, stream, clock


class TestFallbackMode:
    def test_summary_every_fallback_interval_and_at_completion(self):
        total = LiveDashboard.FALLBACK_EVERY + 2
        dash, tele, stream, _ = make(total, live=False)
        for i in range(total):
            dash(finish(tele, i))
        lines = stream.getvalue().splitlines()
        # One line at FALLBACK_EVERY, one at completion.
        assert len(lines) == 2
        assert lines[-1].startswith(f"sweep {total}/{total} done")

    def test_close_does_not_duplicate_final_summary(self):
        dash, tele, stream, _ = make(1, live=False)
        dash(finish(tele, 0))
        before = stream.getvalue()
        dash.close()
        assert stream.getvalue() == before

    def test_close_emits_summary_when_none_printed_yet(self):
        dash, tele, stream, _ = make(5, live=False)
        dash(finish(tele, 0))
        assert stream.getvalue() == ""
        dash.close()
        assert stream.getvalue().startswith("sweep 1/5 done")

    def test_failed_point_reported_immediately(self):
        dash, tele, stream, _ = make(2, live=False)
        dash(PointProgress(index=1, phase="fail", worker="w0", attempt=3))
        assert "point 1 FAILED after 3 attempts" in stream.getvalue()

    def test_auto_detects_non_tty(self):
        dash = LiveDashboard(SweepTelemetry(), 1, stream=io.StringIO())
        assert dash.live is False
        # Never bound — the sweep raised before it started: zeros.
        dash.close()
        assert dash.stream.getvalue().startswith("sweep 0/1 done | 0 failed")

    def test_summary_shows_the_cache_ratio_while_the_sweep_runs(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep(make_config, [0.01, 1.0], extract, cache=cache)
        tele = SweepTelemetry()
        dash = LiveDashboard(tele, 2, stream=io.StringIO(), live=False)
        seen = []

        def on_progress(event):
            dash(event)
            seen.append(dash.summary_line())

        sweep(make_config, [0.01, 1.0], extract, cache=cache, telemetry=tele,
              on_progress=on_progress)
        assert [line.split(" | ")[:4] for line in seen] == [
            ["sweep 1/2 done", "0 failed", "0 retried", "cache 100%"],
            ["sweep 2/2 done", "0 failed", "0 retried", "cache 100%"]]
        assert "cache 100%" in dash.stream.getvalue()


class TestLiveMode:
    def test_redraws_in_place_with_ansi(self):
        dash, tele, stream, clock = make(2, live=True)
        clock.now = 1.0
        dash(finish(tele, 0))
        first = stream.getvalue()
        assert "\x1b[K" in first
        assert "[" in first and "1/2" in first
        clock.now = 2.0
        dash(finish(tele, 1))
        # Second draw moves the cursor back up over the first block.
        assert "\x1b[" in stream.getvalue()[len(first):]

    def test_redraw_rate_limited(self):
        dash, tele, stream, clock = make(10, live=True)
        clock.now = 1.0
        dash(finish(tele, 0))
        drawn = stream.getvalue()
        clock.now = 1.0 + LiveDashboard.REDRAW_INTERVAL / 2
        dash(finish(tele, 1))
        assert stream.getvalue() == drawn  # too soon, not at total

    def test_worker_map_tracks_start_and_finish(self):
        dash, tele, stream, clock = make(4, live=True)
        start = PointProgress(index=2, phase="start", worker="w1", attempt=2)
        dash(start)
        assert "w1: point 2 (attempt 2)" in dash.render()
        clock.now = 5.0
        dash(finish(tele, 2, worker="w1"))
        assert "w1: idle" in dash.render()


class TestEta:
    def test_eta_scales_remaining_points(self):
        dash, tele, _, clock = make(4, live=True)
        clock.now = 10.0
        dash(finish(tele, 0))
        # 1 settled in 10s -> 3 remaining ~ 30s.
        assert abs(dash.eta_seconds() - 30.0) < 1e-6
        assert "00:30" in dash.summary_line()

    def test_eta_nan_before_first_point_and_zero_at_end(self):
        dash, tele, _, _ = make(1, live=True)
        assert dash.eta_seconds() != dash.eta_seconds()  # NaN
        assert "--:--" in dash.summary_line()
        finish(tele, 0)
        assert dash.eta_seconds() == 0.0
