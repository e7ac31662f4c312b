"""A live terminal dashboard for sweep executions.

``repro sweep --live`` attaches a :class:`LiveDashboard` to the
runner's existing ``on_progress`` hook (no new instrumentation in the
execution paths) next to a :class:`~repro.obs.telemetry.SweepTelemetry`
that the sweep's ledger has bound to its books.  The dashboard reads
every number it displays from there — points done/failed/retried from
the sweep's resilience report, the cache hit ratio from the cache,
aggregate events and packets per second from the folded live points —
and adds only the per-worker activity map it reconstructs from
``start``/``finish``/``retry`` events.

On a TTY it redraws an ANSI block in place; on anything else (CI logs,
pipes) it degrades to one summary line every
:attr:`LiveDashboard.FALLBACK_EVERY` finished points, so ``--live`` is
safe to leave on in automation.

Wall-clock reads (`time.monotonic`) are reporting-only and never enter
simulation state — the same rule the sweep runner itself follows.
"""

from __future__ import annotations

import sys
from time import monotonic
from typing import IO, TYPE_CHECKING, Callable

from repro.obs.telemetry import SweepTelemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.runner import PointProgress

__all__ = ["LiveDashboard"]


def _fmt_eta(seconds: float) -> str:
    if seconds < 0 or seconds != seconds:  # repro: noqa[RPR002] -- NaN self-compare, not a timestamp
        return "--:--"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60:02d}:{seconds % 60:02d}"


class LiveDashboard:
    """Renders sweep progress from telemetry + progress events.

    Parameters
    ----------
    telemetry:
        The telemetry the sweep binds; the dashboard only reads from it.
    total:
        Number of points in the sweep.
    stream:
        Output stream (default ``sys.stderr``, keeping stdout clean for
        ``--export`` pipelines).
    live:
        Force in-place ANSI redraw on/off; ``None`` auto-detects
        ``stream.isatty()``.
    clock:
        Monotonic clock used for the ETA (injectable for tests;
        reporting only, never enters simulation state).
    """

    #: Minimum seconds between in-place redraws.
    REDRAW_INTERVAL = 0.1
    #: Non-TTY fallback prints a summary every this many finishes.
    FALLBACK_EVERY = 10

    def __init__(
        self,
        telemetry: SweepTelemetry,
        total: int,
        stream: IO[str] | None = None,
        live: bool | None = None,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        self.telemetry = telemetry
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        if live is None:
            isatty = getattr(self.stream, "isatty", None)
            live = bool(isatty()) if callable(isatty) else False
        self.live = live
        self._clock = clock
        self._started = clock()
        self._last_draw = float("-inf")
        self._drawn_lines = 0
        self._summary_at = -1
        self._worker_state: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Progress hook
    # ------------------------------------------------------------------
    def __call__(self, progress: "PointProgress") -> None:
        """The ``on_progress`` callback: update worker map, maybe redraw."""
        phase = progress.phase
        worker = progress.worker
        if phase == "start":
            attempt = f" (attempt {progress.attempt})" if progress.attempt > 1 else ""
            self._worker_state[worker] = f"point {progress.index}{attempt}"
        elif phase == "finish":
            if worker in self._worker_state:
                self._worker_state[worker] = "idle"
        elif phase == "retry":
            self._worker_state.pop(worker, None)
        elif phase == "fail":
            if worker in self._worker_state:
                self._worker_state[worker] = "idle"
        done = self.telemetry.report.measured
        if self.live:
            now = self._clock()
            if (phase == "finish" and done >= self.total) \
                    or now - self._last_draw >= self.REDRAW_INTERVAL:
                self._last_draw = now
                self._redraw()
        elif phase == "finish" and (
                done % self.FALLBACK_EVERY == 0 or done >= self.total):
            self._summary_at = done
            self.stream.write(self.summary_line() + "\n")
            self.stream.flush()
        elif phase == "fail":
            self.stream.write(
                f"point {progress.index} FAILED after "
                f"{progress.attempt} attempts\n")
            self.stream.flush()

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def eta_seconds(self) -> float:
        """Estimated seconds to completion from overall progress."""
        report = self.telemetry.report
        settled = report.measured + len(report.failures)
        if settled == 0 or settled >= self.total:
            return 0.0 if settled >= self.total else float("nan")
        elapsed = self._clock() - self._started
        return elapsed / settled * (self.total - settled)

    def summary_line(self) -> str:
        """One-line digest (the non-TTY fallback format)."""
        tele = self.telemetry
        report = tele.report
        return (f"sweep {report.measured}/{self.total} done"
                f" | {len(report.failures)} failed"
                f" | {report.retries} retried"
                f" | cache {tele.cache_hit_ratio * 100:.0f}%"
                f" | {tele.events_per_second / 1e3:.0f}k ev/s"
                f" | eta {_fmt_eta(self.eta_seconds())}")

    def render(self) -> str:
        """The full multi-line dashboard as a string."""
        tele = self.telemetry
        report = tele.report
        hits, misses, quarantined, _ = tele.since_bound()
        width = 30
        failed = len(report.failures)
        settled = report.measured + failed
        filled = int(width * settled / self.total) if self.total else width
        bar = "#" * filled + "-" * (width - filled)
        pkts = tele.aggregate_total("repro_tcp_packets_sent_total")
        pkts_rate = (pkts / tele.total_point_wall
                     if tele.total_point_wall > 0 else 0.0)
        lines = [
            f"[{bar}] {settled}/{self.total}  eta {_fmt_eta(self.eta_seconds())}",
            (f"  done {report.measured}  failed {failed}"
             f"  retried {report.retries}"
             f"  cached {report.cache_hits + report.journal_skips}"
             f"  live {report.live}"),
            (f"  cache hit ratio {tele.cache_hit_ratio * 100:5.1f}%"
             f"  ({hits} hits / {misses} misses"
             f" / {quarantined} quarantined)"),
            (f"  throughput {tele.events_per_second / 1e3:8.1f}k events/s"
             f"  {pkts_rate / 1e3:8.1f}k pkts/s"),
        ]
        for worker in sorted(self._worker_state):
            lines.append(f"  {worker}: {self._worker_state[worker]}")
        return "\n".join(lines)

    def _redraw(self) -> None:
        text = self.render()
        lines = text.count("\n") + 1
        out = self.stream
        if self._drawn_lines:
            # Cursor up over the previous block, clearing each line.
            out.write(f"\x1b[{self._drawn_lines}F")
        out.write("\n".join(f"\x1b[K{line}" for line in text.split("\n")))
        out.write("\n")
        out.flush()
        self._drawn_lines = lines

    def close(self) -> None:
        """Final draw (TTY) or final summary line (fallback)."""
        if self.live:
            self._redraw()
        elif self.telemetry.report.measured != self._summary_at:
            self.stream.write(self.summary_line() + "\n")
            self.stream.flush()
