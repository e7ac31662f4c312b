"""Step-function time series.

Queue lengths and congestion windows are piecewise-constant signals:
they change at event instants and hold between them.  :class:`StepSeries`
records ``(time, value)`` change-points and offers the queries the
analysis layer needs: value at a time, resampling on a regular grid,
time-weighted statistics, and extraction of windows.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from typing import Iterable, Iterator

import numpy as np

from repro.errors import AnalysisError

__all__ = ["StepSeries"]


def _view(column: array) -> np.ndarray:
    view = np.asarray(column)
    view.flags.writeable = False
    return view


class StepSeries:
    """An append-only piecewise-constant time series."""

    def __init__(self, name: str = "", initial_value: float = 0.0) -> None:
        self.name = name
        # Two C double columns: ``append`` coerces ints in C (no
        # ``float()`` call per record), a point costs 16 bytes instead
        # of two boxed floats, and numpy reads the buffers in place.
        self._times = array("d")
        self._values = array("d")
        self._initial_value = float(initial_value)
        # Cached self._times[-1] for record()'s monotonicity check.
        self._last_time = -math.inf

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, time: float, value: float) -> None:
        """Append a change-point.  Times must be non-decreasing.

        Multiple records at the same instant are allowed (events at one
        timestamp); the last one wins for queries at that instant, while
        intermediate points are retained for fluctuation analysis.
        """
        if time < self._last_time:
            raise AnalysisError(
                f"{self.name or 'series'}: time went backwards "
                f"({time} < {self._last_time})"
            )
        self._last_time = time
        self._times.append(time)
        self._values.append(value)

    def extend(self, points: Iterable[tuple[float, float]]) -> None:
        """Append many change-points."""
        for time, value in points:
            self.record(time, value)

    def extend_columns(self, times: Iterable[float],
                       values: Iterable[float]) -> None:
        """Append change-points given as two parallel columns: the same
        points, guard and coercion as a ``record`` per pair, in C."""
        column = array("d", times)
        if not column:
            return
        if column[0] < self._last_time or (np.diff(column) < 0.0).any():
            raise AnalysisError(
                f"{self.name or 'series'}: time went backwards in or before "
                f"a block starting at {column[0]} (after {self._last_time})")
        self._last_time = column[-1]
        self._times.extend(column)
        self._values.extend(values)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._times, self._values))

    @property
    def times(self) -> np.ndarray:
        """Change-point times as a read-only numpy view (no copy).

        The series cannot grow while a view of it is alive; take
        ``np.array(series.times)`` to keep one across further records.
        """
        return _view(self._times)

    @property
    def values(self) -> np.ndarray:
        """Change-point values as a read-only numpy view (no copy)."""
        return _view(self._values)

    @property
    def first_time(self) -> float | None:
        """Time of the first change-point, or None if empty."""
        return self._times[0] if self._times else None

    @property
    def last_time(self) -> float | None:
        """Time of the last change-point, or None if empty."""
        return self._times[-1] if self._times else None

    @property
    def last_value(self) -> float:
        """Most recent value (initial value when empty)."""
        return self._values[-1] if self._values else self._initial_value

    def value_at(self, time: float) -> float:
        """The series value at ``time`` (step semantics, last wins)."""
        idx = bisect_right(self._times, time)
        if idx == 0:
            return self._initial_value
        return self._values[idx - 1]

    # ------------------------------------------------------------------
    # Windows and resampling
    # ------------------------------------------------------------------
    def window(self, start: float, end: float) -> "StepSeries":
        """Change-points in ``[start, end)`` plus the carried-in value at
        ``start``."""
        if end < start:
            raise AnalysisError(f"window end {end} before start {start}")
        out = StepSeries(name=self.name, initial_value=self._initial_value)
        out.record(start, self.value_at(start))
        lo = bisect_right(self._times, start)
        hi = bisect_right(self._times, end)
        # bisect_right(end) includes points == end; trim to half-open.
        while hi > lo and self._times[hi - 1] >= end:
            hi -= 1
        for i in range(lo, hi):
            out.record(self._times[i], self._values[i])
        return out

    def sample(self, start: float, end: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Resample onto a regular grid ``start, start+dt, ...`` < end.

        Returns ``(grid_times, grid_values)``.
        """
        if dt <= 0:
            raise AnalysisError(f"sample interval must be positive, got {dt}")
        if end <= start:
            raise AnalysisError(f"need end > start, got [{start}, {end}]")
        grid = np.arange(start, end, dt)
        if len(self._times) == 0:
            return grid, np.full_like(grid, self._initial_value)
        idx = np.searchsorted(self.times, grid, side="right") - 1
        sampled = np.where(idx >= 0, self.values[np.clip(idx, 0, None)],
                           self._initial_value)
        return grid, sampled

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def time_average(self, start: float, end: float) -> float:
        """Time-weighted mean over ``[start, end]``."""
        if end <= start:
            raise AnalysisError(f"need end > start, got [{start}, {end}]")
        total = 0.0
        current_time = start
        current_value = self.value_at(start)
        lo = bisect_right(self._times, start)
        for i in range(lo, len(self._times)):
            t = self._times[i]
            if t >= end:
                break
            total += current_value * (t - current_time)
            current_time = t
            current_value = self._values[i]
        total += current_value * (end - current_time)
        return total / (end - start)

    def max_in(self, start: float, end: float) -> float:
        """Maximum value attained in ``[start, end]`` (step semantics)."""
        best = self.value_at(start)
        lo = bisect_right(self._times, start)
        for i in range(lo, len(self._times)):
            if self._times[i] > end:
                break
            best = max(best, self._values[i])
        return best

    def min_in(self, start: float, end: float) -> float:
        """Minimum value attained in ``[start, end]`` (step semantics)."""
        worst = self.value_at(start)
        lo = bisect_right(self._times, start)
        for i in range(lo, len(self._times)):
            if self._times[i] > end:
                break
            worst = min(worst, self._values[i])
        return worst

    def fraction_at_or_below(self, threshold: float, start: float, end: float) -> float:
        """Fraction of ``[start, end]`` the series spends <= ``threshold``.

        Used e.g. to measure how long a queue sits empty.
        """
        if end <= start:
            raise AnalysisError(f"need end > start, got [{start}, {end}]")
        below = 0.0
        current_time = start
        current_value = self.value_at(start)
        lo = bisect_right(self._times, start)
        for i in range(lo, len(self._times)):
            t = self._times[i]
            if t >= end:
                break
            if current_value <= threshold:
                below += t - current_time
            current_time = t
            current_value = self._values[i]
        if current_value <= threshold:
            below += end - current_time
        # Floating-point accumulation can nudge the ratio past 1.
        return min(below / (end - start), 1.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StepSeries({self.name!r}, n={len(self)})"
