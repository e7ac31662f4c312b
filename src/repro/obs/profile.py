"""Aggregate dispatch spans into a per-category cost profile.

The profiler answers "where did the wall-clock go?" for a simulation
run: every executed event is attributed to a handler category (derived
from its label — ``txdone``, ``arrive``, ``proc``, ``rexmt``, ...), and
the per-category totals identify which part of the model dominates run
time.  Aggregation happens online inside the :class:`~repro.obs.tracer.Tracer`,
so profiling needs no span storage and runs over arbitrarily long
scenarios at a small constant memory cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer

__all__ = ["format_profile"]


def format_profile(tracer: "Tracer", *, wall_seconds: float | None = None) -> str:
    """A human-readable per-category cost table.

    ``wall_seconds`` is the full run wall time, when known; the in-span
    total understates it by the engine's own pop/push overhead, which is
    reported as the residual ``(engine overhead)`` row.
    """
    rows = tracer.profile()
    total_events = tracer.events_observed
    total_ns = tracer.wall_ns_total
    lines = [
        f"{'category':<16} {'events':>10} {'wall ms':>10} {'mean us':>9} "
        f"{'max us':>9} {'share':>7}",
    ]
    for stats in rows:
        share = stats.wall_ns / total_ns if total_ns else 0.0
        lines.append(
            f"{stats.category:<16} {stats.events:>10} "
            f"{stats.wall_ns / 1e6:>10.2f} {stats.mean_us:>9.2f} "
            f"{stats.max_wall_ns / 1e3:>9.1f} {share * 100:>6.1f}%"
        )
    lines.append(
        f"{'total':<16} {total_events:>10} {total_ns / 1e6:>10.2f}"
    )
    if wall_seconds is not None:
        residual = wall_seconds - total_ns / 1e9
        lines.append(
            f"run wall time: {wall_seconds:.3f}s "
            f"({max(residual, 0.0):.3f}s engine overhead outside handlers)"
        )
    if tracer.peak_calendar:
        lines.append(f"peak calendar size: {tracer.peak_calendar}")
    return "\n".join(lines)
