"""In-memory spans recorded from outside the program, for the traced run.

A span is ``name, start, end, parent, run`` plus counts taken at the
same boundary.  The recorder lives in the benchmark: it wraps calls
*into* each layer's public functions and turns the sweep runner's
public progress events into spans.  Nothing inside ``src/repro`` is
touched or patched; tracing inside the program is a later issue.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterator


@dataclass
class Span:
    ident: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    """Identifier shared by the spans of one scenario run / sweep point."""
    lane: str = "main"
    """Worker the span ran on (a Chrome-trace thread)."""
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; nesting follows the ``with`` structure."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, run: str = "", **counts: float) -> Iterator[Span]:
        parent = self.current
        opened = Span(ident=len(self.spans), name=name, start=perf_counter(),
                      end=0.0, parent=None if parent is None else parent.ident,
                      run=run or (parent.run if parent is not None else ""),
                      counts=dict(counts))
        self.spans.append(opened)
        self._stack.append(opened)
        try:
            yield opened
        finally:
            opened.end = perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, *, parent: Span | None,
            run: str, lane: str = "main", **counts: float) -> Span:
        """Record a span whose boundaries were observed, not entered —
        one built from progress events or from the gap between two
        recorded spans."""
        if parent is not None:
            # An observed span cannot stick out of the call that caused it.
            start = max(start, parent.start)
            end = min(max(end, start), parent.end or end)
        made = Span(ident=len(self.spans), name=name, start=start,
                    end=max(end, start),
                    parent=None if parent is None else parent.ident,
                    run=run, lane=lane, counts=dict(counts))
        self.spans.append(made)
        return made

    # ------------------------------------------------------------------
    # Self time
    # ------------------------------------------------------------------
    def children(self) -> dict[int, list[Span]]:
        """Spans grouped by parent ident (one pass over all spans)."""
        grouped: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                grouped.setdefault(span.parent, []).append(span)
        return grouped

    def self_seconds(self, span: Span,
                     children: dict[int, list[Span]] | None = None) -> float:
        """``span``'s duration minus the part its child spans cover.

        Children of one parent may overlap (two workers running points
        side by side), so the covered part is the *union* of the child
        intervals, clipped to the parent.  Pass :meth:`children` when
        asking for many spans, so they are grouped once.
        """
        grouped = self.children() if children is None else children
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in grouped.get(span.ident, ()))
        covered = 0.0
        cursor = span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return max(0.0, span.duration - covered)

    def self_by_name(self) -> dict[str, float]:
        """Total self seconds per span name."""
        grouped = self.children()
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = (totals.get(span.name, 0.0)
                                 + self.self_seconds(span, grouped))
        return totals

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (open in Perfetto / chrome://tracing)."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span.start for span in self.spans)
        grouped = self.children()
        lanes = {lane: tid for tid, lane in enumerate(
            sorted({span.lane for span in self.spans}), start=1)}
        events: list[dict] = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
             "args": {"name": lane}} for lane, tid in lanes.items()]
        for span in self.spans:
            events.append({
                "ph": "X", "name": span.name, "cat": span.name.split(".")[0],
                "pid": 1, "tid": lanes[span.lane],
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"id": span.ident, "parent": span.parent,
                         "run": span.run,
                         "self_us": self.self_seconds(span, grouped) * 1e6,
                         **span.counts},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()) + "\n")
        return path
