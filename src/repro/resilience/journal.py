"""Crash-safe checkpoint journal for sweep executions.

The journal is an **append-only JSONL file**: one line per completed
sweep point, written with flush + fsync before the runner moves on, so
a SIGKILL mid-sweep loses at most the line being written — and a torn
tail line is detected and dropped on load rather than poisoning the
resume.  Entries are keyed by the point's content-addressed cache key
(:func:`repro.parallel.cache.cache_key`), which makes resumption
independent of point order, process identity, and even of whether the
result cache is enabled: ``repro sweep --resume journal.jsonl`` skips
exactly the points whose (config, extractor) identity already has a
journaled measurement.

The journal never *replaces* the cache — it is a per-sweep manifest of
what finished, small enough to ship as a CI artifact, while the cache
is a global memo table.  A point restored from the journal is reported
with manifest ``source: "journal"``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO

__all__ = ["JOURNAL_SCHEMA_VERSION", "JournalEntry", "SweepJournal"]

#: Bump when the journal line layout changes; loaders skip foreign versions.
JOURNAL_SCHEMA_VERSION = 1


def _field_str(document: dict[str, object], name: str) -> str:
    value = document.get(name)
    if not isinstance(value, str):
        raise ValueError(f"journal entry field {name!r} missing or not a string")
    return value


def _field_int(document: dict[str, object], name: str) -> int:
    value = document.get(name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"journal entry field {name!r} missing or not an int")
    return value


@dataclass(frozen=True)
class JournalEntry:
    """One completed sweep point: identity, provenance and measurements."""

    key: str
    """Content address of the (config, extractor) pair — the cache key."""
    config_hash: str
    run_id: str
    index: int
    """Position in the sweep that recorded the entry (informational —
    resume matches on ``key``, not index)."""
    attempts: int
    source: str
    """``"live"`` or ``"cache"`` — where the measurements came from."""
    measurements: dict[str, float]

    def to_dict(self) -> dict[str, object]:
        """The JSON line payload, schema-stamped."""
        document: dict[str, object] = {"v": JOURNAL_SCHEMA_VERSION}
        document.update(asdict(self))
        return document

    @classmethod
    def from_dict(cls, document: object) -> "JournalEntry":
        """Parse one raw journal line payload; raises ``ValueError`` on damage."""
        if not isinstance(document, dict):
            raise ValueError(
                f"journal line is a JSON {type(document).__name__}, "
                "not an object")
        if document.get("v") != JOURNAL_SCHEMA_VERSION:
            raise ValueError(f"journal schema {document.get('v')!r} is not "
                             f"{JOURNAL_SCHEMA_VERSION}")
        measurements = document.get("measurements")
        if not isinstance(measurements, dict):
            raise ValueError("journal entry measurements missing")
        return cls(
            key=_field_str(document, "key"),
            config_hash=_field_str(document, "config_hash"),
            run_id=_field_str(document, "run_id"),
            index=_field_int(document, "index"),
            attempts=_field_int(document, "attempts"),
            source=_field_str(document, "source"),
            measurements=measurements,
        )


class SweepJournal:
    """Append-only JSONL checkpoint file.

    Parameters
    ----------
    path:
        Journal file; created (with parents) on first :meth:`record`.
        Every entry is forced to stable storage before :meth:`record`
        returns.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = None
        self.recorded = 0
        self.skipped_lines = 0

    def load(self) -> dict[str, JournalEntry]:
        """Entries keyed by cache key; damaged lines are skipped.

        A truncated final line is the normal signature of a crash
        mid-append and is silently dropped (counted in
        :attr:`skipped_lines`); the point is simply recomputed.  Later
        entries for the same key win, so re-running an interrupted
        sweep against its own journal is idempotent.
        """
        entries: dict[str, JournalEntry] = {}
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return entries
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                document = json.loads(line)
                entry = JournalEntry.from_dict(document)
            except (ValueError, KeyError, TypeError):
                # Torn tail or damaged line: never trust it — recompute.
                self.skipped_lines += 1
                continue
            entries[entry.key] = entry
        return entries

    def record(self, entry: JournalEntry) -> None:
        """Append one entry durably (write, flush, fsync)."""
        if self._handle is None:
            if self.path.parent != Path():
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
        line = json.dumps(entry.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.recorded += 1

    def compact(self) -> tuple[int, int]:
        """Rewrite the journal keeping only the last entry per key.

        Long-lived journals accumulate superseded lines — cache replays
        of already-journaled points, re-runs after partial failures, the
        at-least-once aftermath of distributed sweeps.  Compaction
        rewrites the file with one line per cache key (the latest entry,
        matching :meth:`load` semantics), preserving first-appearance
        order.  Damaged lines — including a torn tail — are dropped, as
        on load.

        The rewrite is **atomic** (temp file + rename in the same
        directory), so a crash mid-compaction leaves the original intact.
        Returns ``(kept, dropped)`` line counts; a missing journal is
        ``(0, 0)``.
        """
        if self._handle is not None:
            self.close()
        entries = self.load()
        try:
            total_lines = sum(1 for line in self.path.read_text().splitlines()
                              if line.strip())
        except FileNotFoundError:
            return (0, 0)
        tmp = self.path.with_suffix(self.path.suffix + f".compact.{os.getpid()}")
        with tmp.open("w") as handle:
            for entry in entries.values():
                handle.write(json.dumps(entry.to_dict(), sort_keys=True,
                                        separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(self.path)
        return (len(entries), total_lines - len(entries))

    def close(self) -> None:
        """Close the append handle (load/record reopen as needed)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SweepJournal(path={str(self.path)!r}, "
                f"recorded={self.recorded}, skipped={self.skipped_lines})")
