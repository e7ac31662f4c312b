"""Deterministic fault injection for sweep supervision tests and chaos CI.

Recovery code that never runs is recovery code that does not work.  This
module injects the failures the resilience layer claims to survive —
worker death, hangs past the timeout, slow points, in-worker exceptions,
and torn cache entries — at *specific, reproducible* places, driven by
the ``REPRO_FAULTS`` environment variable::

    REPRO_FAULTS="kill@2;corrupt@4;hang@7:600"    repro sweep conjecture ...

Grammar (clauses separated by ``;``)::

    clause := KIND '@' POINT [':' VALUE] ['*' COUNT]
    KIND   := kill | hang | slow | raise | corrupt
            | worker-kill | lease-expire | cache-unreachable
    POINT  := sweep point index
    VALUE  := seconds (hang: default 3600, slow: default 1.0)
    COUNT  := how many attempts the fault fires on (default 1)

``kill`` makes the worker die with ``os._exit(137)`` (an OOM-kill
stand-in), ``hang`` sleeps past any sane timeout, ``slow`` adds latency
but succeeds, ``raise`` throws :class:`~repro.errors.FaultInjectionError`
inside the worker, and ``corrupt`` truncates the point's freshly written
cache entry (exercising quarantine on the next read).  With the default
``COUNT`` of 1 a fault fires on the first attempt only, so a retry
succeeds — the shape every recovery test wants.  Every point is named
explicitly, so the whole schedule is a pure function of the spec string.

In-worker faults are applied by the one attempt body every execution
path shares (``parallel/backends/coordinator.py::_attempt``): on
``jobs > 1`` worker processes, on fleet agents, and in-process on
``jobs == 1`` — where a ``kill`` or ``hang`` is faithfully fatal to the
process that asked for it.  Without a resilience policy a ``kill`` or
``raise`` fails the sweep promptly, as the real thing would.
``corrupt`` is applied in the parent wherever cache writes happen, so
it works on every path.

Three hyphenated kinds name what the lease layer survives; the
coordinator ships one clause set to every worker and keeps one lease
table for both transports, so they fire wherever a point runs:

* ``worker-kill@n`` — the long-lived worker (process or agent) that
  receives the lease for point ``n`` dies with ``os._exit(137)``,
  taking its slot with it — on a long-lived worker the same thing as
  ``kill``.
* ``lease-expire@n`` — the coordinator force-expires the lease on
  point ``n`` even though the worker is healthy (a simulated network
  partition); the point is re-leased and the partitioned worker's
  eventual duplicate result must dedupe.
* ``cache-unreachable@n`` — every cache read/write for point ``n``
  behaves as if the shared store were down: reads miss, writes are
  skipped with a warning, and the sweep must still complete with
  bit-identical measurements (the journal stays the source of truth).

Shipping in-worker clauses to a remote agent uses
:meth:`FaultClause.to_dict` / :meth:`FaultClause.from_dict` — the plan
itself never crosses the wire, only the clauses already matched to one
(point, attempt) lease.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.errors import ConfigurationError, FaultInjectionError

__all__ = [
    "FAULTS_ENV",
    "AGENT_KINDS",
    "KINDS",
    "REMOTE_KINDS",
    "WORKER_KINDS",
    "FaultClause",
    "FaultPlan",
    "active_plan",
    "apply_worker_faults",
    "corrupt_entry_file",
    "parse_faults",
]

FAULTS_ENV = "REPRO_FAULTS"

#: Fault kinds executed inside a worker attempt, in application order.
WORKER_KINDS = ("kill", "hang", "slow", "raise")
#: Fault kinds that target the lease layer: the worker holding a lease,
#: the lease lifecycle, and the shared cache transport.
REMOTE_KINDS = ("worker-kill", "lease-expire", "cache-unreachable")
#: In-worker kinds shipped alongside every lease (for a long-lived
#: worker ``kill`` and ``worker-kill`` are the same ``os._exit``).
AGENT_KINDS = WORKER_KINDS + ("worker-kill",)
#: All fault kinds; ``corrupt`` is applied in the parent after a cache put.
KINDS = WORKER_KINDS + ("corrupt",) + REMOTE_KINDS

_DEFAULT_VALUES = {"hang": 3600.0, "slow": 1.0}

_CLAUSE_RE = re.compile(
    r"^(?P<kind>[a-z][a-z-]*)@(?P<point>\d+)"
    r"(?::(?P<value>\d+(?:\.\d+)?))?"
    r"(?:\*(?P<count>\d+))?$"
)


@dataclass(frozen=True)
class FaultClause:
    """One injected fault: what, where, how hard, and how often."""

    kind: str
    point: int
    """Target sweep point index."""
    value: float = 0.0
    """Seconds, for ``hang``/``slow``; unused otherwise."""
    count: int = 1
    """The fault fires on attempts ``1..count`` of its point."""

    def matches(self, index: int, attempt: int) -> bool:
        """True when this clause fires for ``(index, attempt)``."""
        return self.point == index and 1 <= attempt <= self.count

    def to_dict(self) -> dict[str, object]:
        """A JSON-compatible form for shipping clauses to worker agents."""
        return {"kind": self.kind, "point": self.point,
                "value": self.value, "count": self.count}

    @classmethod
    def from_dict(cls, raw: dict[str, object]) -> "FaultClause":
        """Rebuild a shipped clause; raises ``ValueError`` on damage."""
        kind = raw.get("kind")
        if not isinstance(kind, str) or kind not in KINDS:
            raise ValueError(f"bad fault clause kind: {kind!r}")
        point = raw.get("point")
        if not isinstance(point, int):
            raise ValueError(f"bad fault clause point: {point!r}")
        value = raw.get("value", 0.0)
        count = raw.get("count", 1)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"bad fault clause value: {value!r}")
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ValueError(f"bad fault clause count: {count!r}")
        return cls(kind=kind, point=point, value=float(value), count=count)


@dataclass(frozen=True)
class FaultPlan:
    """A parsed fault schedule."""

    clauses: tuple[FaultClause, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.clauses)

    def corrupts(self, index: int) -> bool:
        """True when the cache entry written for ``index`` is torn."""
        return any(clause.kind == "corrupt" and clause.matches(index, 1)
                   for clause in self.clauses)

    def agent_faults(self, index: int, attempt: int) -> tuple[FaultClause, ...]:
        """The clauses shipped with this (point, attempt) to whoever runs
        it — worker process, fleet agent or this process.

        ``worker-kill`` rides along with the plain in-worker kinds — on
        a long-lived worker both mean the worker process dies.
        """
        return tuple(clause for clause in self.clauses
                     if clause.kind in AGENT_KINDS
                     and clause.matches(index, attempt))

    def lease_expires(self, index: int, occurrence: int) -> bool:
        """True when occurrence ``occurrence`` (1-based) of a forced
        lease expiry should fire on ``index``.

        The coordinator counts how many times it has already expired the
        point's lease on purpose, so a re-leased point does not loop
        forever on the same clause.
        """
        return any(clause.kind == "lease-expire"
                   and clause.matches(index, occurrence)
                   for clause in self.clauses)

    def cache_unreachable(self, index: int) -> bool:
        """True when cache traffic for ``index`` must act partitioned."""
        return any(clause.kind == "cache-unreachable"
                   and clause.matches(index, 1)
                   for clause in self.clauses)


def parse_faults(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`."""
    clauses: list[FaultClause] = []
    for raw in spec.split(";"):
        text = raw.strip()
        if not text:
            continue
        match = _CLAUSE_RE.match(text)
        if match is None:
            raise ConfigurationError(
                f"bad {FAULTS_ENV} clause {text!r}; expected "
                "KIND@POINT[:SECONDS][*COUNT] with KIND in "
                f"{'/'.join(KINDS)}")
        kind = match.group("kind")
        if kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r} in {FAULTS_ENV} clause "
                f"{text!r} (known: {', '.join(KINDS)})")
        point = int(match.group("point"))
        value_text = match.group("value")
        value = (float(value_text) if value_text is not None
                 else _DEFAULT_VALUES.get(kind, 0.0))
        count = int(match.group("count") or 1)
        if count < 1:
            raise ConfigurationError(
                f"fault count must be >= 1 in {FAULTS_ENV} clause {text!r}")
        clauses.append(FaultClause(kind=kind, point=point, value=value,
                                   count=count))
    return FaultPlan(tuple(clauses))


def active_plan() -> FaultPlan:
    """The plan from ``$REPRO_FAULTS`` (an empty plan when unset).

    Parsed on every call — it is read once per sweep, not per point,
    and tests monkeypatch the environment freely.
    """
    spec = os.environ.get(FAULTS_ENV, "")
    return parse_faults(spec) if spec.strip() else FaultPlan()


def apply_worker_faults(faults: Iterable[FaultClause], index: int,
                        attempt: int) -> None:
    """Execute the in-worker faults scheduled for this attempt.

    Called at the top of a contained attempt, before the simulation
    starts.  ``kill`` never returns; ``hang``/``slow`` sleep;
    ``raise`` throws.  Runs in the worker process (or in-process, on
    ``jobs == 1`` — where ``kill`` and ``hang`` are faithfully fatal).
    """
    for clause in faults:
        if clause.kind in ("kill", "worker-kill"):
            os._exit(137)
        elif clause.kind in ("hang", "slow"):
            time.sleep(clause.value)
        elif clause.kind == "raise":
            raise FaultInjectionError(
                f"injected fault: raise at point {index} attempt {attempt}")


def corrupt_entry_file(path: str | Path) -> None:
    """Truncate a file to half its bytes — a simulated torn write."""
    target = Path(path)
    data = target.read_bytes()
    target.write_bytes(data[: len(data) // 2])
