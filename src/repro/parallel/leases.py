"""Lease-based work claiming: the coordinator's one busy-table.

A sweep point dispatched to a worker — a local process or a remote
agent — is never *given away*; it is **leased**: the coordinator grants
a lease with a deadline, the worker keeps it alive, and a lease whose
deadline passes without a keep-alive is **reclaimed** so the point can
be re-leased to a healthier worker.  (A pipe worker's table has a TTL
of ``inf``: its death is an EOF, not a silence.)  An orphaned point
(worker died, network partitioned, host rebooted) therefore costs
latency, never results.

Reclamation makes execution *at-least-once*: a partitioned-but-alive
worker may still finish its stale lease and report a result the
coordinator has meanwhile re-leased.  That is safe because results are
keyed by content address — duplicate completions carry identical
payloads and dedupe; conflicting payloads for one key are quarantined,
both of them (see :meth:`ResultCache.put
<repro.parallel.cache.ResultCache.put>`).

The table is pure bookkeeping — no threads, no sockets, no wall-clock
reads of its own.  The coordinator injects ``now`` (a monotonic
reading) into every call, which keeps the whole lease lifecycle
deterministic under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Lease", "LeaseTable"]


@dataclass
class Lease:
    """One granted claim on one sweep point."""

    lease_id: str
    index: int
    attempt: int
    worker: str
    """The granting-time identity of the claiming worker (agent name)."""
    deadline: float
    """Monotonic instant the lease expires unless a heartbeat extends it."""
    point_deadline: float = math.inf
    """Monotonic instant the point's *total* wall-clock budget runs out
    (``resilience.timeout``); heartbeats never extend this one."""
    granted_at: float = 0.0
    """Monotonic instant of the grant (a failed attempt's wall time)."""
    heartbeats: int = 0


class LeaseTable:
    """Grant, refresh, expire and reclaim leases over sweep points.

    Parameters
    ----------
    ttl:
        Seconds a lease survives without a heartbeat.  Kept well above
        the heartbeat interval so one dropped message does not orphan a
        healthy worker's point.
    """

    def __init__(self, ttl: float = 15.0) -> None:
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        self.ttl = float(ttl)
        self.active: dict[str, Lease] = {}
        self.granted = 0
        self.reclaimed = 0
        self.stale_heartbeats = 0

    def grant(self, index: int, attempt: int, worker: str, now: float,
              point_budget: float | None = None) -> Lease:
        """Claim ``index`` for ``worker``; returns the new lease.

        ``point_budget`` is the per-point wall-clock allowance
        (``resilience.timeout``); the lease tracks it separately from
        the heartbeat deadline so a worker that heartbeats forever on a
        stuck point still times out.
        """
        self.granted += 1
        lease = Lease(
            lease_id=f"L{self.granted}-p{index}-a{attempt}",
            index=index,
            attempt=attempt,
            worker=worker,
            deadline=now + self.ttl,
            point_deadline=(now + point_budget
                            if point_budget is not None else math.inf),
            granted_at=now,
        )
        self.active[lease.lease_id] = lease
        return lease

    def heartbeat(self, lease_id: str, now: float) -> bool:
        """Extend a live lease; ``False`` for a stale/unknown lease id.

        Stale heartbeats are the normal aftermath of reclamation — the
        orphaned worker is still alive and still working — so they are
        counted, not raised.
        """
        lease = self.active.get(lease_id)
        if lease is None:
            self.stale_heartbeats += 1
            return False
        lease.deadline = now + self.ttl
        lease.heartbeats += 1
        return True

    def release(self, lease_id: str) -> Lease | None:
        """Drop a lease on completion; ``None`` if it was already reclaimed."""
        return self.active.pop(lease_id, None)

    def expired(self, now: float) -> list[Lease]:
        """Leases whose heartbeat deadline has passed, oldest grant first."""
        return [lease for lease in self._ordered()
                if lease.deadline <= now]

    def overdue(self, now: float) -> list[Lease]:
        """Leases whose *point* budget has run out (heartbeats or not)."""
        return [lease for lease in self._ordered()
                if lease.point_deadline <= now]

    def reclaim(self, lease_id: str) -> Lease | None:
        """Take an expired lease back for re-leasing; counts it."""
        lease = self.active.pop(lease_id, None)
        if lease is not None:
            self.reclaimed += 1
        return lease

    def _ordered(self) -> list[Lease]:
        """Active leases in grant order (dict preserves insertion)."""
        return list(self.active.values())

    def __len__(self) -> int:
        return len(self.active)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LeaseTable(ttl={self.ttl}, active={len(self.active)}, "
                f"granted={self.granted}, reclaimed={self.reclaimed})")
