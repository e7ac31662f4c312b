"""Lease lifecycle bookkeeping: grant, heartbeat, expire, reclaim.

The table takes ``now`` as an argument everywhere, so every scenario
here is a deterministic replay — no sleeps, no clocks.
"""

import math

from repro.parallel.leases import LeaseTable


class TestGrantAndRelease:
    def test_grant_claims_a_point(self):
        table = LeaseTable(ttl=10.0)
        lease = table.grant(3, 1, "agent0", now=100.0)
        assert (lease.index, lease.attempt, lease.worker) == (3, 1, "agent0")
        assert lease.deadline == 110.0
        assert lease.point_deadline == math.inf
        assert len(table) == 1

    def test_lease_ids_are_unique(self):
        table = LeaseTable()
        first = table.grant(0, 1, "a", now=0.0)
        second = table.grant(0, 2, "a", now=0.0)
        assert first.lease_id != second.lease_id

    def test_release_drops_the_lease(self):
        table = LeaseTable()
        lease = table.grant(0, 1, "a", now=0.0)
        assert table.release(lease.lease_id) is lease
        assert table.release(lease.lease_id) is None  # already gone
        assert len(table) == 0

    def test_point_budget_sets_point_deadline(self):
        table = LeaseTable(ttl=10.0)
        lease = table.grant(0, 1, "a", now=50.0, point_budget=120.0)
        assert lease.point_deadline == 170.0


class TestHeartbeat:
    def test_heartbeat_extends_the_deadline(self):
        table = LeaseTable(ttl=10.0)
        lease = table.grant(0, 1, "a", now=0.0)
        assert table.heartbeat(lease.lease_id, now=8.0)
        assert lease.deadline == 18.0
        assert lease.heartbeats == 1

    def test_heartbeat_never_extends_point_deadline(self):
        table = LeaseTable(ttl=10.0)
        lease = table.grant(0, 1, "a", now=0.0, point_budget=30.0)
        table.heartbeat(lease.lease_id, now=25.0)
        assert lease.point_deadline == 30.0
        assert table.overdue(now=31.0) == [lease]

    def test_stale_heartbeat_counted_not_raised(self):
        table = LeaseTable()
        assert not table.heartbeat("L999-p0-a1", now=0.0)
        assert table.stale_heartbeats == 1


class TestExpiryAndReclaim:
    def test_expired_lists_deadline_passed(self):
        table = LeaseTable(ttl=10.0)
        early = table.grant(0, 1, "a", now=0.0)
        late = table.grant(1, 1, "b", now=5.0)
        assert table.expired(now=12.0) == [early]
        assert table.expired(now=16.0) == [early, late]

    def test_reclaim_counts_and_removes(self):
        table = LeaseTable(ttl=10.0)
        lease = table.grant(0, 1, "a", now=0.0)
        assert table.reclaim(lease.lease_id) is lease
        assert table.reclaimed == 1
        assert len(table) == 0
        assert table.reclaim(lease.lease_id) is None

    def test_reclaimed_point_can_be_re_leased(self):
        table = LeaseTable(ttl=10.0)
        first = table.grant(0, 1, "a", now=0.0)
        table.reclaim(first.lease_id)
        second = table.grant(0, 1, "b", now=12.0)
        assert second.worker == "b"
        assert table.expired(now=13.0) == []
