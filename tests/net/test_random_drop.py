"""Unit tests for repro.net.random_drop."""

import pytest

from repro.engine import SimRandom
from repro.net import Packet, PacketKind, RandomDropQueue
from repro.net.queues import EVICT
from repro.scenarios.config import QueueSpec


def _packet(seq, conn=1):
    return Packet(conn_id=conn, kind=PacketKind.DATA, seq=seq, size=500)


class TestRandomDrop:
    def test_behaves_like_droptail_until_full(self):
        queue = RandomDropQueue("q", capacity=3, rng=SimRandom(1))
        for i in range(3):
            assert queue.offer(0.0, _packet(i))
        assert queue.drops == 0
        assert [p.seq for p in queue.snapshot()] == [0, 1, 2]

    def test_overflow_admits_arrival_and_evicts_queued(self):
        queue = RandomDropQueue("q", capacity=3, rng=SimRandom(1))
        for i in range(3):
            queue.offer(0.0, _packet(i))
        assert queue.offer(1.0, _packet(99)) is True  # arrival admitted
        assert queue.drops == 1
        snapshot = [p.seq for p in queue.snapshot()]
        assert 99 in snapshot
        assert len(snapshot) == 3

    def test_victim_reported_to_drop_observer(self):
        queue = RandomDropQueue("q", capacity=2, rng=SimRandom(1))
        victims = []
        queue.observe(lambda record: record[0] == EVICT
                      and victims.append(record[2].seq))
        queue.offer(0.0, _packet(0))
        queue.offer(0.0, _packet(1))
        queue.offer(1.0, _packet(2))
        assert len(victims) == 1
        assert victims[0] in (0, 1)  # a queued packet, never the arrival

    def test_length_never_exceeds_capacity(self):
        queue = RandomDropQueue("q", capacity=4, rng=SimRandom(2))
        for i in range(50):
            queue.offer(float(i), _packet(i))
            assert len(queue) <= 4

    def test_victims_are_spread(self):
        """Over many overflows, eviction should hit many positions."""
        queue = RandomDropQueue("q", capacity=10, rng=SimRandom(3))
        victims = []
        queue.observe(lambda record: record[0] == EVICT
                      and victims.append(record[2].seq))
        for i in range(500):
            queue.offer(float(i), _packet(i))
        # Victims should not all be the most recent packets (drop-tail)
        # nor all the oldest (drop-front).
        positions = {v % 10 for v in victims}
        assert len(positions) >= 5

    def test_conservation(self):
        # With random drop, every arrival is enqueued and victims are
        # dropped afterwards: enqueues == dequeues + drops + len.
        queue = RandomDropQueue("q", capacity=5, rng=SimRandom(4))
        for i in range(100):
            queue.offer(0.0, _packet(i))
        taken = 0
        while queue.take(1.0) is not None:
            taken += 1
        assert queue.enqueues == 100
        assert taken + queue.drops == 100
        assert taken == 5  # exactly the buffer's worth survives

    def test_deterministic_given_seed(self):
        def run_once(seed):
            queue = RandomDropQueue("q", capacity=3, rng=SimRandom(seed))
            victims = []
            queue.observe(lambda record: record[0] == EVICT
                          and victims.append(record[2].seq))
            for i in range(50):
                queue.offer(0.0, _packet(i))
            return victims

        assert run_once(7) == run_once(7)
        assert run_once(7) != run_once(8)


class TestScenarioIntegration:
    def test_random_drop_scenario_spreads_losses(self):
        from repro.scenarios import paper, run

        drop_tail = run(paper.figure4(duration=200.0, warmup=80.0))
        random_drop = run(paper.figure4(duration=200.0, warmup=80.0)
                          .with_updates(queue=QueueSpec("randomdrop")))
        # Drop-tail (out-of-phase): most epochs have a single loser.
        dt_single = sum(1 for e in drop_tail.epochs() if len(e.connections) == 1)
        rd_shared = sum(1 for e in random_drop.epochs() if len(e.connections) == 2)
        assert dt_single >= len(drop_tail.epochs()) * 0.6
        assert rd_shared >= 1
