"""Unit tests for repro.net.queues (drop-tail FIFO)."""

import pytest

from repro.net import DropTailQueue, Packet, PacketKind
from repro.net.queues import ADMIT, REFUSE, TAKE


def _packet(seq=0, conn=1):
    return Packet(conn_id=conn, kind=PacketKind.DATA, seq=seq, size=500)


class TestBasics:
    def test_starts_empty(self):
        queue = DropTailQueue("q", capacity=3)
        assert len(queue) == 0
        assert queue.is_empty
        assert not queue.is_full
        assert queue.peek() is None

    def test_fifo_order(self):
        queue = DropTailQueue("q", capacity=10)
        packets = [_packet(seq=i) for i in range(5)]
        for p in packets:
            assert queue.offer(0.0, p)
        taken = [queue.take(1.0) for _ in range(5)]
        assert [p.seq for p in taken] == [0, 1, 2, 3, 4]

    def test_take_from_empty_returns_none(self):
        assert DropTailQueue("q", capacity=3).take(0.0) is None

    def test_peek_does_not_remove(self):
        queue = DropTailQueue("q", capacity=3)
        queue.offer(0.0, _packet(seq=9))
        assert queue.peek().seq == 9
        assert len(queue) == 1

    def test_snapshot_returns_copy(self):
        queue = DropTailQueue("q", capacity=3)
        queue.offer(0.0, _packet(seq=1))
        snap = queue.snapshot()
        snap.clear()
        assert len(queue) == 1


class TestDropTail:
    def test_overflow_drops_arriving_packet(self):
        queue = DropTailQueue("q", capacity=2)
        assert queue.offer(0.0, _packet(seq=0))
        assert queue.offer(0.0, _packet(seq=1))
        assert not queue.offer(0.0, _packet(seq=2))
        assert queue.drops == 1
        # The buffered packets are untouched.
        assert [p.seq for p in queue.snapshot()] == [0, 1]

    def test_is_full_at_capacity(self):
        queue = DropTailQueue("q", capacity=1)
        queue.offer(0.0, _packet())
        assert queue.is_full

    def test_space_frees_after_take(self):
        queue = DropTailQueue("q", capacity=1)
        queue.offer(0.0, _packet(seq=0))
        queue.take(1.0)
        assert queue.offer(1.0, _packet(seq=1))
        assert queue.drops == 0

    def test_infinite_capacity_never_drops(self):
        queue = DropTailQueue("q", capacity=None)
        for i in range(10_000):
            assert queue.offer(0.0, _packet(seq=i))
        assert queue.drops == 0
        assert not queue.is_full

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue("q", capacity=0)


class TestCounters:
    def test_enqueue_dequeue_counts(self):
        queue = DropTailQueue("q", capacity=5)
        for i in range(4):
            queue.offer(0.0, _packet(seq=i))
        for _ in range(2):
            queue.take(1.0)
        assert queue.enqueues == 4
        assert queue.dequeues == 2
        assert len(queue) == 2

    def test_conservation(self):
        queue = DropTailQueue("q", capacity=3)
        offered = 20
        for i in range(offered):
            queue.offer(0.0, _packet(seq=i))
        assert queue.enqueues + queue.drops == offered
        assert queue.enqueues == queue.dequeues + len(queue)


class TestObservers:
    """One sink per queue sees every admit / take / refuse as one
    ``(kind, now, packet, qlen)`` record."""

    def test_length_observer_sees_every_change(self):
        queue = DropTailQueue("q", capacity=5)
        history = []
        queue.observe(lambda record: history.append((record[1], record[3])))
        queue.offer(1.0, _packet())
        queue.offer(2.0, _packet())
        queue.take(3.0)
        assert history == [(1.0, 1), (2.0, 2), (3.0, 1)]

    def test_drop_observer(self):
        queue = DropTailQueue("q", capacity=1)
        records = []
        queue.observe(records.append)
        queue.offer(0.0, _packet(seq=0))
        queue.offer(5.0, _packet(seq=1))
        assert [(kind, now, packet.seq, qlen)
                for kind, now, packet, qlen in records] == [
                    (ADMIT, 0.0, 0, 1), (REFUSE, 5.0, 1, 1)]

    def test_enqueue_and_dequeue_observers(self):
        queue = DropTailQueue("q", capacity=5)
        records = []
        queue.observe(records.append)
        queue.offer(0.0, _packet(seq=7))
        queue.take(1.0)
        assert [(kind, packet.seq) for kind, _, packet, _ in records] == [
            (ADMIT, 7), (TAKE, 7)]

    def test_discards_go_to_the_drops_sink_when_one_is_given(self):
        queue = DropTailQueue("q", capacity=1)
        kept, dropped, everything = [], [], []
        queue.observe(kept.append, drops=dropped.append)
        queue.observe(everything.append)
        queue.offer(0.0, _packet(seq=0))
        queue.offer(1.0, _packet(seq=1))  # dropped
        queue.take(2.0)
        assert [record[0] for record in kept] == [ADMIT, TAKE]
        assert [record[0] for record in dropped] == [REFUSE]
        assert [record[0] for record in everything] == [ADMIT, REFUSE, TAKE]

    def test_no_length_change_on_drop(self):
        queue = DropTailQueue("q", capacity=1)
        records = []
        queue.offer(0.0, _packet())
        queue.observe(records.append)
        queue.offer(1.0, _packet())  # dropped
        assert [(kind, qlen) for kind, _, _, qlen in records] == [(REFUSE, 1)]
