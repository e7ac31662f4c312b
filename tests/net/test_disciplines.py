"""Unit tests for the queue-discipline registry and the RED queue."""

import pytest

from repro.engine import SimRandom
from repro.errors import ConfigurationError
from repro.net import (
    DropTailQueue,
    Packet,
    PacketKind,
    RandomDropQueue,
    RedQueue,
    create_queue,
    discipline_names,
    validate_params,
)
from repro.net.disciplines import DISCIPLINES


def _packet(seq, conn=1):
    return Packet(conn_id=conn, kind=PacketKind.DATA, seq=seq, size=500)


class TunedRed(RedQueue):
    """A conforming subclass to swap in for ``red``."""

    __slots__ = ()


class TestRegistry:
    """The built-ins; the rules both registries share are in
    ``tests/test_registry.py``."""

    def test_builtins_registered(self):
        assert discipline_names() == ["droptail", "randomdrop", "red"]

    def test_create_queue_builds_the_registered_class(self):
        assert type(create_queue("droptail", "q", 8)) is DropTailQueue
        assert type(create_queue("randomdrop", "q", 8)) is RandomDropQueue
        assert type(create_queue("red", "q", 8)) is RedQueue

    def test_validate_params_eagerly_rejects(self):
        validate_params("red", (("max_p", 0.5),))
        with pytest.raises(ConfigurationError):
            validate_params("red", (("min_th", 20.0), ("max_th", 10.0)))

    def test_only_drawing_disciplines_hold_a_random_stream(self):
        assert not hasattr(create_queue("droptail", "q", 8, rng=SimRandom(3)),
                           "_rng")
        assert not hasattr(DropTailQueue("q", 8), "_rng")
        for name in ("randomdrop", "red"):
            given = SimRandom(3)
            assert create_queue(name, "q", 8, rng=given)._rng is given
            assert create_queue(name, "q", 8)._rng.seed == 0

    @pytest.mark.parametrize("name", ["randomdrop", "red"])
    def test_an_omitted_stream_draws_as_seed_zero(self, name):
        def outcomes(**rng):
            queue = create_queue(name, "q", 6, (("min_th", 1.0), ("max_th", 8.0),
                                                ("max_p", 0.5), ("wq", 0.5))
                                 if name == "red" else (), **rng)
            kept = [queue.offer(i * 0.01, _packet(i)) for i in range(40)]
            return kept, [p.seq for p in queue.snapshot()], queue.drops

        assert outcomes() == outcomes(rng=SimRandom(0))
        assert outcomes()[2] > 0

    def test_swapped_entry_resolves(self, monkeypatch):
        monkeypatch.setitem(DISCIPLINES._factories, "red", TunedRed)
        assert type(create_queue("red", "q", 8)) is TunedRed


class TestRedQueue:
    def test_below_min_threshold_never_drops(self):
        queue = RedQueue("q", capacity=100, rng=SimRandom(7),
                         min_th=50.0, max_th=90.0)
        for i in range(30):
            assert queue.offer(i * 0.01, _packet(i))
        assert queue.drops == 0

    def test_forced_drop_above_max_threshold(self):
        queue = RedQueue("q", capacity=100, rng=SimRandom(7),
                         min_th=0.5, max_th=2.0, wq=1.0)
        # wq=1 makes the average track the instantaneous length exactly;
        # once avg >= max_th every arrival is discarded early.
        admitted = sum(queue.offer(i * 0.01, _packet(i)) for i in range(10))
        assert queue.drops > 0
        assert admitted < 10
        assert len(queue) < 10

    def test_early_discard_is_probabilistic_between_thresholds(self):
        drops = []
        for seed in (1, 2, 3):
            queue = RedQueue("q", capacity=1000, rng=SimRandom(seed),
                             min_th=2.0, max_th=500.0, max_p=0.5, wq=1.0)
            for i in range(200):
                queue.offer(i * 0.01, _packet(i))
            drops.append(queue.drops)
        assert all(0 < d < 200 for d in drops)
        assert len(set(drops)) > 1  # seed-dependent, rng-driven

    def test_physical_overflow_still_drop_tail(self):
        queue = RedQueue("q", capacity=3, rng=SimRandom(7),
                         min_th=50.0, max_th=90.0)
        for i in range(5):
            queue.offer(i * 0.01, _packet(i))
        assert len(queue) == 3
        assert queue.drops == 2
        assert [p.seq for p in queue.snapshot()] == [0, 1, 2]

    def test_avg_decays_while_idle(self):
        queue = RedQueue("q", capacity=100, rng=SimRandom(7),
                         min_th=1.0, max_th=50.0, wq=0.5, idle_pkt_time=0.1)
        for i in range(8):
            queue.offer(i * 0.01, _packet(i))
        while queue.take(0.1) is not None:
            pass
        busy_avg = queue.avg_queue
        queue.offer(10.0, _packet(100))  # long idle gap decays the EWMA
        assert queue.avg_queue < busy_avg

    def test_invalid_params_rejected(self):
        for kwargs in ({"min_th": 10.0, "max_th": 5.0},
                       {"max_p": 0.0}, {"max_p": 1.5},
                       {"wq": 0.0}, {"wq": 2.0},
                       {"idle_pkt_time": -1.0}):
            with pytest.raises(ValueError):
                RedQueue("q", capacity=10, rng=SimRandom(1), **kwargs)
            # create_queue wraps the same failure for config surfaces.
            with pytest.raises(ConfigurationError):
                create_queue("red", "q", 10, tuple(kwargs.items()))

    def test_same_seed_same_drop_pattern(self):
        def run(seed):
            queue = RedQueue("q", capacity=50, rng=SimRandom(seed),
                             min_th=2.0, max_th=20.0, max_p=0.3, wq=0.2)
            outcomes = []
            for i in range(100):
                outcomes.append(queue.offer(i * 0.01, _packet(i)))
                if i % 3 == 0:
                    queue.take(i * 0.01 + 0.005)
            return outcomes

        assert run(11) == run(11)
        assert run(11) != run(12)
