"""Differential test: ``PortMonitor`` against the four monitors it fused.

``legacy_monitors.py`` is the pre-fusion ``QueueMonitor`` +
``LinkMonitor`` + ``SojournMonitor`` + ``DropLog``, frozen.  Hypothesis
generates programs of offer / take / transmit operations on one
``OutputPort``; both generations watch that same port, and every record
either keeps must come out equal — bit for bit, windows included.

The golden fingerprints hash queue lengths, utilizations, ACK arrivals
and drops, so byte occupancy, departures and sojourn samples have no
other bit-level guard; and Random Drop's eviction of a *buffered* packet
is exactly where one uid dictionary standing in for two can go wrong.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Simulator
from repro.engine.rng import SimRandom
from repro.metrics import PortMonitor
from repro.net import Link, OutputPort, Packet, PacketKind
from repro.net.disciplines import create_queue
from repro.net.node import Node
from tests.metrics import legacy_monitors as legacy

#: 500-byte data and 50-byte ACKs serialize in 80 ms and 8 ms.
BANDWIDTH = 50_000.0

#: Small enough thresholds that RED's early discards fire on these
#: three-to-five-packet backlogs.
DISCIPLINES = {
    "droptail": {},
    "randomdrop": {},
    "red": {"min_th": 1.0, "max_th": 3.0, "max_p": 0.5, "wq": 0.5},
}


class _Sink(Node):
    def handle_packet(self, packet):
        pass


class _Rig:
    """One port watched by both generations of monitor."""

    def __init__(self, discipline, capacity, seed):
        self.sim = Simulator()
        link = Link(self.sim, "wire", 0.0, destination=_Sink(self.sim, "sink"))
        queue = create_queue(discipline, "port:queue", capacity,
                             DISCIPLINES[discipline], rng=SimRandom(seed),
                             strict=True)
        self.port = OutputPort(self.sim, "port", BANDWIDTH, link, capacity,
                               queue=queue)
        self.queue_mon = legacy.QueueMonitor(self.port)
        self.link_mon = legacy.LinkMonitor(self.port)
        self.sojourn_mon = legacy.SojournMonitor(self.port)
        self.drop_log = legacy.DropLog()
        self.drop_log.watch(self.port)
        self.fused = PortMonitor(self.port)
        self.seq = 0

    def _packet(self, is_data, size, conn_id, is_retransmit):
        # A fresh packet per arrival: a uid visits a port once.
        self.seq += 1
        if is_data:
            return Packet(conn_id=conn_id, kind=PacketKind.DATA, seq=self.seq,
                          size=size, is_retransmit=is_retransmit)
        return Packet(conn_id=conn_id, kind=PacketKind.ACK, ack=self.seq,
                      size=size)

    # The operations.  ``send`` is the port's own path (transmit at once
    # when idle, offer otherwise) and ``advance`` lets transmissions
    # finish, each taking and transmitting the next buffered packet;
    # ``offer`` and ``take`` reach past the transmitter, so packets also
    # wait behind an idle port and leave the buffer without departing.
    def send(self, *fields):
        self.port.send(self._packet(*fields))

    def offer(self, *fields):
        self.port.queue.offer(self.sim.now, self._packet(*fields))

    def take(self):
        self.port.queue.take(self.sim.now)

    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)


packets = st.tuples(st.booleans(), st.sampled_from([0, 50, 500, 500]),
                    st.integers(min_value=1, max_value=3), st.booleans())
# Repeated round values line arrivals up with transmission ends.
steps = st.one_of(st.sampled_from([0.0, 0.008, 0.04, 0.08, 0.16]),
                  st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
operations = st.one_of(
    st.tuples(st.just("send"), packets).map(lambda op: (op[0], *op[1])),
    st.tuples(st.just("send"), packets).map(lambda op: (op[0], *op[1])),
    st.tuples(st.just("offer"), packets).map(lambda op: (op[0], *op[1])),
    st.just(("take",)),
    st.tuples(st.just("advance"), steps),
)
programs = st.lists(operations, max_size=80)
windows = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
              st.floats(min_value=1e-3, max_value=6.0, allow_nan=False)),
    min_size=1, max_size=6)


@pytest.mark.parametrize("discipline", sorted(DISCIPLINES))
@given(program=programs, capacity=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**16), windows=windows)
@settings(max_examples=200, deadline=None)
def test_fused_monitor_matches_the_four_it_replaced(
        discipline, program, capacity, seed, windows):
    rig = _Rig(discipline, capacity, seed)
    # The closing advance drains whatever the program left in flight.
    for op in [*program, ("advance", 10.0)]:
        getattr(rig, op[0])(*op[1:])

    fused = rig.fused
    assert list(fused.lengths) == list(rig.queue_mon.lengths)
    assert list(fused.byte_lengths) == list(rig.queue_mon.byte_lengths)
    assert fused.departures == rig.queue_mon.departures
    assert fused.samples == rig.sojourn_mon.samples
    assert fused._entered == rig.sojourn_mon._entered
    assert ([tuple(record) for record in fused.drops.records]
            == [dataclasses.astuple(record) for record in rig.drop_log.records])
    assert fused.data_packets == rig.link_mon.data_packets
    assert fused.ack_packets == rig.link_mon.ack_packets
    assert fused.transmissions == rig.link_mon.transmissions
    for start, length in windows:
        end = start + length
        assert fused.busy_time(start, end) == rig.link_mon.busy_time(start, end)
        assert (fused.utilization(start, end)
                == rig.link_mon.utilization(start, end))
