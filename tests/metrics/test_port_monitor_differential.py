"""Differential test: the journal-deriving monitors against eager handlers.

``PortMonitor``, ``CwndLog`` and ``AckArrivalLog`` append raw records to
a journal through C-level sinks and build what they publish when it is
read.  The referee below is the handlers they had when every record was
folded in as it happened, copied verbatim and fed through a record →
callback adapter; both generations watch the same port or sender, and
every series, log and counter either keeps must come out equal — bit for
bit, windows included, and at any instant a reader happens to look.
The ACK log's RTT samples are refereed by what the metrics meter once
did live: one append per accepted sample.

The golden fingerprints hash queue lengths, utilizations, ACK arrivals
and drops, so byte occupancy, departures and sojourn samples have no
other bit-level guard; Random Drop's eviction of a *buffered* packet is
where the uid dictionary can go wrong, and a read in the middle of a run
is where a journal can be folded twice or not at all.  Utilization and
the transmission count fold nothing: they read the derived transmissions
and then the journal's pending tail, so they are compared before any
``Derived`` read (tail only) and again after a mid-run read followed by
more events (prefix plus tail).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Simulator
from repro.engine.rng import SimRandom
from repro.metrics import (
    AckArrival,
    AckArrivalLog,
    CwndLog,
    DepartureRecord,
    DropLog,
    DropRecord,
    LossEvent,
    PortMonitor,
    SojournSample,
    StepSeries,
)
from repro.net import Link, OutputPort, Packet, PacketKind
from repro.net.disciplines import create_queue
from repro.net.node import Node
from repro.net.queues import ADMIT, TAKE
from repro.scenarios import QueueSpec, build, paper
from repro.tcp import TcpOptions

_new = tuple.__new__
_DATA = PacketKind.DATA


# ----------------------------------------------------------------------
# The referee.  Class attributes shadow the ``Derived`` descriptors, so
# these are plain attributes written by handlers again; every read-side
# method is inherited from the class under test, and finds no pending
# journal tail.
# ----------------------------------------------------------------------
class EagerPortMonitor(PortMonitor):
    lengths = byte_lengths = departures = samples = None
    data_packets = ack_packets = _intervals = None
    _journal = ()

    def __init__(self, port, name=None, drops=None):
        self.port = port
        self.name = name or port.name
        self.lengths = StepSeries(name=f"{self.name}:qlen", initial_value=0.0)
        self.byte_lengths = StepSeries(name=f"{self.name}:qbytes", initial_value=0.0)
        self.departures = []
        self.samples = []
        self.drops = drops if drops is not None else DropLog()
        self.data_packets = 0
        self.ack_packets = 0
        self._intervals = []
        self._buffered_bytes = 0
        self._entered = {}
        self._record_bytes = self.byte_lengths.record
        port.queue.observe(self._from_queue)
        port.on_transmission(
            lambda record: self._on_transmission(record[0], record[2], record[1]))

    def _from_queue(self, record):
        kind, time, packet, qlen = record
        if kind == ADMIT:
            self._on_enqueue(time, packet)
            self.lengths.record(time, qlen)
        elif kind == TAKE:
            self._on_dequeue(time, packet)
            self.lengths.record(time, qlen)
        else:
            self._on_drop(time, packet)

    def _on_enqueue(self, time, packet):
        self._entered[packet.uid] = time
        self._buffered_bytes += packet.size
        self._record_bytes(time, self._buffered_bytes)

    def _on_dequeue(self, time, packet):
        self._buffered_bytes -= packet.size
        self._record_bytes(time, self._buffered_bytes)

    def _on_drop(self, time, packet):
        if self._entered.pop(packet.uid, None) is not None:
            self._buffered_bytes -= packet.size
            self._record_bytes(time, self._buffered_bytes)
        is_data = packet.kind is _DATA
        self.drops.records.append(_new(DropRecord, (
            time, self.name, packet.conn_id, is_data,
            packet.seq if is_data else packet.ack, packet.is_retransmit)))

    def _on_transmission(self, start, duration, packet):
        conn_id = packet.conn_id
        uid = packet.uid
        self._intervals.append((start, duration))
        is_data = packet.kind is _DATA
        if is_data:
            self.data_packets += 1
            seq = packet.seq
        else:
            self.ack_packets += 1
            seq = packet.ack
        self.departures.append(_new(DepartureRecord, (
            start, conn_id, is_data, seq, packet.size, uid)))
        self.samples.append(_new(SojournSample, (
            start, start - self._entered.pop(uid, start), is_data, conn_id)))


class EagerCwndLog(CwndLog):
    cwnd = ssthresh = losses = None

    def __init__(self, sender):
        self.conn_id = sender.conn_id
        self.cwnd = StepSeries(name=f"conn{sender.conn_id}:cwnd",
                               initial_value=sender.options.initial_cwnd)
        self.ssthresh = StepSeries(name=f"conn{sender.conn_id}:ssthresh",
                                   initial_value=sender.options.effective_initial_ssthresh)
        self.losses = []
        self._record_cwnd = self.cwnd.record
        self._record_ssthresh = self.ssthresh.record
        sender.on_cwnd_change(lambda record: self._on_cwnd(*record))
        sender.on_loss_detected(lambda record: self._on_loss(*record))

    def _on_cwnd(self, time, cwnd, ssthresh):
        self._record_cwnd(time, cwnd)
        self._record_ssthresh(time, ssthresh)

    def _on_loss(self, time, trigger, seq):
        self.losses.append(LossEvent(time=time, conn_id=self.conn_id,
                                     trigger=trigger, seq=seq))


class EagerAckArrivalLog(AckArrivalLog):
    arrivals = rtt_samples = None

    def __init__(self, sender):
        self.conn_id = sender.conn_id
        self.arrivals = []
        self.rtt_samples = []
        sender.on_ack(lambda record: self._on_ack(record[0], record[1]))
        sender.on_rtt_sample(lambda record: self.rtt_samples.append(record[1]))

    def _on_ack(self, time, ack):
        self.arrivals.append(tuple.__new__(AckArrival, (time, ack)))


def _same_link_reads(lazy, eager, windows):
    assert lazy.transmissions == eager.transmissions
    for start, length in windows:
        end = start + length
        assert lazy.busy_time(start, end) == eager.busy_time(start, end)
        assert lazy.utilization(start, end) == eager.utilization(start, end)
        assert (lazy.throughput_bps(start, end)
                == eager.throughput_bps(start, end))


def _same_port_records(lazy, eager, windows):
    # Link reads first: they must agree on whatever the journal still
    # holds, before the ``Derived`` reads below fold it.
    _same_link_reads(lazy, eager, windows)
    assert list(lazy.lengths) == list(eager.lengths)
    assert list(lazy.byte_lengths) == list(eager.byte_lengths)
    assert lazy.departures == eager.departures
    assert lazy.samples == eager.samples
    assert lazy.drops.records == eager.drops.records
    assert lazy.data_packets == eager.data_packets
    assert lazy.ack_packets == eager.ack_packets
    assert lazy.max_length == eager.max_length
    for data_only in (None, True, False):
        assert lazy.mean_wait(data_only) == eager.mean_wait(data_only)
    for start, length in windows:
        end = start + length
        assert (lazy.mean_wait(start=start, end=end)
                == eager.mean_wait(start=start, end=end))
    _same_link_reads(lazy, eager, windows)


#: What a reader may touch mid-run.  Each folds the journal except
#: ``transmissions``, which counts the derived prefix and the pending
#: tail.
PORT_READS = ("lengths", "byte_lengths", "departures", "samples",
              "data_packets", "transmissions", "max_length")

windows = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
              st.floats(min_value=1e-3, max_value=6.0, allow_nan=False)),
    min_size=1, max_size=6)


# ----------------------------------------------------------------------
# One port, driven directly
# ----------------------------------------------------------------------
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
        self.lazy = PortMonitor(self.port)
        self.eager = EagerPortMonitor(self.port)
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
    # ``read`` is a reader looking while the run is still going.
    def send(self, *fields):
        self.port.send(self._packet(*fields))

    def offer(self, *fields):
        self.port.queue.offer(self.sim.now, self._packet(*fields))

    def take(self):
        self.port.queue.take(self.sim.now)

    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    def read(self, what):
        lazy, eager = getattr(self.lazy, what), getattr(self.eager, what)
        if isinstance(lazy, StepSeries):
            lazy, eager = list(lazy), list(eager)
        assert lazy == eager


# Zero-size packets are the Section 4.3.3 idealized ACKs.
packets = st.tuples(st.booleans(), st.sampled_from([0, 50, 500, 500]),
                    st.integers(min_value=1, max_value=3), st.booleans())
# Repeated round values line arrivals up with transmission ends; a zero
# step keeps a burst on one timestamp.
steps = st.one_of(st.sampled_from([0.0, 0.008, 0.04, 0.08, 0.16]),
                  st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
operations = st.one_of(
    st.tuples(st.just("send"), packets).map(lambda op: (op[0], *op[1])),
    st.tuples(st.just("send"), packets).map(lambda op: (op[0], *op[1])),
    st.tuples(st.just("offer"), packets).map(lambda op: (op[0], *op[1])),
    st.just(("take",)),
    st.tuples(st.just("advance"), steps),
    st.tuples(st.just("read"), st.sampled_from(PORT_READS)),
)
programs = st.lists(operations, max_size=80)


@pytest.mark.parametrize("discipline", sorted(DISCIPLINES))
@given(program=programs, capacity=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**16), windows=windows)
@settings(max_examples=200, deadline=None)
def test_lazy_port_monitor_matches_eager(
        discipline, program, capacity, seed, windows):
    rig = _Rig(discipline, capacity, seed)
    # The closing advance drains whatever the program left in flight.
    for op in [*program, ("advance", 10.0)]:
        getattr(rig, op[0])(*op[1:])
    _same_port_records(rig.lazy, rig.eager, windows)
    assert rig.lazy._entered == rig.eager._entered


# ----------------------------------------------------------------------
# A whole two-way run: ports and senders, read at random instants
# ----------------------------------------------------------------------
QUEUES = {
    "droptail": QueueSpec("droptail"),
    "randomdrop": QueueSpec("randomdrop"),
    "red": QueueSpec("red", {"min_th": 3.0, "max_th": 9.0, "max_p": 0.1,
                             "wq": 0.2}),
}
DURATION = 40.0


def _read_everything(built, referee, windows):
    for name, lazy in built.traces.queues.items():
        _same_port_records(lazy, referee["ports"][name], windows)
    for conn_id, lazy in built.traces.cwnds.items():
        eager = referee["cwnds"][conn_id]
        assert list(lazy.cwnd) == list(eager.cwnd)
        assert list(lazy.ssthresh) == list(eager.ssthresh)
        assert lazy.losses == eager.losses
        assert lazy.loss_times == eager.loss_times
    for conn_id, lazy in built.traces.acks.items():
        eager = referee["acks"][conn_id]
        assert lazy.arrivals == eager.arrivals
        assert all(type(a.ack) is int for a in lazy.arrivals)
        assert lazy.rtt_samples == eager.rtt_samples
        assert len(lazy) == len(eager)


@pytest.mark.parametrize("discipline", sorted(QUEUES))
@given(algorithm=st.sampled_from(["tahoe", "reno"]),
       buffer_packets=st.integers(min_value=3, max_value=20),
       zero_size_acks=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**16),
       read_at=st.lists(st.floats(min_value=0.0, max_value=DURATION,
                                  allow_nan=False), max_size=4),
       windows=windows)
@settings(max_examples=12, deadline=None)
def test_lazy_monitors_match_eager_two_way(
        discipline, algorithm, buffer_packets, zero_size_acks, seed, read_at,
        windows):
    base = paper.reno_two_way if algorithm == "reno" else paper.two_way
    config = base(0.01, buffer_packets=buffer_packets, duration=DURATION,
                  warmup=10.0).with_updates(
        queue=QUEUES[discipline], seed=seed,
        tcp=TcpOptions(ack_packet_bytes=0 if zero_size_acks else 50))
    built = build(config)
    drops = DropLog()
    referee = {
        "ports": {name: EagerPortMonitor(built.net.port(*name.split("->")),
                                         name=name, drops=drops)
                  for name in built.bottleneck_ports},
        "cwnds": {conn.conn_id: EagerCwndLog(conn.sender)
                  for conn in built.connections},
        "acks": {conn.conn_id: EagerAckArrivalLog(conn.sender)
                 for conn in built.connections},
    }
    for instant in sorted(read_at):
        built.sim.run(until=instant)
        _read_everything(built, referee, windows)
    built.sim.run(until=DURATION)
    _read_everything(built, referee, windows)
    assert built.traces.drops.records == drops.records
    assert len(drops) > 0


#: Windows inside, across and outside the mid-run fold at 20 s.
FOLD_AT = 20.0
FOLD_WINDOWS = [(0.0, DURATION), (10.0, 30.0), (15.0, 10.0), (19.99, 0.02),
                (20.0, 1e-3), (30.0, 40.0)]


@pytest.mark.parametrize("discipline", sorted(QUEUES))
def test_link_reads_on_the_raw_tail_and_on_prefix_plus_tail(discipline):
    """Utilization and the transmission count agree with the referee
    when every transmission is still a raw journal record, and when a
    ``Derived`` read in mid-run has folded some of them."""
    config = paper.two_way(0.01, buffer_packets=8, duration=DURATION,
                           warmup=10.0).with_updates(queue=QUEUES[discipline])
    built = build(config)
    referee = {name: EagerPortMonitor(built.net.port(*name.split("->")),
                                      name=name)
               for name in built.bottleneck_ports}
    built.sim.run(until=FOLD_AT)
    for name, lazy in built.traces.queues.items():
        assert not lazy.__dict__["_intervals"]
        assert any(len(record) == 3 for record in lazy._journal)
        _same_link_reads(lazy, referee[name], FOLD_WINDOWS)
        assert not lazy.__dict__["departures"]
        lazy.lengths  # folds the journal
    built.sim.run(until=DURATION)
    for name, lazy in built.traces.queues.items():
        assert lazy.__dict__["_intervals"]
        assert any(len(record) == 3 for record in lazy._journal)
        _same_link_reads(lazy, referee[name], FOLD_WINDOWS)
