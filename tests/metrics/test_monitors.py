"""Unit tests for the port monitor and the drop/cwnd/ack logs."""

import pytest

from repro.engine import Simulator
from repro.metrics import (
    AckArrival,
    AckArrivalLog,
    CwndLog,
    DepartureRecord,
    DropLog,
    DropRecord,
    PortMonitor,
    SojournSample,
    StepSeries,
    TraceSet,
)
from repro.net import Packet, PacketKind, build_dumbbell
from repro.tcp import make_connection


def _loaded_network(until=30.0):
    """A dumbbell with one Tahoe connection run for a while."""
    sim = Simulator()
    net = build_dumbbell(sim, bottleneck_propagation=0.01, buffer_packets=5)
    drops = DropLog()
    queue_mon = link_mon = PortMonitor(net.port("sw1", "sw2"), drops=drops)
    conn = make_connection(sim, net, 1, "host1", "host2", "tahoe")
    cwnd_log = CwndLog(conn.sender)
    ack_log = AckArrivalLog(conn.sender)
    sim.run(until=until)
    return sim, net, conn, queue_mon, link_mon, drops, cwnd_log, ack_log


class TestQueueMonitor:
    def test_records_length_changes(self):
        _, _, _, queue_mon, *_ = _loaded_network()
        assert len(queue_mon.lengths) > 0
        assert queue_mon.max_length >= 1

    def test_departures_are_ordered(self):
        _, _, _, queue_mon, *_ = _loaded_network()
        times = [d.time for d in queue_mon.departures]
        assert times == sorted(times)
        assert len(times) > 50

    def test_departure_kinds(self):
        _, _, _, queue_mon, *_ = _loaded_network()
        # Only conn 1's data flows sw1->sw2.
        assert queue_mon.data_departures()
        assert not queue_mon.ack_departures()

    def test_mean_length_positive_under_load(self):
        _, _, _, queue_mon, *_ = _loaded_network()
        assert queue_mon.mean_length(10.0, 30.0) > 0


class TestLinkMonitor:
    def test_utilization_in_unit_interval(self):
        *_, link_mon, _, _, _ = _loaded_network()
        util = link_mon.utilization(10.0, 30.0)
        assert 0.0 < util <= 1.0

    def test_busy_plus_idle_is_one(self):
        *_, link_mon, _, _, _ = _loaded_network()
        util = link_mon.utilization(10.0, 30.0)
        idle = link_mon.idle_fraction(10.0, 30.0)
        assert util + idle == pytest.approx(1.0)

    def test_throughput_consistent_with_utilization(self):
        *_, link_mon, _, _, _ = _loaded_network()
        util = link_mon.utilization(10.0, 30.0)
        bps = link_mon.throughput_bps(10.0, 30.0)
        assert bps == pytest.approx(util * link_mon.port.bandwidth)

    def test_counts(self):
        *_, link_mon, _, _, _ = _loaded_network()
        assert link_mon.data_packets > 0
        assert link_mon.transmissions == link_mon.data_packets + link_mon.ack_packets

    def test_invalid_window(self):
        *_, link_mon, _, _, _ = _loaded_network()
        with pytest.raises(Exception):
            link_mon.utilization(5.0, 5.0)


class TestDropLog:
    def test_drops_recorded_under_pressure(self):
        *_, drops, _, _ = _loaded_network()
        assert len(drops) > 0
        assert drops.data_drop_fraction() == 1.0
        assert drops.ack_drops == []

    def test_by_connection(self):
        *_, drops, _, _ = _loaded_network()
        assert set(drops.drops_by_connection()) == {1}

    def test_window_filter(self):
        *_, drops, _, _ = _loaded_network()
        first = drops.records[0].time
        assert drops.in_window(first, first + 1e-9)[0].time == first
        assert drops.in_window(0.0, first) == []

    def test_times_ordered(self):
        *_, drops, _, _ = _loaded_network()
        assert drops.times() == sorted(drops.times())


class TestCwndLog:
    def test_cwnd_trace_grows_from_one(self):
        *_, cwnd_log, _ = _loaded_network()
        assert cwnd_log.cwnd.values[0] >= 1.0
        assert cwnd_log.max_cwnd(0.0, 30.0) > 2.0

    def test_losses_recorded(self):
        *_, cwnd_log, _ = _loaded_network()
        assert len(cwnd_log.losses) >= 1
        assert cwnd_log.loss_times == sorted(cwnd_log.loss_times)
        assert cwnd_log.losses[0].trigger in ("dupack", "timeout")


class TestAckArrivalLog:
    def test_arrivals_recorded(self):
        *_, ack_log = _loaded_network()
        assert len(ack_log) > 50
        gaps = ack_log.inter_arrival_times()
        assert (gaps >= 0).all()

    def test_window_filtering(self):
        *_, ack_log = _loaded_network()
        all_gaps = ack_log.inter_arrival_times()
        some_gaps = ack_log.inter_arrival_times(10.0, 20.0)
        assert len(some_gaps) < len(all_gaps)

    def test_too_few_arrivals_empty(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        conn = make_connection(sim, net, 1, "host1", "host2", "tahoe")
        log = AckArrivalLog(conn.sender)
        assert len(log.inter_arrival_times()) == 0


class TestTraceSet:
    def test_watch_and_lookup(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        traces = TraceSet()
        traces.watch_port(net.port("sw1", "sw2"), name="bottleneck")
        conn = make_connection(sim, net, 1, "host1", "host2", "tahoe")
        traces.watch_connection(conn)
        sim.run(until=10.0)
        assert traces.queue("bottleneck").max_length >= 0
        assert traces.link("bottleneck").transmissions > 0
        assert len(traces.cwnd(1).cwnd) > 0
        assert len(traces.ack_log(1)) > 0

    def test_duplicate_watch_rejected(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        traces = TraceSet()
        traces.watch_port(net.port("sw1", "sw2"), name="x")
        with pytest.raises(Exception):
            traces.watch_port(net.port("sw2", "sw1"), name="x")

    def test_unknown_lookups_raise(self):
        traces = TraceSet()
        with pytest.raises(Exception):
            traces.queue("nope")
        with pytest.raises(Exception):
            traces.link("nope")
        with pytest.raises(Exception):
            traces.cwnd(9)
        with pytest.raises(Exception):
            traces.ack_log(9)

    def test_fixed_window_connection_has_no_cwnd_log(self):
        sim = Simulator()
        net = build_dumbbell(sim, buffer_packets=None)
        traces = TraceSet()
        conn = make_connection(sim, net, 1, "host1", "host2", "fixed", {"window": 3})
        traces.watch_connection(conn)
        assert 1 not in traces.cwnds
        assert 1 in traces.acks


class TestByteLengths:
    def test_bytes_track_mixed_sizes(self):
        from repro.engine import Simulator
        from repro.net import Link, OutputPort, Packet, PacketKind
        from repro.net.node import Node

        class Sink(Node):
            def handle_packet(self, packet):
                pass

        sim = Simulator()
        sink = Sink(sim, "sink")
        link = Link(sim, "w", 0.0, destination=sink)
        port = OutputPort(sim, "p", 50_000.0, link, buffer_packets=None)
        monitor = PortMonitor(port)
        # First packet bypasses the queue (transmitting); next two buffer.
        port.send(Packet(conn_id=1, kind=PacketKind.DATA, seq=0, size=500))
        port.send(Packet(conn_id=1, kind=PacketKind.DATA, seq=1, size=500))
        port.send(Packet(conn_id=1, kind=PacketKind.ACK, ack=1, size=50))
        assert monitor.byte_lengths.last_value == 550.0
        sim.run()
        assert monitor.byte_lengths.last_value == 0.0

    def test_bytes_never_negative_with_random_drop(self):
        from repro.scenarios import paper, run

        from repro.scenarios.config import QueueSpec

        result = run(paper.figure4(duration=80.0, warmup=20.0)
                     .with_updates(queue=QueueSpec("randomdrop")))
        for monitor in result.traces.queues.values():
            assert monitor.byte_lengths.values.min() >= 0.0
            assert monitor.byte_lengths.last_value >= 0.0

    def test_byte_series_consistent_with_packet_series(self):
        from repro.scenarios import paper, run

        result = run(paper.two_way(0.01, duration=60.0, warmup=20.0))
        monitor = result.traces.queue("sw1->sw2")
        # Bytes bounded by packets * max packet size at every change.
        assert (monitor.byte_lengths.values
                <= monitor.lengths.max_in(0, 60) * 500 + 500).all()


class TestRecordTypes:
    """The per-packet records are tuples built positionally on the hot
    path; what callers relied on from the frozen dataclasses they
    replaced — keyword construction, field names, immutability,
    equality — is kept."""

    CASES = [
        (DepartureRecord,
         dict(time=1.5, conn_id=2, is_data=True, seq=7, size=500, uid=11)),
        (SojournSample,
         dict(departed_at=1.5, wait=0.25, is_data=False, conn_id=2)),
        (AckArrival, dict(time=1.5, ack=8)),
        (DropRecord,
         dict(time=1.5, queue="sw1->sw2", conn_id=2, is_data=True, seq=7,
              is_retransmit=False)),
    ]

    @pytest.mark.parametrize("record_type, fields", CASES,
                             ids=[case[0].__name__ for case in CASES])
    def test_keyword_and_positional_construction_agree(self, record_type, fields):
        by_keyword = record_type(**fields)
        assert record_type._fields == tuple(fields)
        assert by_keyword == record_type(*fields.values())
        for name, value in fields.items():
            assert getattr(by_keyword, name) == value

    @pytest.mark.parametrize("record_type, fields", CASES,
                             ids=[case[0].__name__ for case in CASES])
    def test_immutable_and_compared_by_value(self, record_type, fields):
        record = record_type(**fields)
        name, value = next(iter(fields.items()))
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            record.extra = 1
        changed = dict(fields, **{name: 99.0})
        assert record == record_type(**fields)
        assert record != record_type(**changed)
        assert hash(record) == hash(record_type(**fields))

    def test_monitors_log_these_types(self):
        _, _, _, queue_mon, _, drops, _, ack_log = _loaded_network(until=30.0)
        departure = queue_mon.departures[0]
        assert type(departure) is DepartureRecord
        assert departure.is_data is True and departure.size == 500
        assert type(queue_mon.samples[0]) is SojournSample
        assert type(drops.records[0]) is DropRecord
        assert drops.records[0].queue == queue_mon.name
        assert type(ack_log.arrivals[0]) is AckArrival

    def test_logs_stay_plain_assignable_lists(self):
        # The analysis test fakes assign these; what is assigned is what
        # the rest of the run is recorded into, and nothing from before
        # the assignment leaks into it.
        sim, _, _, queue_mon, _, _, cwnd_log, ack_log = _loaded_network(until=5.0)
        assert type(queue_mon.departures) is list
        assert type(queue_mon.samples) is list
        assert type(ack_log.arrivals) is list
        assert type(queue_mon.lengths) is StepSeries
        assert type(cwnd_log.cwnd) is StepSeries
        queue_mon.departures = departures = []
        queue_mon.samples = samples = []
        queue_mon.lengths = lengths = StepSeries(name="fresh")
        cwnd_log.cwnd = cwnd = StepSeries(name="fresh")
        ack_log.arrivals = [AckArrival(time=0.0, ack=1)]
        assert len(ack_log) == 1
        sim.run(until=10.0)
        assert queue_mon.departures is departures
        assert queue_mon.samples is samples
        assert queue_mon.lengths is lengths
        assert cwnd_log.cwnd is cwnd
        assert len(departures) == len(samples) > 0
        assert departures[0].time >= 5.0 and lengths.first_time >= 5.0
        assert cwnd.first_time >= 5.0 and len(cwnd_log.ssthresh) > len(cwnd)
        assert ack_log.arrivals[0] == AckArrival(time=0.0, ack=1)
        assert len(ack_log) > 1 and ack_log.arrivals[1].time >= 5.0
