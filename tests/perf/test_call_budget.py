"""An exact budget on the per-packet path — counts, not timings.

``figure2`` (one-way) and ``figure4`` (two-way) are drained under
``sys.setprofile`` and every Python-level ``call`` event is counted.  The count is a pure function of the code, so
the same number comes out on any machine: a closure re-introduced per
event (+14 calls per delivered packet), the clock turned back into a
property (+23) or one pass-through method per hop (+6) all overshoot the
budget, where a timing assertion would drown in noise.  The event and
packet totals are pinned too, so a change that makes the path cheaper by
*dropping* events fails here rather than passing as a speed-up.

The replay path — a warm sweep answered entirely by the result cache —
is budgeted the same way, per replayed point, together with the number
of times the sweep reads its extractor's file and builds a flow's
strategy to validate it.

What a sweep point does *around* the event loop is held to a growth law
rather than a constant: resampling calls per extracted trace, and calls
and memory spent building a dumbbell as its host count doubles.  All
three were quadratic in the population before they were budgeted.
"""

import functools
import gc
import sys
import tracemalloc
from array import array

import pytest

from repro.engine import Event, Simulator
from repro.metrics import StepSeries
from repro.net import build_dumbbell
from repro.net.queues import ADMIT, TAKE
from repro.obs import Tracer, harvest
from repro.parallel import ResultCache
from repro.parallel.cache import _source_fingerprint
from repro.registry import Registry, _probe
from repro.scenarios import build, families, paper, sweep
from repro.scenarios import run as run_scenario
from repro.tcp.congestion import ALGORITHMS

#: Python-level calls per delivered data packet.  The path measured
#: 87.0 when per-packet hops became handle-free posts (101.2 with an
#: ``Event`` built per hop, 112.7 with one Python observer per site,
#: 127.7 with four monitors a port, 196.5 before events carried their
#: arguments); the headroom is smaller than one handler frame per ACK
#: (+2).
CALLS_PER_PACKET_BUDGET = 89.0

#: ``figure2`` as measured before the per-packet path was restructured
#: (≈ 14.15 events per delivered packet); the restructuring must not
#: move either integer.
FIGURE2_EVENTS = 75_139
FIGURE2_PACKETS = 5_312

#: The two-way case — ``figure4`` as the goldens run it.  ``figure2``'s
#: reverse path never queues, so the enqueue / dequeue sites barely fire
#: there; here ACKs wait behind data in both directions.  Measured 88.6
#: calls per packet (102.9 with an ``Event`` per hop, 117.2 with one
#: Python observer per site, 134.1 with the four monitors), same
#: headroom.
TWO_WAY_CALLS_PER_PACKET_BUDGET = 90.6
FIGURE4_EVENTS = 43_905
FIGURE4_PACKETS = 3_081

#: ``Event`` constructions per delivered packet while ``figure2``
#: drains.  Only cancellable work — timers, the pacer — builds one;
#: every hop is a handle-free ``Simulator.post``.  Measured 0.23 (14.38
#: when hops were scheduled); one ``schedule`` back in ``repro.net``
#: adds ≥ 1 per packet per hop kind.
EVENTS_BUILT_PER_PACKET_BUDGET = 0.5


#: The replay path — a warm ten-point ``sweep()`` through ``ResultCache``
#: after a cold one in the same process — in Python-level calls per
#: replayed point: make_config (22, its flow policies already probed),
#: one canonical serialisation hashed twice (28), one ``cache.get`` (8)
#: and a tenth of the sweep's one memoised extractor fingerprint.
#: Measured 68.1 on CPython 3.11 (141.5 when each flow built and dropped
#: a strategy, every sweep re-read its extractor's source and a read
#: went through ``pathlib``; 520.3 when every point re-read the source;
#: the package's code digest, taken once a process, adds nothing);
#: the headroom (13 %, as before) allows for another interpreter's
#: ``json`` but is smaller than a second serialisation of the config
#: (+27) or a source read per sweep (+27 a point).
REPLAY_CALLS_PER_POINT_BUDGET = 77.0
REPLAY_POINTS = 10

#: Doubling a dumbbell's hosts may at most double the Python-level calls
#: that build it, plus slack for the per-build constant.  Measured 1.99
#: (3,376 -> 6,704 calls from 64 to 128 hosts a side); one BFS and one
#: ``add_route`` per (host, node) pair made it 3.67.
BUILD_CALLS_DOUBLING_BUDGET = 2.2

#: Doubling a dumbbell's hosts may at most double the memory the built
#: network holds, plus slack for the per-build constant.  Measured 1.98
#: (744 -> 1,474 kB traced from 64 to 128 hosts a side); a route table
#: per host over every host made it 2.42, and the call budget above did
#: not see it: ``dict.fromkeys`` fills a table in one C call.
BUILD_MEMORY_DOUBLING_BUDGET = 2.1


def _count_calls(run):
    """``(Python-level calls made, Event constructions among them,
    result)`` of ``run()`` under ``sys.setprofile``."""
    event_init = Event.__init__.__code__
    calls = built_events = 0

    def count_calls(frame, event, arg):
        nonlocal calls, built_events
        if event == "call":
            calls += 1
            if frame.f_code is event_init:
                built_events += 1

    previous = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return calls, built_events, result


def _drain_counting_calls(config):
    """``(calls, Event constructions, events, delivered packets)`` of
    one profiled run."""
    built = build(config)
    calls, built_events, _ = _count_calls(
        lambda: built.sim.run(until=built.config.duration))
    packets = sum(conn.receiver.rcv_nxt for conn in built.connections)
    return calls, built_events, built.sim.events_processed, packets


@functools.cache
def _figure2_drain():
    return _drain_counting_calls(paper.figure2())


def _assert_within(budget, calls, packets):
    assert calls / packets <= budget, (
        f"{calls / packets:.1f} Python calls per delivered packet "
        f"(budget {budget}): a per-event closure, a property on the hot "
        "path or a pass-through method crept back in")


def test_figure2_calls_per_packet_within_budget():
    calls, _, events, packets = _figure2_drain()
    assert events == FIGURE2_EVENTS
    assert packets == FIGURE2_PACKETS
    _assert_within(CALLS_PER_PACKET_BUDGET, calls, packets)


def test_figure2_hops_build_no_event():
    _, built_events, _, packets = _figure2_drain()
    assert built_events / packets <= EVENTS_BUILT_PER_PACKET_BUDGET, (
        f"{built_events / packets:.2f} Event constructions per delivered "
        f"packet (budget {EVENTS_BUILT_PER_PACKET_BUDGET}): a per-packet "
        "hop is scheduled with a handle instead of posted")


def test_figure4_calls_per_packet_within_budget():
    calls, _, events, packets = _drain_counting_calls(
        paper.figure4(duration=200.0, warmup=60.0))
    assert events == FIGURE4_EVENTS
    assert packets == FIGURE4_PACKETS
    _assert_within(TWO_WAY_CALLS_PER_PACKET_BUDGET, calls, packets)


def _watched_fans(built):
    """``{site: bound fan}`` of every site ``build()`` attached a
    ``repro.metrics`` monitor to."""
    fans = {}
    for name in built.bottleneck_ports:
        port = built.net.port(*name.split("->"))
        fans[f"{name} queue"] = port.queue._fan
        fans[f"{name} port"] = port._fan
    for conn in built.connections:
        sender = conn.sender
        fans[f"conn{conn.conn_id} ack"] = sender._ack_fan
        fans[f"conn{conn.conn_id} rtt"] = sender._rtt_fan
        if sender.control.adaptive:
            fans[f"conn{conn.conn_id} cwnd"] = sender._cwnd_fan
            fans[f"conn{conn.conn_id} loss"] = sender._loss_fan
    return fans


def test_one_metrics_observer_per_emission_site():
    """With only the ``TraceSet`` attached, what every watched queue,
    port and sender site calls is a C-level ``append`` / ``extend``: no
    Python frame per observation, which the budgets above see but cannot
    name.  The RTT site is the ACK log's ``array('d').extend``, and the
    meter, which harvests after the run, joins no site at all.  A tracer
    beside them turns the fans it joins into the ``bind_fanout``
    closure, and every consumer of a site is handed the same records."""
    extend = type(array("d").extend)
    builtin = (type([].append), extend)  # both C-level
    config = paper.figure4(duration=30.0, warmup=10.0)
    built = build(config)
    fans = _watched_fans(built)
    assert len(fans) == (2 * len(built.bottleneck_ports)
                         + 4 * len(built.connections))
    for site, fan in fans.items():
        assert type(fan) in builtin, f"{site}: {fan!r}"
        if site.endswith("rtt"):
            assert type(fan) is extend, site

    tracer = Tracer().instrument(built)
    port = built.net.port("sw1", "sw2")
    sender = built.connections[0].sender
    queue_records, port_records, ack_records = [], [], []
    port.queue.observe(queue_records.append)
    port.on_transmission(port_records.append)
    sender.on_ack(ack_records.append)
    joined = _watched_fans(built)
    for site, fan in joined.items():
        if site.endswith(("queue", "port", "ack")):
            assert fan.__closure__ is not None, site
        else:  # cwnd, loss and rtt: nobody joined the monitor
            assert type(fan) in builtin, site
    built.sim.run(until=config.duration)

    monitor = built.traces.queue("sw1->sw2")
    assert (list(monitor.lengths) == [
        (now, qlen) for kind, now, _, qlen in queue_records
        if kind in (ADMIT, TAKE)])
    assert ([(d.time, d.uid) for d in monitor.departures]
            == [(now, packet.uid) for now, packet, _ in port_records])
    assert ([(hop.sim_time, hop.uid, hop.queue_len)
             for hop in tracer.hops_at("sw1->sw2")
             if hop.hop in ("enqueue", "dequeue", "drop")]
            == [(now, packet.uid, qlen) for _, now, packet, qlen in queue_records])
    assert ([(hop.sim_time, hop.uid, hop.duration)
             for hop in tracer.hops_at("sw1->sw2", "transmit")]
            == [(now, packet.uid, duration) for now, packet, duration in port_records])
    assert (built.traces.ack_log(sender.conn_id).arrivals
            == [(now, ack) for now, ack, _ in ack_records])
    assert ([(hop.sim_time, hop.seq, hop.uid)
             for hop in tracer.hops_at(f"conn{sender.conn_id}", "ack")]
            == ack_records)
    rows = {(row["name"], tuple(row["labels"].values())): row
            for row in harvest(built)["metrics"]}
    assert _watched_fans(built) == joined
    departures = rows["repro_link_departures", ("sw1->sw2",)]
    assert departures["total"] == len(port_records)
    rtt = rows["repro_tcp_rtt_seconds", (str(sender.conn_id),)]
    assert rtt["count"] == len(built.traces.ack_log(sender.conn_id).rtt_samples) > 0


def test_replay_identifies_each_point_once(tmp_path, monkeypatch):
    """A warm sweep after a cold one in the same process reads no
    extractor source, probes no flow policy it has already validated and
    spends a bounded number of calls on each replayed point."""
    _source_fingerprint.cache_clear()
    _probe.cache_clear()
    make_config = functools.partial(families.manyflow_config,
                                    duration=5.0, warmup=2.0)
    values = families.phase_grid((2,), (10, 20, 30, 40, 50), (0.0, 1.0))
    assert len(values) == REPLAY_POINTS
    cache = ResultCache(tmp_path)
    cold = sweep(make_config, values, families.sync_extract, cache=cache,
                 jobs=1)
    assert (cache.hits, cache.misses) == (0, REPLAY_POINTS)

    source_reads = _source_fingerprint.cache_info().misses
    strategies = []
    build = Registry._build

    def counting_build(self, name, factory, args, params, kwargs):
        if self is ALGORITHMS:
            strategies.append((name, tuple(params)))
        return build(self, name, factory, args, params, kwargs)

    monkeypatch.setattr(Registry, "_build", counting_build)
    calls, _, warm = _count_calls(
        lambda: sweep(make_config, values, families.sync_extract,
                      cache=cache, jobs=1))
    assert warm == cold
    assert (cache.hits, cache.misses) == (REPLAY_POINTS, REPLAY_POINTS)
    assert _source_fingerprint.cache_info().misses == source_reads
    policies = {(flow.algorithm, flow.params, flow.window)
                for value in values for flow in make_config(value).flows}
    assert len(strategies) <= len(policies)
    assert len(set(strategies)) == len(strategies)
    assert calls / REPLAY_POINTS <= REPLAY_CALLS_PER_POINT_BUDGET, (
        f"{calls / REPLAY_POINTS:.1f} Python calls per replayed point "
        f"(budget {REPLAY_CALLS_PER_POINT_BUDGET}): a sweep point is being "
        "serialised, hashed or fingerprinted more than once")


@pytest.mark.parametrize("flows", [8, 32])
def test_sync_extract_resamples_each_trace_once(monkeypatch, flows):
    """N ``StepSeries.sample`` calls for N cwnd traces — it was one per
    series per pair, N(N-1): 56 and 992 here."""
    result = run_scenario(families.manyflow_config((flows, 20, 0.0),
                                                   duration=10.0, warmup=4.0))
    assert len(result.connections) == flows
    sampled = []
    sample = StepSeries.sample

    def counting_sample(self, start, end, dt):
        sampled.append(self)
        return sample(self, start, end, dt)

    monkeypatch.setattr(StepSeries, "sample", counting_sample)
    families.sync_extract(result)
    assert len(sampled) == flows
    assert len({id(series) for series in sampled}) == flows


def test_utilization_reads_fold_no_port_journal():
    """``sync_extract`` and ``utilizations`` integrate the bottleneck
    ports' pending transmission records: they build no departure record
    and leave every journal as the run left it."""
    result = run_scenario(families.manyflow_config((4, 20, 0.0),
                                                   duration=10.0, warmup=4.0))
    monitors = [result.traces.queue(name) for name in result.bottleneck_ports]
    journals = [len(monitor._journal) for monitor in monitors]
    families.sync_extract(result)
    result.utilizations()
    assert [len(monitor._journal) for monitor in monitors] == journals
    assert all(journals)
    assert not any(monitor.__dict__["departures"] for monitor in monitors)


def test_dumbbell_build_calls_grow_linearly_in_hosts():
    def build_calls(hosts):
        return _count_calls(lambda: build_dumbbell(
            Simulator(), n_left=hosts, n_right=hosts))[0]

    small, large = build_calls(64), build_calls(128)
    assert large / small <= BUILD_CALLS_DOUBLING_BUDGET, (
        f"{small} -> {large} Python calls from 64 to 128 hosts a side "
        f"({large / small:.2f}x, budget {BUILD_CALLS_DOUBLING_BUDGET}x): "
        "something per (host, node) pair is back in the build")


def test_dumbbell_build_memory_grows_linearly_in_hosts():
    def held_bytes(hosts):
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net = build_dumbbell(Simulator(), n_left=hosts, n_right=hosts)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(net.nodes) == 2 * hosts + 2
        return held

    small, large = held_bytes(64), held_bytes(128)
    assert large / small <= BUILD_MEMORY_DOUBLING_BUDGET, (
        f"{small} -> {large} bytes held from 64 to 128 hosts a side "
        f"({large / small:.2f}x, budget {BUILD_MEMORY_DOUBLING_BUDGET}x): "
        "something per (host, node) pair is back in the built network")
