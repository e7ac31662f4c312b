"""An exact budget on the per-packet path — counts, not timings.

``figure2`` (one-way) and ``figure4`` (two-way) are drained under
``sys.setprofile`` and every Python-level ``call`` event is counted.  The count is a pure function of the code, so
the same number comes out on any machine: a closure re-introduced per
event (+14 calls per delivered packet), the clock turned back into a
property (+23) or one pass-through method per hop (+6) all overshoot the
budget, where a timing assertion would drown in noise.  The event and
packet totals are pinned too, so a change that makes the path cheaper by
*dropping* events fails here rather than passing as a speed-up.
"""

import sys

from repro.scenarios import build, paper

#: Python-level calls per delivered data packet.  The path measured
#: 112.7 when the four per-port monitors became one observer per site
#: (127.7 before that, 196.5 before events carried their arguments); the
#: headroom is smaller than one extra call per hop.
CALLS_PER_PACKET_BUDGET = 116.0

#: ``figure2`` as measured before the per-packet path was restructured
#: (≈ 14.15 events per delivered packet); the restructuring must not
#: move either integer.
FIGURE2_EVENTS = 75_139
FIGURE2_PACKETS = 5_312

#: The two-way case — ``figure4`` as the goldens run it.  ``figure2``'s
#: reverse path never queues, so the enqueue / dequeue sites barely fire
#: there; here ACKs wait behind data in both directions.  Measured 117.2
#: calls per packet (134.1 with the four monitors), same headroom.
TWO_WAY_CALLS_PER_PACKET_BUDGET = 120.5
FIGURE4_EVENTS = 43_905
FIGURE4_PACKETS = 3_081


def _drain_counting_calls(config):
    """``(calls, events, delivered packets)`` of one profiled run."""
    built = build(config)
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        built.sim.run(until=built.config.duration)
    finally:
        sys.setprofile(previous)

    packets = sum(conn.receiver.rcv_nxt for conn in built.connections)
    return calls, built.sim.events_processed, packets


def _assert_within(budget, calls, packets):
    assert calls / packets <= budget, (
        f"{calls / packets:.1f} Python calls per delivered packet "
        f"(budget {budget}): a per-event closure, a property on the hot "
        "path or a pass-through method crept back in")


def test_figure2_calls_per_packet_within_budget():
    calls, events, packets = _drain_counting_calls(paper.figure2())
    assert events == FIGURE2_EVENTS
    assert packets == FIGURE2_PACKETS
    _assert_within(CALLS_PER_PACKET_BUDGET, calls, packets)


def test_figure4_calls_per_packet_within_budget():
    calls, events, packets = _drain_counting_calls(
        paper.figure4(duration=200.0, warmup=60.0))
    assert events == FIGURE4_EVENTS
    assert packets == FIGURE4_PACKETS
    _assert_within(TWO_WAY_CALLS_PER_PACKET_BUDGET, calls, packets)


def test_one_metrics_observer_per_emission_site():
    """A second ``repro.metrics`` registration on a site would turn its
    direct call into the ``bind_fanout`` closure: a frame and a loop per
    packet that the budgets above see but cannot name."""
    built = build(paper.figure4())
    assert built.bottleneck_ports
    for name in built.bottleneck_ports:
        port = built.net.port(*name.split("->"))
        queue = port.queue
        sites = {
            "on_departure": port._departure_observers,
            "on_transmission": port._busy_observers,
            "on_length_change": queue._length_observers,
            "on_enqueue": queue._enqueue_observers,
            "on_dequeue": queue._dequeue_observers,
            "on_drop": queue._drop_observers,
        }
        for site, observers in sites.items():
            ours = [observer for observer in observers
                    if observer.__module__.startswith("repro.metrics")]
            assert len(ours) <= 1, f"{name} {site}: {ours}"
