"""An exact budget on the per-packet path — counts, not timings.

``figure2`` is drained under ``sys.setprofile`` and every Python-level
``call`` event is counted.  The count is a pure function of the code, so
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
#: 127.7 when this was written (196.5 before events carried their
#: arguments); the headroom is smaller than one extra call per hop.
CALLS_PER_PACKET_BUDGET = 132.0

#: ``figure2`` as measured before the per-packet path was restructured
#: (≈ 14.15 events per delivered packet); the restructuring must not
#: move either integer.
FIGURE2_EVENTS = 75_139
FIGURE2_PACKETS = 5_312


def test_figure2_calls_per_packet_within_budget():
    built = build(paper.figure2())
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
    assert built.sim.events_processed == FIGURE2_EVENTS
    assert packets == FIGURE2_PACKETS
    assert calls / packets <= CALLS_PER_PACKET_BUDGET, (
        f"{calls / packets:.1f} Python calls per delivered packet "
        f"(budget {CALLS_PER_PACKET_BUDGET}): a per-event closure, a "
        "property on the hot path or a pass-through method crept back in")
