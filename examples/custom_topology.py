#!/usr/bin/env python3
"""Building a custom experiment with the low-level API.

Everything the scenario layer does can be assembled by hand: create a
simulator, wire a topology, attach connections and monitors, run, and
export traces to CSV for external plotting.  This example builds a
three-switch chain with a long-haul connection sharing a hop with a
short cross-flow, then exports the middle queue's trace and the drop
log into a temporary directory (point the two ``write_*_csv`` calls at
a path of your own to keep them).

Run:
    python examples/custom_topology.py
"""

import tempfile
from pathlib import Path

from repro.engine import Simulator
from repro.metrics import TraceSet
from repro.net import build_chain
from repro.tcp import TcpOptions, make_connection
from repro.units import kbps
from repro.viz import plot_series, write_drops_csv, write_series_csv


def main() -> None:
    sim = Simulator()
    net = build_chain(
        sim,
        n_switches=3,
        bottleneck_bandwidth=kbps(50),
        bottleneck_propagation=0.01,
        buffer_packets=15,
    )

    traces = TraceSet()
    for a, b in (("sw1", "sw2"), ("sw2", "sw3"), ("sw3", "sw2"), ("sw2", "sw1")):
        traces.watch_port(net.port(a, b))

    options = TcpOptions()  # the paper's defaults: 500B data, 50B ACKs
    long_haul = make_connection(
        sim, net, conn_id=1, src_host="host1", dst_host="host3",
        algorithm="tahoe", options=options, start_time=0.0)
    cross_flow = make_connection(
        sim, net, conn_id=2, src_host="host3", dst_host="host2",
        algorithm="tahoe", options=options, start_time=1.7)
    for conn in (long_haul, cross_flow):
        traces.watch_connection(conn)

    duration = 240.0
    print("running 240 s of simulated time on a 3-switch chain...")
    sim.run(until=duration)
    print(f"done: {sim.events_processed} events")

    print()
    for conn in (long_haul, cross_flow):
        sender = conn.sender
        print(f"conn {conn.conn_id} ({conn.src_host}->{conn.dst_host}): "
              f"delivered {conn.receiver.rcv_nxt} packets, "
              f"{sender.retransmits} retransmits, "
              f"{sender.fast_retransmits} fast retransmits, "
              f"{sender.timeouts} timeouts")

    middle = traces.queue("sw2->sw3")
    print(f"middle hop sw2->sw3: max queue {middle.max_length:.0f}, "
          f"utilization {traces.queue('sw2->sw3').utilization(60, duration):.0%}")

    print()
    print(plot_series(middle.lengths, 60.0, 120.0,
                      title="shared middle queue sw2->sw3"))

    with tempfile.TemporaryDirectory() as tmp:
        queue_csv = write_series_csv(middle.lengths,
                                     Path(tmp) / "chain_queue.csv")
        drops_csv = write_drops_csv(traces.drops, Path(tmp) / "chain_drops.csv")
        print(f"exported: {queue_csv.name} ({len(middle.lengths)} points), "
              f"{drops_csv.name} ({len(traces.drops)} drops)")


if __name__ == "__main__":
    main()
