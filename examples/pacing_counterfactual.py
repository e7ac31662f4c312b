#!/usr/bin/env python3
"""Testing the paper's pacing conjecture (Section 3.1 / Section 6).

The paper: "we conjecture that any nonpaced window-based congestion
control algorithm will exhibit these two phenomena", and in the summary:
"future designs must find more reliable means to supply this clocking
function."

This example runs the same two-way fixed-window workload twice —
nonpaced (``algorithm="fixed"``: transmit immediately on every ACK) and
paced at the bottleneck data rate (``algorithm="paced"``) — and compares
clustering, ACK-compression, and queue fluctuation side by side.

Run:
    python examples/pacing_counterfactual.py
"""

from repro.analysis import (
    cluster_runs,
    clustering_stats,
    rapid_fluctuation_amplitude,
)
from repro.scenarios import paper, run
from repro.viz import plot_series

START, END = 150.0, 300.0


def report(label, result):
    series = result.queue_series("sw1->sw2")
    stats = result.ack_compression(1)
    clusters = clustering_stats(cluster_runs(
        result.traces.queue("sw1->sw2").departures, data_only=False,
        start=START, end=END))
    amplitude = rapid_fluctuation_amplitude(
        series, START, END, window=result.config.data_tx_time)
    print(f"{label}:")
    print(f"  ACK compression factor:   {stats.compression_factor:5.1f} "
          f"(compressed fraction {stats.compressed_fraction:.0%})")
    print(f"  mean/max cluster run:     {clusters.mean_run_length:5.1f} / "
          f"{clusters.max_run_length}")
    print(f"  rapid queue fluctuation:  {amplitude:5.1f} packets "
          f"per data-tx time")
    print(plot_series(series, START, START + 15.0,
                      title=f"  queue sw1->sw2 ({label})", height=10))
    print()


def main() -> None:
    print("two-way fixed windows 30/25, tau=0.01 s, infinite buffers\n")
    report("NONPACED (the paper's system)",
           run(paper.figure8(duration=END, warmup=START)))
    report("PACED at the bottleneck rate",
           run(paper.paced_two_way(duration=END, warmup=START)))

    print("conclusion: pacing removes clustering, and without clusters")
    print("there is nothing for the queue to compress — exactly the")
    print("mechanism the paper identified.")


if __name__ == "__main__":
    main()
