#!/usr/bin/env python3
"""Are the reproduced numbers robust, or one lucky run?

The paper reports single simulations.  Our runs are deterministic given
a seed (which only jitters connection start times), so we can ask the
modern question: do the headline claims hold across seeds?

This example sweeps the Figures 4-5 configuration over several seeds
(the seed is just another sweep axis), reports mean ± 95% CI for the
key metrics, saves one run's
traces to JSON for later re-analysis, and renders the bimodal ACK
inter-arrival histogram that is ACK-compression's fingerprint.

Run:
    python examples/seed_robustness.py
"""

from functools import partial

from repro.analysis import drops_per_epoch, summarize
from repro.io import load_result, save_result
from repro.scenarios import families, paper, run, sweep
from repro.viz import ack_gap_histogram

SEEDS = range(1, 7)


def headline(result):
    """The Figures 4-5 headline numbers of one run."""
    return {
        "utilization": result.utilization("sw1->sw2"),
        "drops_per_epoch": drops_per_epoch(result.epochs()),
        "queue_correlation": result.queue_sync().correlation,
        "compression_factor": result.ack_compression(1).compression_factor,
    }


def main() -> None:
    print(f"replicating figure 4 across seeds {list(SEEDS)}...")
    base = paper.figure4(duration=350.0, warmup=150.0)
    points = sweep(partial(families.seeded, config=base), SEEDS, headline)
    summaries = summarize([point.measurements for point in points])
    print()
    print("metric                      paper      replicated (95% CI)")
    print("-" * 62)
    paper_values = {
        "utilization": "~0.70",
        "drops_per_epoch": "2",
        "queue_correlation": "< 0 (out-of-phase)",
        "compression_factor": "10 (RA/RD)",
    }
    for name, summary in summaries.items():
        print(f"{name:26}  {paper_values[name]:>9}  "
              f"{summary.mean:7.3f} ± {summary.ci_half_width:.3f}  "
              f"(n={summary.n})")

    # Persist one run and re-analyze it offline.
    print()
    result = run(paper.figure4(duration=350.0, warmup=150.0))
    path = save_result(result, "figure4_run.json")
    saved = load_result(path)
    print(f"saved traces to {path} "
          f"({len(saved.queues['sw1->sw2'])} queue points, "
          f"{len(saved.drops)} drops) and reloaded them")

    # The compression fingerprint: bimodal ACK gaps at 8 ms and 80 ms.
    start, end = result.window
    gaps = result.traces.ack_log(1).inter_arrival_times(start, end)
    print()
    print(ack_gap_histogram(gaps, data_tx_time=result.config.data_tx_time,
                            title="conn 1 ACK inter-arrival distribution"))


if __name__ == "__main__":
    main()
