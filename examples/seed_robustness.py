#!/usr/bin/env python3
"""Are the reproduced numbers robust, or one lucky run?

The paper reports single simulations.  Our runs are deterministic given
a seed (which only jitters connection start times), so we can ask the
modern question: do the headline claims hold across seeds?

This example sweeps the Figures 4-5 configuration over several seeds
(the seed is just another sweep axis), reports mean ± 95% CI for the
key metrics, re-analyses one run from its saved scenario document
(a run is its config: re-running the file is the same run), and
renders the bimodal ACK inter-arrival histogram that is
ACK-compression's fingerprint.

Run:
    python examples/seed_robustness.py
"""

import tempfile
from functools import partial
from pathlib import Path

from repro.analysis import drops_per_epoch, summarize
from repro.experiments.parity import fingerprint_hash
from repro.scenarios import families, load_config, paper, run, save_config, sweep
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

    # Save one run as its scenario document and re-analyse it by
    # re-running the file.
    print()
    result = run(paper.figure4(duration=350.0, warmup=150.0))
    with tempfile.TemporaryDirectory() as tmp:
        path = save_config(result.config, Path(tmp) / "figure4.json")
        rerun = run(load_config(path))
    same = fingerprint_hash(rerun) == fingerprint_hash(result)
    print(f"re-ran {result.config.name} from its saved config "
          f"({len(rerun.queue_series('sw1->sw2'))} queue points, "
          f"{len(rerun.traces.drops)} drops): "
          f"fingerprint {'matches' if same else 'DIFFERS from'} the original")

    # The compression fingerprint: bimodal ACK gaps at 8 ms and 80 ms.
    start, end = result.window
    gaps = result.traces.ack_log(1).inter_arrival_times(start, end)
    print()
    print(ack_gap_histogram(gaps, data_tx_time=result.config.data_tx_time,
                            title="conn 1 ACK inter-arrival distribution"))


if __name__ == "__main__":
    main()
