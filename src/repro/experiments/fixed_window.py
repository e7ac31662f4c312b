"""Reproduction experiments for the fixed-window analysis (Sections 4.2-4.3.3).

Covers Figure 8 (asymmetric square waves, one line full), Figure 9
(equal maxima, both lines underutilized), the ACK-compression
chronology, and the zero-length-ACK synchronization conjecture.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator

from repro.analysis.compression import compressed_ack_bursts
from repro.analysis.conjecture import check_prediction, predict
from repro.experiments.expectations import QUEUE_MAXIMA, UTILIZATION
from repro.experiments.report import ExperimentReport
from repro.scenarios import ScenarioConfig, families, paper, run

__all__ = ["fig8", "fig9", "ack_compression", "conjecture_sweep"]


def fig8(duration: float = 600.0, warmup: float = 400.0) -> ExperimentReport:
    """Figure 8: fixed windows 30/25, tau = 0.01 s, infinite buffers."""
    result = run(paper.figure8(duration=duration, warmup=warmup))
    report = ExperimentReport(
        exp_id="fig8",
        title="Fixed windows 30/25, tau=0.01s, infinite buffers",
        paper_ref="Figure 8 and Section 4.2",
    )

    q1_max = result.max_queue("sw1->sw2")
    q2_max = result.max_queue("sw2->sw1")
    # The paper counts the packet in transmission; our queue holds only
    # waiting packets, so measured maxima sit one below the figure's.
    band1, band2 = QUEUE_MAXIMA["fig8_q1"], QUEUE_MAXIMA["fig8_q2"]
    report.add("queue 1 maximum", "55 packets", f"{q1_max + 1:.0f} (incl. in-tx)",
               band1.contains(q1_max + 1))
    report.add("queue 2 maximum", "23 packets", f"{q2_max + 1:.0f} (incl. in-tx)",
               band2.contains(q2_max + 1))
    report.add("queue maxima differ", "yes (55 vs 23)",
               "yes" if q1_max - q2_max > 10 else "no", q1_max - q2_max > 10)

    utils = result.utilizations()
    u1, u2 = utils["sw1->sw2"], utils["sw2->sw1"]
    report.add("line 1 utilization", "100%", f"{u1:.1%}", u1 >= 0.99)
    band = UTILIZATION["fig8_line2"]
    report.add("line 2 utilization", "86%", f"{u2:.1%}", band.contains(u2))

    report.add("drops with infinite buffers", "0", str(len(result.traces.drops)),
               len(result.traces.drops) == 0)
    return report


def fig9(duration: float = 600.0, warmup: float = 400.0) -> ExperimentReport:
    """Figure 9: fixed windows 30/25, tau = 1 s, infinite buffers."""
    result = run(paper.figure9(duration=duration, warmup=warmup))
    report = ExperimentReport(
        exp_id="fig9",
        title="Fixed windows 30/25, tau=1s, infinite buffers",
        paper_ref="Figure 9 and Section 4.2",
    )

    q1_max = result.max_queue("sw1->sw2")
    q2_max = result.max_queue("sw2->sw1")
    band = QUEUE_MAXIMA["fig9_q"]
    report.add("queue 1 maximum", "23 packets", f"{q1_max + 1:.0f} (incl. in-tx)",
               band.contains(q1_max + 1))
    report.add("queue 2 maximum", "23 packets", f"{q2_max + 1:.0f} (incl. in-tx)",
               band.contains(q2_max + 1))
    report.add("queue maxima equal", "yes", "yes" if abs(q1_max - q2_max) <= 2 else "no",
               abs(q1_max - q2_max) <= 2)

    utils = result.utilizations()
    u1, u2 = utils["sw1->sw2"], utils["sw2->sw1"]
    b1, b2 = UTILIZATION["fig9_line1"], UTILIZATION["fig9_line2"]
    report.add("line 1 utilization", "81%", f"{u1:.1%}", b1.contains(u1))
    report.add("line 2 utilization", "70%", f"{u2:.1%}", b2.contains(u2))
    report.add("neither line fully utilized", "yes",
               "yes" if u1 < 0.99 and u2 < 0.99 else "no", u1 < 0.99 and u2 < 0.99)
    return report


def ack_compression(duration: float = 600.0, warmup: float = 400.0) -> ExperimentReport:
    """Section 4.2: ACK spacing collapses from RD to RA through a busy queue."""
    result = run(paper.figure8(duration=duration, warmup=warmup))
    report = ExperimentReport(
        exp_id="ack_compression",
        title="ACK-compression mechanics (fixed-window run)",
        paper_ref="Section 4.2",
    )
    data_tx = result.config.data_tx_time
    ack_tx = result.config.ack_tx_time
    report.add("RA / RD ratio (configured)", "10", f"{data_tx / ack_tx:.0f}", None)

    for conn_id in (1, 2):
        stats = result.ack_compression(conn_id)
        report.add(
            f"conn {conn_id} compression factor (data-tx / compressed gap)",
            "≈10", f"{stats.compression_factor:.1f}",
            7.0 <= stats.compression_factor <= 12.0,
        )
        report.add(
            f"conn {conn_id} compressed ACK fraction", "large",
            f"{stats.compressed_fraction:.0%}", stats.compressed_fraction > 0.3,
        )

    bursts = compressed_ack_bursts(
        result.traces.queue("sw2->sw1").departures, data_tx_time=data_tx,
        start=warmup, end=duration,
    )
    mean_burst = sum(bursts) / len(bursts) if bursts else 0.0
    report.add("compressed ACK bursts leaving queue 2", "whole clusters",
               f"{len(bursts)} bursts, mean size {mean_burst:.1f}",
               bool(bursts) and mean_burst >= 3)

    report.add("ACK drops (finite-buffer companion run would also show 0)",
               "impossible", str(len(result.traces.drops.ack_drops)),
               len(result.traces.drops.ack_drops) == 0)
    return report


def conjecture_rows(
    make_config: Callable[[tuple[int, int, float]], ScenarioConfig],
) -> Iterator[tuple[str, str, str, bool, float]]:
    """Run every graded conjecture case through ``make_config``.

    Yields one ``(label, paper, measured, matches, margin)`` row per
    case of :data:`~repro.scenarios.families.GRADED_CONJECTURE_CASES`.
    The grade is the utilization pattern, the conjecture's observable:
    out-of-phase <=> exactly one line full.  ``margin`` is the case's
    distance |W1 - (W2 + 2P)| from the boundary, in packets.
    """
    for case in families.GRADED_CONJECTURE_CASES:
        w1, w2, _ = case
        config = make_config(case)
        utils = run(config).utilizations()
        u1, u2 = utils["sw1->sw2"], utils["sw2->sw1"]
        prediction = predict(w1, w2, config.pipe_size)
        yield (f"W1={w1} W2={w2} 2P={2 * config.pipe_size:g}: "
               f"{prediction.mode}",
               f"{prediction.fully_utilized_lines} line(s) full",
               f"utils ({u1:.0%}, {u2:.0%})",
               check_prediction(prediction, u1, u2).utilization_matches,
               abs(w1 - (w2 + 2 * config.pipe_size)))


def conjecture_sweep(duration: float = 300.0, warmup: float = 200.0) -> ExperimentReport:
    """Section 4.3.3: the zero-length-ACK two-regime conjecture."""
    report = ExperimentReport(
        exp_id="conjecture",
        title="Zero-ACK fixed-window synchronization conjecture",
        paper_ref="Section 4.3.3",
    )
    make_config = partial(families.conjecture_config,
                          duration=duration, warmup=warmup)
    for label, paper_value, measured, matches, _ in conjecture_rows(make_config):
        report.add(label, paper_value, measured, matches)
    return report
