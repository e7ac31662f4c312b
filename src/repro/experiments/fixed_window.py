"""Reproduction experiments for the fixed-window analysis (Sections 4.2-4.3.3).

Covers Figure 8 (asymmetric square waves, one line full), Figure 9
(equal maxima, both lines underutilized), the ACK-compression
chronology, and the zero-length-ACK synchronization conjecture.
"""

from __future__ import annotations

from repro.analysis.compression import compressed_ack_bursts
from repro.analysis.conjecture import check_prediction, predict
from repro.experiments.expectations import QUEUE_MAXIMA, UTILIZATION
from repro.experiments.report import Experiment
from repro.scenarios import ScenarioResult, families, paper

__all__ = ["fig8", "fig9", "ack_compression", "conjecture_sweep"]


def fixed_window_measure(result: ScenarioResult) -> dict:
    """Both bottleneck directions' queue maxima and utilizations, and
    the drop count (zero with infinite buffers)."""
    utils = result.utilizations()
    return {
        "q1_max": result.max_queue("sw1->sw2"),
        "q2_max": result.max_queue("sw2->sw1"),
        "u1": utils["sw1->sw2"],
        "u2": utils["sw2->sw1"],
        "drops": len(result.traces.drops),
    }


def _grade_fig8(report, points) -> None:
    [m] = points
    q1_max, q2_max = m["q1_max"], m["q2_max"]
    # The paper counts the packet in transmission; our queue holds only
    # waiting packets, so measured maxima sit one below the figure's.
    band1, band2 = QUEUE_MAXIMA["fig8_q1"], QUEUE_MAXIMA["fig8_q2"]
    report.add("queue 1 maximum", "55 packets", f"{q1_max + 1:.0f} (incl. in-tx)",
               band1.contains(q1_max + 1))
    report.add("queue 2 maximum", "23 packets", f"{q2_max + 1:.0f} (incl. in-tx)",
               band2.contains(q2_max + 1))
    report.add("queue maxima differ", "yes (55 vs 23)",
               "yes" if q1_max - q2_max > 10 else "no", q1_max - q2_max > 10)
    u1, u2 = m["u1"], m["u2"]
    report.add("line 1 utilization", "100%", f"{u1:.1%}", u1 >= 0.99)
    band = UTILIZATION["fig8_line2"]
    report.add("line 2 utilization", "86%", f"{u2:.1%}", band.contains(u2))
    report.add("drops with infinite buffers", "0", str(m["drops"]),
               m["drops"] == 0)


fig8 = Experiment(
    "fig8",
    title="Fixed windows 30/25, tau=0.01s, infinite buffers",
    paper_ref="Figure 8 and Section 4.2",
    configs=lambda duration, warmup: [
        paper.figure8(duration=duration, warmup=warmup)],
    measure=fixed_window_measure, grade=_grade_fig8,
    full=dict(duration=600.0, warmup=400.0),
    fast=dict(duration=200.0, warmup=100.0),
)


def _grade_fig9(report, points) -> None:
    [m] = points
    q1_max, q2_max = m["q1_max"], m["q2_max"]
    band = QUEUE_MAXIMA["fig9_q"]
    report.add("queue 1 maximum", "23 packets", f"{q1_max + 1:.0f} (incl. in-tx)",
               band.contains(q1_max + 1))
    report.add("queue 2 maximum", "23 packets", f"{q2_max + 1:.0f} (incl. in-tx)",
               band.contains(q2_max + 1))
    report.add("queue maxima equal", "yes", "yes" if abs(q1_max - q2_max) <= 2 else "no",
               abs(q1_max - q2_max) <= 2)
    u1, u2 = m["u1"], m["u2"]
    b1, b2 = UTILIZATION["fig9_line1"], UTILIZATION["fig9_line2"]
    report.add("line 1 utilization", "81%", f"{u1:.1%}", b1.contains(u1))
    report.add("line 2 utilization", "70%", f"{u2:.1%}", b2.contains(u2))
    report.add("neither line fully utilized", "yes",
               "yes" if u1 < 0.99 and u2 < 0.99 else "no", u1 < 0.99 and u2 < 0.99)


fig9 = Experiment(
    "fig9",
    title="Fixed windows 30/25, tau=1s, infinite buffers",
    paper_ref="Figure 9 and Section 4.2",
    configs=lambda duration, warmup: [
        paper.figure9(duration=duration, warmup=warmup)],
    measure=fixed_window_measure, grade=_grade_fig9,
    full=dict(duration=600.0, warmup=400.0),
    fast=dict(duration=300.0, warmup=150.0),
)


def ack_compression_measure(result: ScenarioResult) -> dict:
    """ACK-compression at both sources and the compressed ACK bursts
    leaving ``sw2->sw1``."""
    start, end = result.window
    data_tx = result.config.data_tx_time
    compression = {}
    for conn_id in (1, 2):
        stats = result.ack_compression(conn_id)
        compression[f"factor{conn_id}"] = stats.compression_factor
        compression[f"fraction{conn_id}"] = stats.compressed_fraction
    return {
        "tx_ratio": data_tx / result.config.ack_tx_time,
        **compression,
        "bursts": compressed_ack_bursts(
            result.traces.queue("sw2->sw1").departures, data_tx_time=data_tx,
            start=start, end=end),
        "ack_drops": len(result.traces.drops.ack_drops),
    }


def _grade_ack_compression(report, points) -> None:
    [m] = points
    report.add("RA / RD ratio (configured)", "10", f"{m['tx_ratio']:.0f}", None)
    for conn_id in (1, 2):
        factor, fraction = m[f"factor{conn_id}"], m[f"fraction{conn_id}"]
        report.add(
            f"conn {conn_id} compression factor (data-tx / compressed gap)",
            "≈10", f"{factor:.1f}", 7.0 <= factor <= 12.0,
        )
        report.add(
            f"conn {conn_id} compressed ACK fraction", "large",
            f"{fraction:.0%}", fraction > 0.3,
        )
    bursts = m["bursts"]
    mean_burst = sum(bursts) / len(bursts) if bursts else 0.0
    report.add("compressed ACK bursts leaving queue 2", "whole clusters",
               f"{len(bursts)} bursts, mean size {mean_burst:.1f}",
               bool(bursts) and mean_burst >= 3)
    report.add("ACK drops (finite-buffer companion run would also show 0)",
               "impossible", str(m["ack_drops"]), m["ack_drops"] == 0)


#: Section 4.2: ACK spacing collapses from RD to RA through a busy queue.
ack_compression = Experiment(
    "ack_compression",
    title="ACK-compression mechanics (fixed-window run)",
    paper_ref="Section 4.2",
    configs=lambda duration, warmup: [
        paper.figure8(duration=duration, warmup=warmup)],
    measure=ack_compression_measure, grade=_grade_ack_compression,
    full=dict(duration=600.0, warmup=400.0),
    fast=dict(duration=200.0, warmup=100.0),
)


def conjecture_measure(result: ScenarioResult) -> dict:
    """Both line utilizations and the pipe size ``P`` of one case."""
    return {**families.utilization_extract(result),
            "pipe": result.config.pipe_size}


def add_conjecture_rows(report, points, label_prefix: str = "",
                        far_from_boundary: float | None = None) -> list[bool]:
    """One row per case of
    :data:`~repro.scenarios.families.GRADED_CONJECTURE_CASES`.

    The grade is the utilization pattern, the conjecture's observable:
    out-of-phase <=> exactly one line full.  With ``far_from_boundary``
    set, a case whose distance |W1 - (W2 + 2P)| from the boundary is at
    most that many packets is reported ungraded.  Returns each case's
    match.
    """
    matches = []
    for (w1, w2, _), m in zip(families.GRADED_CONJECTURE_CASES, points):
        u1, u2 = m["util:sw1->sw2"], m["util:sw2->sw1"]
        prediction = predict(w1, w2, m["pipe"])
        matches.append(check_prediction(prediction, u1, u2).utilization_matches)
        graded = (far_from_boundary is None
                  or abs(w1 - (w2 + 2 * m["pipe"])) > far_from_boundary)
        report.add(f"{label_prefix}W1={w1} W2={w2} 2P={2 * m['pipe']:g}: "
                   f"{prediction.mode}",
                   f"{prediction.fully_utilized_lines} line(s) full",
                   f"utils ({u1:.0%}, {u2:.0%})",
                   matches[-1] if graded else None)
    return matches


def conjecture_configs(duration: float, warmup: float) -> list:
    """Every graded conjecture case as a zero-ACK fixed-window config."""
    return [families.conjecture_config(case, duration=duration, warmup=warmup)
            for case in families.GRADED_CONJECTURE_CASES]


#: Section 4.3.3: the zero-length-ACK two-regime conjecture.
conjecture_sweep = Experiment(
    "conjecture",
    title="Zero-ACK fixed-window synchronization conjecture",
    paper_ref="Section 4.3.3",
    configs=conjecture_configs, measure=conjecture_measure,
    grade=add_conjecture_rows,
    full=dict(duration=300.0, warmup=200.0),
    fast=dict(duration=150.0, warmup=100.0),
)
