"""Experiments beyond the dumbbell: the Section 5 generality checks.

- the four-switch chain topology from [19], where ACK-compression and
  out-of-phase behavior must persist despite mixed path lengths;
- clustering under two-way traffic (the paper: clustering "also holds
  when there is a single connection in each direction").
"""

from __future__ import annotations

from functools import partial

from repro.analysis.clustering import cluster_runs, clustering_stats
from repro.analysis.synchronization import SyncMode
from repro.experiments.report import ExperimentReport
from repro.scenarios import paper, run

__all__ = ["four_switch", "four_switch_fifty", "aimd_conjecture",
           "clustering_two_way", "effective_pipe", "pacing", "unequal_rtt"]


def four_switch(duration: float = 500.0, warmup: float = 200.0) -> ExperimentReport:
    """Section 5: phenomena persist in the 4-switch chain of [19]."""
    result = run(paper.four_switch(duration=duration, warmup=warmup))
    report = ExperimentReport(
        exp_id="four_switch",
        title="Four-switch chain, mixed 1/2/3-hop connections",
        paper_ref="Section 5 (topology of [19])",
    )

    compressed_any = 0.0
    for conn in result.connections:
        stats = result.ack_compression(conn.conn_id)
        compressed_any = max(compressed_any, stats.compressed_fraction)
    report.add("ACK-compression present at some source", "yes",
               f"max compressed fraction {compressed_any:.0%}",
               compressed_any > 0.2)

    verdict = result.queue_sync("sw2->sw3", "sw3->sw2")
    report.add("opposite middle-hop queues out-of-phase", "yes",
               f"{verdict.mode} (r={verdict.correlation:+.2f})",
               verdict.mode is SyncMode.OUT_OF_PHASE)

    utils = result.utilizations()
    middle = [utils["sw2->sw3"], utils["sw3->sw2"]]
    report.add("middle-hop utilizations below 100%", "underutilized",
               f"({middle[0]:.0%}, {middle[1]:.0%})",
               all(u < 0.995 for u in middle))
    total_drops = len(result.traces.drops)
    report.add("congestion present (drops observed)", "yes",
               str(total_drops), total_drops > 0)
    report.note(
        "unlike the dumbbell, multi-hop paths can drop ACKs: a cluster "
        "compressed at one switch arrives at the next at rate RA, so the "
        "no-ACK-drop argument of Section 4.2 does not extend here "
        f"(measured data-drop fraction: {result.data_drop_fraction():.1%})"
    )
    return report


def clustering_two_way(duration: float = 500.0, warmup: float = 200.0) -> ExperimentReport:
    """Sections 3.1/4.1: clustering holds for one connection each way.

    On each bottleneck direction the stream mixes one connection's data
    with the opposite connection's ACKs; complete clustering means each
    connection's packets pass as contiguous runs rather than interleaving
    packet-by-packet with the other connection's.
    """
    result = run(paper.figure4(duration=duration, warmup=warmup))
    report = ExperimentReport(
        exp_id="clustering",
        title="Packet clustering under two-way traffic",
        paper_ref="Sections 3.1 and 4.1",
    )
    for port in ("sw1->sw2", "sw2->sw1"):
        departures = result.traces.queue(port).departures
        runs = cluster_runs(departures, data_only=False,
                            start=warmup, end=duration)
        stats = clustering_stats(runs)
        report.add(f"{port} interleaving ratio (mixed stream)",
                   "low (complete clustering)",
                   f"{stats.interleaving_ratio:.3f}",
                   stats.interleaving_ratio < 0.25)
        report.add(f"{port} mean cluster run length", "window-sized",
                   f"{stats.mean_run_length:.1f}", stats.mean_run_length >= 4)
        report.add(f"{port} max cluster run length", "full window",
                   f"{stats.max_run_length}", stats.max_run_length >= 10)
    return report


def effective_pipe(duration: float = 500.0, warmup: float = 200.0) -> ExperimentReport:
    """Section 4.3.1's mechanism: queued ACK delay inflates the pipe.

    "The idle time in a cycle is a function of the *effective* pipe size
    which, since it is determined by the other connection's window,
    increases with the buffer size."  We measure mean ACK buffer wait at
    the bottleneck and convert it into effective-pipe packets; it must
    grow roughly linearly with the buffer while physical P stays fixed.
    """
    from repro.metrics.port_monitor import effective_pipe_packets

    report = ExperimentReport(
        exp_id="effective_pipe",
        title="Effective pipe size grows with buffer size",
        paper_ref="Sections 4.2 and 4.3.1",
    )
    pipes = {}
    for buffers in (20, 60):
        scale = max(1.0, buffers / 24.0)
        result = run(paper.figure4(buffer_packets=buffers,
                                   duration=duration * scale,
                                   warmup=warmup * scale))
        start, end = result.window
        ack_wait = result.traces.sojourn("sw1->sw2").mean_wait(
            data_only=False, start=start, end=end)
        pipes[buffers] = effective_pipe_packets(
            result.config.pipe_size, ack_wait, result.config.data_tx_time)
        report.add(
            f"effective pipe at B={buffers} (physical P=0.125)",
            "grows with B", f"{pipes[buffers]:.1f} packets", None)
    ratio = pipes[60] / pipes[20]
    report.add("effective pipe grows with buffer", "yes (linearly)",
               f"x{ratio:.1f} for a 3x buffer", 1.5 <= ratio <= 6.0)
    return report


def pacing(duration: float = 250.0, warmup: float = 100.0) -> ExperimentReport:
    """Sections 3.1/6: pacing removes clustering and hence compression.

    The paper conjectures every *nonpaced* window algorithm exhibits the
    two phenomena and suggests future designs need better clocking; the
    counterfactual paced strategy confirms the mechanism.
    """
    report = ExperimentReport(
        exp_id="pacing",
        title="Pacing counterfactual: no clusters, no compression",
        paper_ref="Sections 3.1 and 6",
    )

    nonpaced = run(paper.figure8(duration=duration, warmup=warmup))
    nonpaced_stats = nonpaced.ack_compression(1)

    paced = run(paper.paced_two_way(duration=duration, warmup=warmup))
    paced_stats = paced.ack_compression(1)
    paced_clusters = clustering_stats(cluster_runs(
        paced.traces.queue("sw1->sw2").departures, data_only=False,
        start=warmup, end=duration))

    report.add("nonpaced compression factor", "RA/RD = 10",
               f"{nonpaced_stats.compression_factor:.1f}",
               nonpaced_stats.compression_factor >= 7.0)
    report.add("paced compression factor", "1 (no compression)",
               f"{paced_stats.compression_factor:.1f}",
               paced_stats.compression_factor <= 1.5)
    report.add("paced mean cluster run", "~1 (interleaved)",
               f"{paced_clusters.mean_run_length:.1f}",
               paced_clusters.mean_run_length <= 3.0)
    return report


def unequal_rtt(duration: float = 400.0, warmup: float = 150.0) -> ExperimentReport:
    """Section 5: unequal round-trip times break perfect clustering.

    "When the round-trip times of different connections differ by more
    than a packet transmission time at the bottleneck point, the
    clustering will no longer be perfect, although partial clustering
    may still exist."  We compare equal-RTT connections on a dumbbell
    against a chain where one connection's path is a hop longer.
    """
    from repro.scenarios.config import FlowSpec, ScenarioConfig, TopologyKind

    report = ExperimentReport(
        exp_id="unequal_rtt",
        title="Clustering with equal vs unequal round-trip times",
        paper_ref="Section 5",
    )

    equal = run(paper.one_way(n_connections=2, propagation=1.0,
                              buffer_packets=20,
                              duration=duration, warmup=warmup))
    equal_stats = clustering_stats(cluster_runs(
        equal.traces.queue("sw1->sw2").departures,
        start=warmup, end=duration))

    chain = ScenarioConfig(
        name="unequal-rtt",
        topology=TopologyKind.CHAIN,
        n_switches=3,
        flows=(
            FlowSpec(src="host1", dst="host3", start_time=None),  # 2 hops
            FlowSpec(src="host2", dst="host3", start_time=None),  # 1 hop
        ),
        bottleneck_propagation=0.01,
        buffer_packets=20,
        duration=duration,
        warmup=warmup,
        start_jitter=3.0,
    )
    unequal = run(chain)
    unequal_stats = clustering_stats(cluster_runs(
        unequal.traces.queue("sw2->sw3").departures,
        start=warmup, end=duration))

    report.add("equal-RTT interleaving ratio", "≈0 (perfect clustering)",
               f"{equal_stats.interleaving_ratio:.3f}",
               equal_stats.interleaving_ratio < 0.15)
    report.add("unequal-RTT interleaving ratio", "> equal (imperfect)",
               f"{unequal_stats.interleaving_ratio:.3f}",
               unequal_stats.interleaving_ratio > equal_stats.interleaving_ratio)
    report.add("partial clustering survives unequal RTTs", "yes",
               f"mean run {unequal_stats.mean_run_length:.1f} packets",
               unequal_stats.mean_run_length > 1.5)
    return report


def aimd_conjecture(duration: float = 300.0, warmup: float = 200.0) -> ExperimentReport:
    """Section 4.3.3's regime boundary under a non-Tahoe algorithm.

    The paper argues its phenomena hold for "a wider class" of nonpaced
    window algorithms.  Here the zero-ACK conjecture grid is re-run with
    every fixed-window flow substituted by ``AIMD(a=1, b=0.5)`` capped
    at the same W1/W2: with infinite buffers nothing is ever dropped,
    each AIMD window climbs additively to its cap and stays there, so
    the W1 vs W2 + 2P phase prediction should survive away from the
    boundary — the ramp-up transient, not the paper's analysis, decides
    the cases that sit close to it.
    """
    from repro.experiments.fixed_window import conjecture_rows
    from repro.scenarios import families

    report = ExperimentReport(
        exp_id="aimd_conjecture",
        title="Zero-ACK conjecture grid under AIMD(1, 0.5)",
        paper_ref="Sections 4.3.3 and 6 (wider class of algorithms)",
    )
    make_config = partial(
        families.substituted,
        make_config=partial(families.conjecture_config,
                            duration=duration, warmup=warmup),
        algorithm="aimd", params={"a": 1.0, "b": 0.5})
    matched, far_matched, far_total = 0, 0, 0
    for label, paper_value, measured, matches, margin in conjecture_rows(make_config):
        # Close to the boundary the additive ramp-up, not the paper's
        # analysis, decides the phase: those rows are informational.
        far = margin > 2.0
        matched += matches
        if far:
            far_total += 1
            far_matched += matches
        report.add(f"AIMD {label}", paper_value, measured,
                   matches if far else None)
    report.add("boundary survives away from W1 = W2 + 2P",
               f"{far_total}/{far_total} far cases match",
               f"{far_matched}/{far_total} far, "
               f"{matched}/{len(families.GRADED_CONJECTURE_CASES)} overall",
               far_matched == far_total)
    report.note(
        "same W1/W2/tau grid as the fixed-window conjecture sweep, with "
        "AIMD(1, 0.5) window caps substituted via "
        "scenarios.substitute; near-boundary rows are "
        "informational (the additive ramp-up perturbs the phase there)"
    )
    return report


def four_switch_fifty(duration: float = 400.0, warmup: float = 150.0) -> ExperimentReport:
    """Section 5 at full scale: 50 connections on the [19] chain.

    "for a topology considered in [19] consisting of four switches, with
    a traffic pattern of 50 connections whose path lengths were roughly
    equally split between 1, 2, and 3 hops, the queue length data
    displayed both the ACK-compression and out-of-phase synchronization
    phenomena."
    """
    from repro.analysis.oscillation import rapid_fluctuation_amplitude

    result = run(paper.four_switch_fifty(duration=duration, warmup=warmup))
    report = ExperimentReport(
        exp_id="four_switch_fifty",
        title="Four-switch chain with 50 mixed-path connections",
        paper_ref="Section 5 ([19] at full scale)",
    )

    # Heavily contended connections can be starved over a short window;
    # skip any with too few ACKs to measure.
    from repro.errors import AnalysisError

    fractions = []
    for conn in result.connections:
        try:
            fractions.append(
                result.ack_compression(conn.conn_id).compressed_fraction)
        except AnalysisError:
            continue
    compressed = max(fractions)
    report.add("ACK-compression present", "yes",
               f"max compressed fraction {compressed:.0%}", compressed > 0.2)

    verdict = result.queue_sync("sw2->sw3", "sw3->sw2")
    report.add("out-of-phase queue synchronization", "yes",
               f"{verdict.mode} (r={verdict.correlation:+.2f})",
               verdict.mode is SyncMode.OUT_OF_PHASE)

    amplitude = rapid_fluctuation_amplitude(
        result.traces.queue("sw2->sw3").lengths, warmup, duration,
        window=result.config.data_tx_time)
    report.add("rapid queue fluctuations", "present",
               f"{amplitude:.0f} packets per data-tx time", amplitude >= 3)

    progressing = sum(1 for c in result.connections if c.receiver.rcv_nxt > 10)
    report.add("connections making progress", "all 50",
               f"{progressing}/50", progressing >= 45)
    return report
