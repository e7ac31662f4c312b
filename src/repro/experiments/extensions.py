"""Experiments beyond the dumbbell: the Section 5 generality checks.

- the four-switch chain topology from [19], where ACK-compression and
  out-of-phase behavior must persist despite mixed path lengths;
- clustering under two-way traffic (the paper: clustering "also holds
  when there is a single connection in each direction").
"""

from __future__ import annotations

from repro.analysis.clustering import cluster_runs, clustering_stats
from repro.analysis.oscillation import rapid_fluctuation_amplitude
from repro.analysis.synchronization import SyncMode
from repro.errors import AnalysisError
from repro.experiments.fixed_window import (
    add_conjecture_rows,
    conjecture_configs,
    conjecture_measure,
)
from repro.experiments.report import Experiment, add_sync_row, verdict_measure
from repro.experiments.two_way import mixed_cluster_measure
from repro.metrics.port_monitor import effective_pipe_packets
from repro.scenarios import ScenarioResult, families, paper, substitute
from repro.scenarios.config import FlowSpec, ScenarioConfig, TopologyKind

__all__ = ["four_switch", "four_switch_fifty", "aimd_conjecture",
           "clustering_two_way", "effective_pipe", "pacing", "unequal_rtt"]


def four_switch_measure(result: ScenarioResult) -> dict:
    """The chain's observables: ACK-compression at every source, the
    middle hop's phase and utilizations, and the drops."""
    utils = result.utilizations()
    return {
        "compressed": max(result.ack_compression(conn.conn_id).compressed_fraction
                          for conn in result.connections),
        "queue_sync": verdict_measure(result.queue_sync("sw2->sw3", "sw3->sw2")),
        "middle": [utils["sw2->sw3"], utils["sw3->sw2"]],
        "drops": len(result.traces.drops),
        "data_drop_fraction": result.data_drop_fraction(),
    }


def _grade_four_switch(report, points) -> None:
    [m] = points
    report.add("ACK-compression present at some source", "yes",
               f"max compressed fraction {m['compressed']:.0%}",
               m["compressed"] > 0.2)
    add_sync_row(report, "opposite middle-hop queues out-of-phase", "yes",
                 m["queue_sync"],
                 m["queue_sync"]["mode"] == SyncMode.OUT_OF_PHASE.value)
    middle = m["middle"]
    report.add("middle-hop utilizations below 100%", "underutilized",
               f"({middle[0]:.0%}, {middle[1]:.0%})",
               all(u < 0.995 for u in middle))
    report.add("congestion present (drops observed)", "yes",
               str(m["drops"]), m["drops"] > 0)
    report.note(
        "unlike the dumbbell, multi-hop paths can drop ACKs: a cluster "
        "compressed at one switch arrives at the next at rate RA, so the "
        "no-ACK-drop argument of Section 4.2 does not extend here "
        f"(measured data-drop fraction: {m['data_drop_fraction']:.1%})"
    )


#: Section 5: phenomena persist in the 4-switch chain of [19].
four_switch = Experiment(
    "four_switch",
    title="Four-switch chain, mixed 1/2/3-hop connections",
    paper_ref="Section 5 (topology of [19])",
    configs=lambda duration, warmup: [
        paper.four_switch(duration=duration, warmup=warmup)],
    measure=four_switch_measure, grade=_grade_four_switch,
    full=dict(duration=500.0, warmup=200.0),
    fast=dict(duration=250.0, warmup=100.0),
)


def clustering_measure(result: ScenarioResult) -> dict:
    """Cluster statistics of the mixed stream in both bottleneck
    directions: one connection's data with the other's ACKs."""
    start, end = result.window
    measured = {}
    for port in ("sw1->sw2", "sw2->sw1"):
        stats = clustering_stats(cluster_runs(
            result.traces.queue(port).departures, data_only=False,
            start=start, end=end))
        measured[port] = {"interleaving": stats.interleaving_ratio,
                          "mean_run": stats.mean_run_length,
                          "max_run": stats.max_run_length}
    return measured


def _grade_clustering(report, points) -> None:
    [m] = points
    for port, stats in m.items():
        report.add(f"{port} interleaving ratio (mixed stream)",
                   "low (complete clustering)",
                   f"{stats['interleaving']:.3f}",
                   stats["interleaving"] < 0.25)
        report.add(f"{port} mean cluster run length", "window-sized",
                   f"{stats['mean_run']:.1f}", stats["mean_run"] >= 4)
        report.add(f"{port} max cluster run length", "full window",
                   f"{stats['max_run']}", stats["max_run"] >= 10)


#: Sections 3.1/4.1: clustering holds for one connection each way.  On
#: each bottleneck direction the stream mixes one connection's data with
#: the opposite connection's ACKs; complete clustering means each
#: connection's packets pass as contiguous runs rather than interleaving
#: packet-by-packet with the other connection's.
clustering_two_way = Experiment(
    "clustering",
    title="Packet clustering under two-way traffic",
    paper_ref="Sections 3.1 and 4.1",
    configs=lambda duration, warmup: [
        paper.figure4(duration=duration, warmup=warmup)],
    measure=clustering_measure, grade=_grade_clustering,
    full=dict(duration=500.0, warmup=200.0),
    fast=dict(duration=250.0, warmup=100.0),
)

EFFECTIVE_PIPE_BUFFERS = (20, 60)


def effective_pipe_measure(result: ScenarioResult) -> dict:
    """The effective pipe, in packets: physical P plus the mean queued
    ACK wait at ``sw1->sw2`` in data transmission times."""
    start, end = result.window
    ack_wait = result.traces.sojourn("sw1->sw2").mean_wait(
        data_only=False, start=start, end=end)
    return {"pipe": effective_pipe_packets(
        result.config.pipe_size, ack_wait, result.config.data_tx_time)}


def _grade_effective_pipe(report, points) -> None:
    pipes = {buffers: m["pipe"]
             for buffers, m in zip(EFFECTIVE_PIPE_BUFFERS, points)}
    for buffers, pipe in pipes.items():
        report.add(
            f"effective pipe at B={buffers} (physical P=0.125)",
            "grows with B", f"{pipe:.1f} packets", None)
    ratio = pipes[60] / pipes[20]
    report.add("effective pipe grows with buffer", "yes (linearly)",
               f"x{ratio:.1f} for a 3x buffer", 1.5 <= ratio <= 6.0)


#: Section 4.3.1's mechanism: queued ACK delay inflates the pipe.  "The
#: idle time in a cycle is a function of the *effective* pipe size
#: which, since it is determined by the other connection's window,
#: increases with the buffer size."  We measure mean ACK buffer wait at
#: the bottleneck and convert it into effective-pipe packets; it must
#: grow roughly linearly with the buffer while physical P stays fixed.
effective_pipe = Experiment(
    "effective_pipe",
    title="Effective pipe size grows with buffer size",
    paper_ref="Sections 4.2 and 4.3.1",
    configs=lambda duration, warmup: [
        families.buffer_config(buffers, duration, warmup)
        for buffers in EFFECTIVE_PIPE_BUFFERS],
    measure=effective_pipe_measure, grade=_grade_effective_pipe,
    full=dict(duration=500.0, warmup=200.0),
    fast=dict(duration=300.0, warmup=120.0),
)


def pacing_measure(result: ScenarioResult) -> dict:
    """Connection 1's ACK-compression factor and the mixed-stream
    clustering at ``sw1->sw2``."""
    return {"factor": result.ack_compression(1).compression_factor,
            **mixed_cluster_measure(result)}


def _grade_pacing(report, points) -> None:
    nonpaced, paced = points
    report.add("nonpaced compression factor", "RA/RD = 10",
               f"{nonpaced['factor']:.1f}", nonpaced["factor"] >= 7.0)
    report.add("paced compression factor", "1 (no compression)",
               f"{paced['factor']:.1f}", paced["factor"] <= 1.5)
    report.add("paced mean cluster run", "~1 (interleaved)",
               f"{paced['mean_run']:.1f}", paced["mean_run"] <= 3.0)


#: Sections 3.1/6: pacing removes clustering and hence compression.  The
#: paper conjectures every *nonpaced* window algorithm exhibits the two
#: phenomena and suggests future designs need better clocking; the
#: counterfactual paced strategy confirms the mechanism.
pacing = Experiment(
    "pacing",
    title="Pacing counterfactual: no clusters, no compression",
    paper_ref="Sections 3.1 and 6",
    configs=lambda duration, warmup: [
        paper.figure8(duration=duration, warmup=warmup),
        paper.paced_two_way(duration=duration, warmup=warmup)],
    measure=pacing_measure, grade=_grade_pacing,
    full=dict(duration=250.0, warmup=100.0),
    fast=dict(duration=200.0, warmup=80.0),
)


def merged_cluster_measure(result: ScenarioResult) -> dict:
    """Data-packet clustering on the last forward hop, where every flow
    has merged: ``sw1->sw2`` on a dumbbell, ``sw2->sw3`` on a
    three-switch chain."""
    start, end = result.window
    stats = clustering_stats(cluster_runs(
        result.traces.queue(result.bottleneck_ports[-2]).departures,
        start=start, end=end))
    return {"interleaving": stats.interleaving_ratio,
            "mean_run": stats.mean_run_length}


def _unequal_rtt_configs(duration: float, warmup: float) -> list[ScenarioConfig]:
    equal = paper.one_way(n_connections=2, propagation=1.0, buffer_packets=20,
                          duration=duration, warmup=warmup)
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
    return [equal, chain]


def _grade_unequal_rtt(report, points) -> None:
    equal, unequal = points
    report.add("equal-RTT interleaving ratio", "≈0 (perfect clustering)",
               f"{equal['interleaving']:.3f}", equal["interleaving"] < 0.15)
    report.add("unequal-RTT interleaving ratio", "> equal (imperfect)",
               f"{unequal['interleaving']:.3f}",
               unequal["interleaving"] > equal["interleaving"])
    report.add("partial clustering survives unequal RTTs", "yes",
               f"mean run {unequal['mean_run']:.1f} packets",
               unequal["mean_run"] > 1.5)


#: Section 5: unequal round-trip times break perfect clustering.  "When
#: the round-trip times of different connections differ by more than a
#: packet transmission time at the bottleneck point, the clustering will
#: no longer be perfect, although partial clustering may still exist."
#: We compare equal-RTT connections on a dumbbell against a chain where
#: one connection's path is a hop longer.
unequal_rtt = Experiment(
    "unequal_rtt",
    title="Clustering with equal vs unequal round-trip times",
    paper_ref="Section 5",
    configs=_unequal_rtt_configs, measure=merged_cluster_measure,
    grade=_grade_unequal_rtt,
    full=dict(duration=400.0, warmup=150.0),
    fast=dict(duration=250.0, warmup=100.0),
)


def _grade_aimd_conjecture(report, points) -> None:
    # Close to the boundary the additive ramp-up, not the paper's
    # analysis, decides the phase: those rows are informational.
    matches = add_conjecture_rows(report, points, label_prefix="AIMD ",
                                  far_from_boundary=2.0)
    far = [row.ok for row in report.rows if row.ok is not None]
    report.add("boundary survives away from W1 = W2 + 2P",
               f"{len(far)}/{len(far)} far cases match",
               f"{sum(far)}/{len(far)} far, "
               f"{sum(matches)}/{len(families.GRADED_CONJECTURE_CASES)} overall",
               all(far))
    report.note(
        "same W1/W2/tau grid as the fixed-window conjecture sweep, with "
        "AIMD(1, 0.5) window caps substituted via "
        "scenarios.substitute; near-boundary rows are "
        "informational (the additive ramp-up perturbs the phase there)"
    )


#: Section 4.3.3's regime boundary under a non-Tahoe algorithm.  The
#: paper argues its phenomena hold for "a wider class" of nonpaced window
#: algorithms.  Here the zero-ACK conjecture grid is re-run with every
#: fixed-window flow substituted by ``AIMD(a=1, b=0.5)`` capped at the
#: same W1/W2: with infinite buffers nothing is ever dropped, each AIMD
#: window climbs additively to its cap and stays there, so the W1 vs
#: W2 + 2P phase prediction should survive away from the boundary — the
#: ramp-up transient, not the paper's analysis, decides the cases that
#: sit close to it.
aimd_conjecture = Experiment(
    "aimd_conjecture",
    title="Zero-ACK conjecture grid under AIMD(1, 0.5)",
    paper_ref="Sections 4.3.3 and 6 (wider class of algorithms)",
    configs=lambda duration, warmup: [
        substitute(config, algorithm="aimd", params={"a": 1.0, "b": 0.5})
        for config in conjecture_configs(duration, warmup)],
    measure=conjecture_measure, grade=_grade_aimd_conjecture,
    full=dict(duration=300.0, warmup=200.0),
    fast=dict(duration=150.0, warmup=100.0),
)


def four_switch_fifty_measure(result: ScenarioResult) -> dict:
    """The 50-connection chain's observables on its middle hop."""
    start, end = result.window
    # Heavily contended connections can be starved over a short window;
    # skip any with too few ACKs to measure.
    fractions = []
    for conn in result.connections:
        try:
            fractions.append(
                result.ack_compression(conn.conn_id).compressed_fraction)
        except AnalysisError:
            continue
    return {
        "compressed": max(fractions),
        "queue_sync": verdict_measure(result.queue_sync("sw2->sw3", "sw3->sw2")),
        "amplitude": rapid_fluctuation_amplitude(
            result.traces.queue("sw2->sw3").lengths, start, end,
            window=result.config.data_tx_time),
        "progressing": sum(1 for c in result.connections
                           if c.receiver.rcv_nxt > 10),
    }


def _grade_four_switch_fifty(report, points) -> None:
    [m] = points
    report.add("ACK-compression present", "yes",
               f"max compressed fraction {m['compressed']:.0%}",
               m["compressed"] > 0.2)
    add_sync_row(report, "out-of-phase queue synchronization", "yes",
                 m["queue_sync"],
                 m["queue_sync"]["mode"] == SyncMode.OUT_OF_PHASE.value)
    report.add("rapid queue fluctuations", "present",
               f"{m['amplitude']:.0f} packets per data-tx time",
               m["amplitude"] >= 3)
    report.add("connections making progress", "all 50",
               f"{m['progressing']}/50", m["progressing"] >= 45)


#: Section 5 at full scale: 50 connections on the [19] chain.  "for a
#: topology considered in [19] consisting of four switches, with a
#: traffic pattern of 50 connections whose path lengths were roughly
#: equally split between 1, 2, and 3 hops, the queue length data
#: displayed both the ACK-compression and out-of-phase synchronization
#: phenomena."
four_switch_fifty = Experiment(
    "four_switch_fifty",
    title="Four-switch chain with 50 mixed-path connections",
    paper_ref="Section 5 ([19] at full scale)",
    configs=lambda duration, warmup: [
        paper.four_switch_fifty(duration=duration, warmup=warmup)],
    measure=four_switch_fifty_measure, grade=_grade_four_switch_fifty,
    full=dict(duration=400.0, warmup=150.0),
    fast=dict(duration=250.0, warmup=100.0),
)
