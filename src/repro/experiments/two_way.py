"""Reproduction experiments for the two-way-traffic results (Sections 3.2, 4).

Covers Figure 3 (ten connections), Figures 4-5 (out-of-phase mode),
Figures 6-7 (in-phase mode), the buffer-size counterexample, and the
delayed-ACK discussion of Section 5.
"""

from __future__ import annotations

from repro.experiments.expectations import DROP_PATTERNS, UTILIZATION
from repro.experiments.report import Experiment, add_sync_row, verdict_measure
from repro.scenarios import ScenarioResult, families, paper

__all__ = ["fig3", "fig3_buffer60", "fig4_5", "fig6_7", "buffer_sweep", "delayed_ack"]

#: The forward bottleneck's key in
#: :func:`~repro.scenarios.families.utilization_extract` measurements.
FORWARD = "util:sw1->sw2"


def fig3_measure(result: ScenarioResult) -> dict:
    """Figure 3's observables: sw1->sw2, epochs at a 4 s gap, and the
    window coherence within and between the two host groups."""
    from repro.analysis.epochs import drops_per_epoch
    from repro.analysis.oscillation import rapid_fluctuation_amplitude
    from repro.analysis.synchronization import mean_correlation

    start, end = result.window
    host1_group = result.cwnd_series(range(1, 6))
    host2_group = result.cwnd_series(range(6, 11))
    return {
        "util": result.utilization("sw1->sw2"),
        "queue_sync": verdict_measure(result.queue_sync()),
        "data_drop_fraction": result.data_drop_fraction(),
        "amplitude": rapid_fluctuation_amplitude(
            result.queue_series("sw1->sw2"), start, end,
            window=result.config.data_tx_time),
        "drops_per_epoch": drops_per_epoch(result.epochs(gap=4.0)),
        "within_1": mean_correlation(host1_group, start, end),
        "within_2": mean_correlation(host2_group, start, end),
        "between": mean_correlation(host1_group, start, end,
                                    across=host2_group),
    }


def _grade_fig3(report, points) -> None:
    from repro.analysis.synchronization import SyncMode

    [m] = points
    band = UTILIZATION["fig3_b30"]
    report.add("bottleneck utilization", f"~{band.value:.0%}",
               f"{m['util']:.1%}", band.contains(m["util"]))
    add_sync_row(report, "queue synchronization", "out-of-phase",
                 m["queue_sync"],
                 m["queue_sync"]["mode"] == SyncMode.OUT_OF_PHASE.value)
    frac = m["data_drop_fraction"]
    report.add("data packets among drops", "99.8%", f"{frac:.2%}",
               DROP_PATTERNS["fig3_data_drop_fraction"].contains(frac))
    report.add("rapid queue fluctuations (per data-tx-time)", "~5 packets",
               f"{m['amplitude']:.0f} packets", m["amplitude"] >= 3)
    mean_drops = m["drops_per_epoch"]
    report.add("drops per congestion epoch", "~10 (= total acceleration)",
               f"{mean_drops:.1f}",
               DROP_PATTERNS["fig3_drops_per_epoch"].contains(mean_drops))
    report.note(
        "drop clusters per epoch depend on the epoch-gap parameter; the "
        "paper notes the count 'varies' in this configuration"
    )
    # Section 3.2: same-direction connections in-phase, the two host
    # groups out-of-phase with each other.
    within_1, within_2 = m["within_1"], m["within_2"]
    report.add("same-direction windows in-phase", "yes",
               f"mean r {within_1:+.2f} / {within_2:+.2f}",
               within_1 > 0.0 and within_2 > 0.0)
    report.add("host1 group out-of-phase with host2 group", "yes",
               f"mean r {m['between']:+.2f}", m["between"] < 0.0)


fig3 = Experiment(
    "fig3",
    title="Two-way traffic, 5+5 connections, B=30",
    paper_ref="Figure 3 and Section 3.2",
    configs=lambda duration, warmup: [
        paper.figure3(duration=duration, warmup=warmup)],
    measure=fig3_measure, grade=_grade_fig3,
    full=dict(duration=600.0, warmup=200.0),
    fast=dict(duration=300.0, warmup=120.0),
)


def _grade_fig3_buffer60(report, points) -> None:
    util30, util60 = (m[FORWARD] for m in points)
    report.add("utilization at B=30", "~91%", f"{util30:.1%}", None)
    report.add("utilization at B=60", "~87%", f"{util60:.1%}", None)
    report.add("bigger buffer does not raise utilization", "yes",
               "yes" if util60 <= util30 + 0.03 else "no",
               util60 <= util30 + 0.03)


#: Section 3.2 prose: doubling the buffer does NOT raise utilization.
fig3_buffer60 = Experiment(
    "fig3_buf60",
    title="Two-way 5+5 connections, buffer 30 vs 60",
    paper_ref="Section 3.2 prose",
    configs=lambda duration, warmup: [
        paper.figure3(buffer_packets=buffers, duration=duration, warmup=warmup)
        for buffers in (30, 60)],
    measure=families.utilization_extract, grade=_grade_fig3_buffer60,
    full=dict(duration=600.0, warmup=200.0),
    fast=dict(duration=300.0, warmup=120.0),
)


def fig4_5_measure(result: ScenarioResult) -> dict:
    """Figures 4-5's observables: phase, per-epoch loss pattern,
    ACK-compression at connection 1 and the shape of its rebuilds."""
    from repro.analysis.epochs import drops_per_epoch
    from repro.analysis.growth import growth_concavity, rebuild_segments
    from repro.analysis.synchronization import alternation_fraction

    start, end = result.window
    epochs = result.epochs()
    single = sum(1 for e in epochs if len(e.connections) == 1)
    log = result.traces.cwnd(1)
    segments = rebuild_segments(log.loss_times, start, end, margin=1.0)
    return {
        "util": result.utilization("sw1->sw2"),
        "queue_sync": verdict_measure(result.queue_sync()),
        "window_sync": verdict_measure(result.window_sync(1, 2)),
        "drops_per_epoch": drops_per_epoch(epochs),
        "single_fraction": single / len(epochs) if epochs else 0.0,
        "alternation": alternation_fraction(epochs) if single >= 2 else None,
        "compression_factor": result.ack_compression(1).compression_factor,
        "concavities": [growth_concavity(log.cwnd, a, b) for a, b in segments],
    }


def _grade_fig4_5(report, points) -> None:
    from repro.analysis.synchronization import SyncMode

    [m] = points
    band = UTILIZATION["fig4_two_way_small_pipe"]
    report.add("bottleneck utilization", f"~{band.value:.0%}",
               f"{m['util']:.1%}", band.contains(m["util"]))
    add_sync_row(report, "queue synchronization", "out-of-phase",
                 m["queue_sync"],
                 m["queue_sync"]["mode"] == SyncMode.OUT_OF_PHASE.value)
    add_sync_row(report, "window synchronization", "out-of-phase",
                 m["window_sync"],
                 m["window_sync"]["mode"] == SyncMode.OUT_OF_PHASE.value)
    mean_drops = m["drops_per_epoch"]
    report.add("drops per congestion epoch", "2 (total acceleration)",
               f"{mean_drops:.2f}",
               DROP_PATTERNS["fig4_drops_per_epoch"].contains(mean_drops))
    report.add("losses concentrated on one connection per epoch",
               "always (2 drops, same connection)",
               f"{m['single_fraction']:.0%} of epochs",
               m["single_fraction"] >= 0.7)
    if m["alternation"] is not None:
        report.add("losing connection alternates between epochs", "always",
                   f"{m['alternation']:.0%}", m["alternation"] >= 0.7)
    factor = m["compression_factor"]
    report.add("ACK-compression factor at source", "RA/RD = 10",
               f"{factor:.1f}", 5.0 <= factor <= 12.0)
    # Section 4.3.1: after the double drop (ssthresh -> 2), the window
    # rebuilds with decelerating, square-root-like growth — not an
    # exponential phase followed by a linear one.
    concavities = m["concavities"]
    if concavities:
        concave = sum(1 for c in concavities if c > 0)
        report.add("post-double-drop growth decelerates (sqrt-like)",
                   "cwnd ~ sqrt(t) over the cycle",
                   f"{concave}/{len(concavities)} rebuilds concave",
                   concave / len(concavities) >= 0.6)


fig4_5 = Experiment(
    "fig4_5",
    title="Two-way traffic, 1+1 connections, tau=0.01s",
    paper_ref="Figures 4-5 and Section 4.3.1",
    configs=lambda duration, warmup: [
        paper.figure4(duration=duration, warmup=warmup)],
    measure=fig4_5_measure, grade=_grade_fig4_5,
    full=dict(duration=700.0, warmup=250.0),
    fast=dict(duration=350.0, warmup=150.0),
)


def fig6_7_measure(result: ScenarioResult) -> dict:
    """Figures 6-7's observables: phase, shared epochs, empty queues."""
    start, end = result.window
    epochs = result.epochs()
    both_lose = sum(1 for e in epochs if len(e.connections) == 2)
    return {
        "util": result.utilization("sw1->sw2"),
        "queue_sync": verdict_measure(result.queue_sync()),
        "window_sync": verdict_measure(result.window_sync(1, 2)),
        "both_fraction": both_lose / len(epochs) if epochs else 0.0,
        "idle1": result.queue_series("sw1->sw2").fraction_at_or_below(
            0, start, end),
        "idle2": result.queue_series("sw2->sw1").fraction_at_or_below(
            0, start, end),
    }


def _grade_fig6_7(report, points) -> None:
    from repro.analysis.synchronization import SyncMode

    [m] = points
    band = UTILIZATION["fig6_two_way_large_pipe"]
    report.add("bottleneck utilization", f"~{band.value:.0%}",
               f"{m['util']:.1%}", band.contains(m["util"]))
    add_sync_row(report, "queue synchronization", "in-phase",
                 m["queue_sync"],
                 m["queue_sync"]["mode"] == SyncMode.IN_PHASE.value)
    add_sync_row(report, "window synchronization", "in-phase",
                 m["window_sync"],
                 m["window_sync"]["mode"] == SyncMode.IN_PHASE.value)
    report.add("both connections lose in the same epoch",
               "yes (1 drop each)", f"{m['both_fraction']:.0%} of epochs",
               m["both_fraction"] >= 0.6)
    # Section 4.3.2: "there are times when both lines are idle".
    idle1, idle2 = m["idle1"], m["idle2"]
    report.add("both queues have empty periods", "yes",
               f"q1 empty {idle1:.0%}, q2 empty {idle2:.0%}",
               idle1 > 0.02 and idle2 > 0.02)


fig6_7 = Experiment(
    "fig6_7",
    title="Two-way traffic, 1+1 connections, tau=1s",
    paper_ref="Figures 6-7 and Section 4.3.2",
    configs=lambda duration, warmup: [
        paper.figure6(duration=duration, warmup=warmup)],
    measure=fig6_7_measure, grade=_grade_fig6_7,
    full=dict(duration=900.0, warmup=300.0),
    fast=dict(duration=500.0, warmup=200.0),
)


def _grade_buffer_sweep(report, points) -> None:
    utils = {buffers: m[FORWARD]
             for buffers, m in zip(families.BUFFER_SIZES, points)}
    for buffers, util in utils.items():
        report.add(f"two-way utilization, B={buffers}", "~70% (flat)",
                   f"{util:.1%}", 0.55 <= util <= 0.85)
    spread = max(utils.values()) - min(utils.values())
    report.add("two-way spread across buffer sizes", "small",
               f"{spread:.1%}", spread <= 0.15)
    report.note(
        "contrast with one-way traffic (fig2/fig2_small_pipe), where idle "
        "time vanishes as B grows; here the effective pipe grows with the "
        "buffer, so utilization never approaches 100%"
    )


#: Section 4.3.1: two-way utilization is flat in buffer size (~70%),
#: unlike one-way where idle time vanishes with large buffers.  The
#: window increase-decrease cycle length grows roughly linearly in the
#: buffer size (a ~230 s cycle at B=120), so
#: :func:`~repro.scenarios.families.buffer_config` scales the
#: measurement window with the buffer to stay in steady state.
buffer_sweep = Experiment(
    "buffer_sweep",
    title="Utilization vs buffer size, two-way vs one-way",
    paper_ref="Sections 3.1 and 4.3.1",
    configs=lambda duration, warmup: [
        families.buffer_config(buffers, duration, warmup)
        for buffers in families.BUFFER_SIZES],
    measure=families.utilization_extract, grade=_grade_buffer_sweep,
    full=dict(duration=500.0, warmup=200.0),
    fast=dict(duration=300.0, warmup=120.0),
)


def mixed_cluster_measure(result: ScenarioResult) -> dict:
    """Cluster statistics of the *mixed* departure stream of
    ``sw1->sw2`` — one connection's data interleaved with the other's
    ACKs, the stream whose run lengths ACK-compression feeds on."""
    from repro.analysis.clustering import cluster_runs, clustering_stats

    start, end = result.window
    stats = clustering_stats(cluster_runs(
        result.traces.queue("sw1->sw2").departures,
        data_only=False, start=start, end=end))
    return {"max_run": stats.max_run_length, "mean_run": stats.mean_run_length}


def _grade_delayed_ack(report, points) -> None:
    baseline, small, large = points
    report.add("max cluster size, delack off", "window-sized (baseline)",
               f"{baseline['max_run']}", baseline["max_run"] >= 10)
    report.add("max cluster size, delack on, maxwnd=8",
               "a few small partial clusters", f"{small['max_run']}",
               small["max_run"] <= 8)
    report.add("max cluster size, delack on, large windows",
               "appreciable partial clusters remain", f"{large['max_run']}",
               large["max_run"] >= 10)
    report.add("delayed ACK reduces mean cluster size", "yes",
               f"{baseline['mean_run']:.1f} -> {small['mean_run']:.1f}",
               small["mean_run"] < baseline["mean_run"])


#: Section 5: delayed ACKs cut clusters into small pieces for small
#: windows, but appreciable partial clusters survive for large windows.
delayed_ack = Experiment(
    "delayed_ack",
    title="Delayed-ACK option vs packet clustering",
    paper_ref="Section 5",
    configs=lambda duration, warmup: [
        paper.figure4(duration=duration, warmup=warmup),
        paper.delayed_ack_two_way(maxwnd=8, duration=duration, warmup=warmup),
        paper.delayed_ack_two_way(maxwnd=1000, duration=duration,
                                  warmup=warmup)],
    measure=mixed_cluster_measure, grade=_grade_delayed_ack,
    full=dict(duration=500.0, warmup=200.0),
    fast=dict(duration=250.0, warmup=100.0),
)
