"""Reproduction experiments for the two-way-traffic results (Sections 3.2, 4).

Covers Figure 3 (ten connections), Figures 4-5 (out-of-phase mode),
Figures 6-7 (in-phase mode), the buffer-size counterexample, and the
delayed-ACK discussion of Section 5.
"""

from __future__ import annotations

from repro.analysis.clustering import cluster_runs, clustering_stats
from repro.analysis.epochs import drops_per_epoch
from repro.analysis.growth import growth_concavity, rebuild_segments
from repro.analysis.oscillation import rapid_fluctuation_amplitude
from repro.analysis.synchronization import (
    SyncMode,
    alternation_fraction,
    mean_correlation,
)
from repro.experiments.expectations import DROP_PATTERNS, UTILIZATION
from repro.experiments.report import ExperimentReport
from repro.scenarios import paper, run

__all__ = ["fig3", "fig3_buffer60", "fig4_5", "fig6_7", "buffer_sweep", "delayed_ack"]


def fig3(duration: float = 600.0, warmup: float = 200.0) -> ExperimentReport:
    """Figure 3 / Section 3.2: 5+5 connections, tau = 0.01 s, B = 30."""
    result = run(paper.figure3(duration=duration, warmup=warmup))
    report = ExperimentReport(
        exp_id="fig3",
        title="Two-way traffic, 5+5 connections, B=30",
        paper_ref="Figure 3 and Section 3.2",
    )

    band = UTILIZATION["fig3_b30"]
    util = result.utilization("sw1->sw2")
    report.add("bottleneck utilization", f"~{band.value:.0%}", f"{util:.1%}",
               band.contains(util))

    verdict = result.queue_sync()
    report.add("queue synchronization", "out-of-phase",
               f"{verdict.mode} (r={verdict.correlation:+.2f})",
               verdict.mode is SyncMode.OUT_OF_PHASE)

    frac = result.data_drop_fraction()
    frac_band = DROP_PATTERNS["fig3_data_drop_fraction"]
    report.add("data packets among drops", "99.8%", f"{frac:.2%}",
               frac_band.contains(frac))

    amplitude = rapid_fluctuation_amplitude(
        result.queue_series("sw1->sw2"), warmup, duration,
        window=result.config.data_tx_time,
    )
    report.add("rapid queue fluctuations (per data-tx-time)", "~5 packets",
               f"{amplitude:.0f} packets", amplitude >= 3)

    epochs = result.epochs(gap=4.0)
    mean_drops = drops_per_epoch(epochs)
    drops_band = DROP_PATTERNS["fig3_drops_per_epoch"]
    report.add("drops per congestion epoch", "~10 (= total acceleration)",
               f"{mean_drops:.1f}", drops_band.contains(mean_drops))
    report.note(
        "drop clusters per epoch depend on the epoch-gap parameter; the "
        "paper notes the count 'varies' in this configuration"
    )

    # Section 3.2: same-direction connections in-phase, the two host
    # groups out-of-phase with each other.
    host1_group = result.cwnd_series(range(1, 6))
    host2_group = result.cwnd_series(range(6, 11))
    within_1 = mean_correlation(host1_group, warmup, duration)
    within_2 = mean_correlation(host2_group, warmup, duration)
    between = mean_correlation(host1_group, warmup, duration,
                               across=host2_group)
    report.add("same-direction windows in-phase", "yes",
               f"mean r {within_1:+.2f} / {within_2:+.2f}",
               within_1 > 0.0 and within_2 > 0.0)
    report.add("host1 group out-of-phase with host2 group", "yes",
               f"mean r {between:+.2f}", between < 0.0)
    return report


def fig3_buffer60(duration: float = 600.0, warmup: float = 200.0) -> ExperimentReport:
    """Section 3.2 prose: doubling the buffer does NOT raise utilization."""
    result30 = run(paper.figure3(buffer_packets=30, duration=duration, warmup=warmup))
    result60 = run(paper.figure3(buffer_packets=60, duration=duration, warmup=warmup))
    report = ExperimentReport(
        exp_id="fig3_buf60",
        title="Two-way 5+5 connections, buffer 30 vs 60",
        paper_ref="Section 3.2 prose",
    )
    util30 = result30.utilization("sw1->sw2")
    util60 = result60.utilization("sw1->sw2")
    report.add("utilization at B=30", "~91%", f"{util30:.1%}", None)
    report.add("utilization at B=60", "~87%", f"{util60:.1%}", None)
    report.add("bigger buffer does not raise utilization", "yes",
               "yes" if util60 <= util30 + 0.03 else "no",
               util60 <= util30 + 0.03)
    return report


def fig4_5(duration: float = 700.0, warmup: float = 250.0) -> ExperimentReport:
    """Figures 4-5: two-way, tau = 0.01 s — the out-of-phase mode."""
    result = run(paper.figure4(duration=duration, warmup=warmup))
    report = ExperimentReport(
        exp_id="fig4_5",
        title="Two-way traffic, 1+1 connections, tau=0.01s",
        paper_ref="Figures 4-5 and Section 4.3.1",
    )

    band = UTILIZATION["fig4_two_way_small_pipe"]
    util = result.utilization("sw1->sw2")
    report.add("bottleneck utilization", f"~{band.value:.0%}", f"{util:.1%}",
               band.contains(util))

    queue_verdict = result.queue_sync()
    report.add("queue synchronization", "out-of-phase",
               f"{queue_verdict.mode} (r={queue_verdict.correlation:+.2f})",
               queue_verdict.mode is SyncMode.OUT_OF_PHASE)

    window_verdict = result.window_sync(1, 2)
    report.add("window synchronization", "out-of-phase",
               f"{window_verdict.mode} (r={window_verdict.correlation:+.2f})",
               window_verdict.mode is SyncMode.OUT_OF_PHASE)

    epochs = result.epochs()
    mean_drops = drops_per_epoch(epochs)
    drops_band = DROP_PATTERNS["fig4_drops_per_epoch"]
    report.add("drops per congestion epoch", "2 (total acceleration)",
               f"{mean_drops:.2f}", drops_band.contains(mean_drops))

    single = [e for e in epochs if len(e.connections) == 1]
    single_frac = len(single) / len(epochs) if epochs else 0.0
    report.add("losses concentrated on one connection per epoch",
               "always (2 drops, same connection)",
               f"{single_frac:.0%} of epochs", single_frac >= 0.7)

    if len(single) >= 2:
        alternation = alternation_fraction(epochs)
        report.add("losing connection alternates between epochs", "always",
                   f"{alternation:.0%}", alternation >= 0.7)

    compression = result.ack_compression(1)
    report.add("ACK-compression factor at source", "RA/RD = 10",
               f"{compression.compression_factor:.1f}",
               5.0 <= compression.compression_factor <= 12.0)

    # Section 4.3.1: after the double drop (ssthresh -> 2), the window
    # rebuilds with decelerating, square-root-like growth — not an
    # exponential phase followed by a linear one.
    log = result.traces.cwnd(1)
    segments = rebuild_segments(log.loss_times, warmup, duration, margin=1.0)
    if segments:
        concavities = [growth_concavity(log.cwnd, a, b) for a, b in segments]
        concave = sum(1 for c in concavities if c > 0)
        report.add("post-double-drop growth decelerates (sqrt-like)",
                   "cwnd ~ sqrt(t) over the cycle",
                   f"{concave}/{len(concavities)} rebuilds concave",
                   concave / len(concavities) >= 0.6)
    return report


def fig6_7(duration: float = 900.0, warmup: float = 300.0) -> ExperimentReport:
    """Figures 6-7: two-way, tau = 1 s — the in-phase mode."""
    result = run(paper.figure6(duration=duration, warmup=warmup))
    report = ExperimentReport(
        exp_id="fig6_7",
        title="Two-way traffic, 1+1 connections, tau=1s",
        paper_ref="Figures 6-7 and Section 4.3.2",
    )

    band = UTILIZATION["fig6_two_way_large_pipe"]
    util = result.utilization("sw1->sw2")
    report.add("bottleneck utilization", f"~{band.value:.0%}", f"{util:.1%}",
               band.contains(util))

    queue_verdict = result.queue_sync()
    report.add("queue synchronization", "in-phase",
               f"{queue_verdict.mode} (r={queue_verdict.correlation:+.2f})",
               queue_verdict.mode is SyncMode.IN_PHASE)

    window_verdict = result.window_sync(1, 2)
    report.add("window synchronization", "in-phase",
               f"{window_verdict.mode} (r={window_verdict.correlation:+.2f})",
               window_verdict.mode is SyncMode.IN_PHASE)

    epochs = result.epochs()
    both_lose = sum(1 for e in epochs if len(e.connections) == 2)
    both_frac = both_lose / len(epochs) if epochs else 0.0
    report.add("both connections lose in the same epoch",
               "yes (1 drop each)", f"{both_frac:.0%} of epochs",
               both_frac >= 0.6)

    # Section 4.3.2: "there are times when both lines are idle".
    start, end = result.window
    q1 = result.queue_series("sw1->sw2")
    q2 = result.queue_series("sw2->sw1")
    idle1 = q1.fraction_at_or_below(0, start, end)
    idle2 = q2.fraction_at_or_below(0, start, end)
    report.add("both queues have empty periods", "yes",
               f"q1 empty {idle1:.0%}, q2 empty {idle2:.0%}",
               idle1 > 0.02 and idle2 > 0.02)
    return report


def buffer_sweep(duration: float = 500.0, warmup: float = 200.0) -> ExperimentReport:
    """Section 4.3.1: two-way utilization is flat in buffer size (~70%),
    unlike one-way where idle time vanishes with large buffers.

    The window increase-decrease cycle length grows roughly linearly in
    the buffer size (a ~230 s cycle at B=120), so the measurement window
    is scaled with the buffer to stay in steady state.
    """
    report = ExperimentReport(
        exp_id="buffer_sweep",
        title="Utilization vs buffer size, two-way vs one-way",
        paper_ref="Sections 3.1 and 4.3.1",
    )
    utils = {}
    for buffers in (20, 60, 120):
        scale = max(1.0, buffers / 24.0)
        window_duration = duration * scale
        window_warmup = warmup * scale
        result = run(paper.figure4(buffer_packets=buffers,
                                   duration=window_duration,
                                   warmup=window_warmup))
        utils[buffers] = result.utilization("sw1->sw2")
        report.add(f"two-way utilization, B={buffers}", "~70% (flat)",
                   f"{utils[buffers]:.1%}", 0.55 <= utils[buffers] <= 0.85)
    spread = max(utils.values()) - min(utils.values())
    report.add("two-way spread across buffer sizes", "small",
               f"{spread:.1%}", spread <= 0.15)
    report.note(
        "contrast with one-way traffic (fig2/fig2_small_pipe), where idle "
        "time vanishes as B grows; here the effective pipe grows with the "
        "buffer, so utilization never approaches 100%"
    )
    return report


def delayed_ack(duration: float = 500.0, warmup: float = 200.0) -> ExperimentReport:
    """Section 5: delayed ACKs cut clusters into small pieces for small
    windows, but appreciable partial clusters survive for large windows.

    Cluster structure is measured on the *mixed* departure stream of the
    bottleneck (one connection's data interleaved with the other's
    ACKs), which is the stream whose run lengths ACK-compression feeds
    on.
    """
    report = ExperimentReport(
        exp_id="delayed_ack",
        title="Delayed-ACK option vs packet clustering",
        paper_ref="Section 5",
    )

    def mixed_stats(result):
        runs = cluster_runs(
            result.traces.queue("sw1->sw2").departures,
            data_only=False, start=warmup, end=duration,
        )
        return clustering_stats(runs)

    baseline = mixed_stats(run(paper.figure4(duration=duration, warmup=warmup)))
    small = mixed_stats(run(paper.delayed_ack_two_way(
        maxwnd=8, duration=duration, warmup=warmup)))
    large = mixed_stats(run(paper.delayed_ack_two_way(
        maxwnd=1000, duration=duration, warmup=warmup)))

    report.add("max cluster size, delack off", "window-sized (baseline)",
               f"{baseline.max_run_length}", baseline.max_run_length >= 10)
    report.add("max cluster size, delack on, maxwnd=8",
               "a few small partial clusters", f"{small.max_run_length}",
               small.max_run_length <= 8)
    report.add("max cluster size, delack on, large windows",
               "appreciable partial clusters remain", f"{large.max_run_length}",
               large.max_run_length >= 10)
    report.add("delayed ACK reduces mean cluster size", "yes",
               f"{baseline.mean_run_length:.1f} -> {small.mean_run_length:.1f}",
               small.mean_run_length < baseline.mean_run_length)
    return report
