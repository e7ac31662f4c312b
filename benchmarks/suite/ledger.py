"""Turn the traced run's spans into the per-layer ledger.

The workload-independent micro-runs live in ``layers.py``; this module
adds what the spans of the traced workload say — each span name's self
time as a share of the traced wall, the counts taken at the span
boundaries, the tracing overhead — and prints both.
"""

from __future__ import annotations

from statistics import median

from benchmarks.suite.spans import SpanRecorder
from benchmarks.suite.workloads import Outcome

Metrics = dict[str, tuple[float, str]]

#: Span name -> ledger metric.  Every traced run reports all of them; a
#: span the workload never opens reads 0 (``paper_figures`` spends
#: nothing in the cache).
SHARES = {
    "scenarios.make_config": "scenarios.make_config_share_pct",
    "scenarios.build": "scenarios.build_share_pct",
    "scenarios.run": "scenarios.run_wrapper_share_pct",
    "Simulator.run": "engine.simulator_run_share_pct",
    "analysis.extract": "analysis.extract_share_pct",
    "parallel.cache_key": "parallel.cache_key_share_pct",
    "parallel.cache.get": "parallel.cache_get_share_pct",
    "parallel.cache.put": "parallel.cache_put_share_pct",
    "parallel.point": "parallel.point_share_pct",
}


def trace_overhead_pct(traced: Outcome, plain: Outcome) -> float:
    """Traced versus untraced wall, averaged over the timing series the
    two runs share (each compared median to median)."""
    ratios = [traced.series[name]["median"] / plain.series[name]["median"]
              for name in traced.series if name in plain.series]
    return (sum(ratios) / len(ratios) - 1.0) * 100.0


def workload_ledger(recorder: SpanRecorder, traced: Outcome,
                    plain: Outcome) -> Metrics:
    roots = [span for span in recorder.spans if span.parent is None]
    wall = sum(span.duration for span in roots)
    selfs = recorder.self_by_name()
    out: Metrics = {
        "suite.trace_overhead_pct": (trace_overhead_pct(traced, plain), "%"),
    }
    for span_name, metric in SHARES.items():
        out[metric] = (selfs.get(span_name, 0.0) / wall * 100.0, "%")
    out["parallel.sweep_self_share_pct"] = (
        sum(seconds for name, seconds in selfs.items()
            if name.startswith("sweep.")) / wall * 100.0, "%")
    points = [span for span in recorder.spans if span.name == "parallel.point"]
    out["parallel.point_overhead_ms"] = (
        median((span.duration - span.counts["simulate_s"]) * 1e3
               for span in points) if points else 0.0, "ms")
    gets = [span for span in recorder.spans if span.name == "parallel.cache.get"]
    hits = sum(span.counts["hit"] for span in gets)
    out.update({
        "engine.events": (float(traced.stats["events"]), "count"),
        "engine.events_per_packet": (
            traced.stats["events"] / traced.stats["packets"], "count"),
        "tcp.packets": (float(traced.stats["packets"]), "count"),
        "tcp.timeouts": (float(traced.stats["timeouts"]), "count"),
        "tcp.retransmits": (float(traced.stats["retransmits"]), "count"),
        "net.drops": (float(traced.stats["drops"]), "count"),
        "parallel.cache_hits": (hits, "count"),
        "parallel.cache_misses": (len(gets) - hits, "count"),
        "parallel.point_attempts": (
            sum(span.counts["attempts"] for span in points), "count"),
    })
    return out


def print_ledger(recorder: SpanRecorder, metrics: Metrics) -> None:
    """The two tables a reader wants first."""
    print("\nwhere a delivered packet's microseconds go "
          "(reference scenarios; calendar and net are computed)")
    header = ("calendar", "net", "tcp", "monitors", "build", "total")
    print(f"  {'':<12}" + "".join(f"{name:>13}" for name in header))
    for label in ("two_way", "population"):
        row = [metrics[f"engine.calendar_us_per_packet.{label}"][0],
               metrics[f"net.us_per_packet.{label}"][0],
               metrics[f"tcp.self_us_per_packet.{label}"][0],
               metrics[f"metrics.us_per_packet.{label}"][0],
               metrics[f"scenarios.build_us_per_packet.{label}"][0],
               metrics[f"scenarios.run_us_per_packet.{label}"][0]]
        print(f"  {label:<12}" + "".join(f"{value:>11.1f}us" for value in row))
    print("\nself time by span name (traced workload)")
    selfs = recorder.self_by_name()
    wall = sum(span.duration for span in recorder.spans if span.parent is None)
    for name, seconds in sorted(selfs.items(), key=lambda item: -item[1]):
        count = sum(1 for span in recorder.spans if span.name == name)
        print(f"  {name:<24} {seconds:>9.4f} s  {seconds / wall * 100:>6.2f}%  "
              f"n={count}")
    # 100 % when spans nest serially; above it when points overlap on two
    # workers (self time is counted once per span, not once per core).
    print(f"  {'sum of self times':<24} {sum(selfs.values()):>9.4f} s  "
          f"{sum(selfs.values()) / wall * 100:>6.2f}%  of {wall:.4f} s traced "
          f"(traced vs untraced pass: "
          f"{metrics['suite.trace_overhead_pct'][0]:+.2f}%)")
