"""Append engine / sweep throughput numbers to ``BENCH_engine.json``.

Run after engine or sweep-layer changes::

    PYTHONPATH=src python benchmarks/perf_harness.py

Each invocation appends one record to the JSON array in
``BENCH_engine.json`` at the repo root (override with ``--output``), so
the perf trajectory stays visible PR over PR:

- ``event_throughput_eps`` — chained schedule/pop events per second;
- ``cancel_churn_eps`` — schedule+cancel pairs per second (compaction);
- ``dumbbell_packets_per_s`` — delivered packets per wall second on the
  one-connection dumbbell;
- ``sweep_cold_s`` / ``sweep_warm_s`` / ``cache_speedup`` — a four-point
  fixed-window sweep, cold vs through a warm result cache;
- ``baseline_event_regression_pct`` / ``baseline_cancel_regression_pct``
  — the shipped kernel's throughput regression relative to the frozen
  kernel committed in ``baseline_kernel.py``, measured as interleaved
  paired runs in one process.  This is the *relative* perf gate
  (``--max-regression``): it compares two kernels on the same machine
  in the same minute, so it holds on any host, unlike the absolute
  numbers above.  See ``docs/performance.md``.
- ``tracing_disabled_overhead_pct`` / ``tracing_enabled_overhead_pct`` —
  cost of the :mod:`repro.obs` engine hook.  The disabled number is the
  same comparison as the event regression (the frozen kernel has no
  hooks at all), guarded by ``--max-tracing-overhead``; the enabled
  number prices actually turning tracing on.
- ``resilience_disabled_overhead_pct`` — cost of routing a sweep
  through ``ParallelSweepRunner`` with resilience left off, guarded by
  ``--max-resilience-overhead``.
- ``metrics_disabled_overhead_pct`` / ``metrics_enabled_overhead_pct``
  — cost of the :mod:`repro.obs.metrics` layer.  The disabled number
  prices ``run(config)`` (whose metrics branches must collapse to
  ``is None`` checks) against a bare build-and-drain loop, guarded by
  ``--max-metrics-overhead``; the enabled number prices actually
  metering a run (live probes + finalize harvest).

All paired estimates use :func:`paired_overhead_pct`: alternating-order
back-to-back pairs, the first pairs discarded as warmup, median of the
remaining per-pair ratios.  (An earlier min-of-pass-medians estimator
could return confidently negative overheads on a noisy machine —
``tracing_disabled_overhead_pct: -9.02`` in the bench history is that
artifact.)
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import platform
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path
from statistics import median

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from baseline_kernel import BaselineSimulator  # noqa: E402
from repro.engine import Simulator  # noqa: E402
from repro.net import build_dumbbell  # noqa: E402
from repro.parallel import ResultCache  # noqa: E402
from repro.scenarios import families, sweep  # noqa: E402
from repro.tcp import make_tahoe_connection  # noqa: E402

#: Iteration counts, recorded into each bench entry so the numbers are
#: comparable across PRs even if the defaults move.
EVENT_N = 200_000
CANCEL_N = 100_000
DUMBBELL_DURATION_S = 60.0
PAIRED_N = 20_000
PAIRED_REPS = 16
PAIRED_WARMUP = 3


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _gc_paused(body) -> float:
    """Run ``body`` with the collector paused; return elapsed seconds.

    Every timed region here allocates heavily (one Event per simulated
    event), and unpredictable collection pauses otherwise swamp the
    per-event costs being compared.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        body()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Workloads (shared between the absolute and the paired benches)
# ----------------------------------------------------------------------
def _tick_rate(sim, n: int) -> float:
    """Events per second of a chained-tick workload on ``sim``."""
    remaining = [n]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001, tick)

    sim.schedule(0.001, tick)
    return n / _gc_paused(sim.run)


def _cancel_rate(sim, n: int) -> float:
    """Schedule+cancel pairs per second (the refreshed-timer pattern)."""

    def churn():
        stale = None
        for _ in range(n):
            if stale is not None:
                stale.cancel()
            stale = sim.schedule(1_000.0, lambda: None)
        sim.run()

    return n / _gc_paused(churn)


def bench_event_throughput(n: int = EVENT_N) -> float:
    """Chained tick events per second (absolute, shipped kernel)."""
    return _tick_rate(Simulator(), n)


def bench_cancel_churn(n: int = CANCEL_N) -> float:
    """Schedule+cancel pairs per second (absolute, shipped kernel)."""
    return _cancel_rate(Simulator(), n)


def bench_dumbbell(duration: float = DUMBBELL_DURATION_S) -> float:
    """Delivered data packets per wall second, one Tahoe connection."""
    sim = Simulator()
    net = build_dumbbell(sim, bottleneck_propagation=0.01)
    conn = make_tahoe_connection(sim, net, 1, "host1", "host2")
    elapsed = _gc_paused(lambda: sim.run(until=duration))
    return conn.receiver.rcv_nxt / elapsed


# ----------------------------------------------------------------------
# The paired estimator
# ----------------------------------------------------------------------
def paired_overhead_pct(base_rate, other_rate, *, reps: int = PAIRED_REPS,
                        warmup: int = PAIRED_WARMUP) -> float:
    """Percent overhead of ``other`` relative to ``base``.

    Both arguments are zero-arg callables returning a *rate* (higher is
    better).  Each rep runs the two back to back — alternating which
    goes first, so linear machine drift cancels — and contributes one
    ``base/other`` ratio.  The first ``warmup`` pairs are discarded
    (they pay allocator and cache warmup), and the estimate is the
    **median** of the remaining ratios: robust to contention spikes in
    either direction, unlike a min- or max-based reduction, which on a
    noisy machine manufactures confidently wrong (even negative)
    overheads out of one lucky pair.
    """
    if reps <= warmup:
        raise ValueError(f"need reps > warmup, got {reps} <= {warmup}")
    ratios: list[float] = []
    for rep in range(reps):
        if rep % 2:
            other = other_rate()
            base = base_rate()
        else:
            base = base_rate()
            other = other_rate()
        ratios.append(base / other)
    return (median(ratios[warmup:]) - 1.0) * 100


def bench_baseline_regression(n: int = PAIRED_N) -> tuple[float, float]:
    """(event_pct, cancel_pct) regression vs the committed frozen kernel.

    Positive = the shipped kernel is slower than the baseline snapshot.
    Runs the shipped simulator in its default configuration minus
    tracing/strict (the fast path the baseline freezes).
    """
    event_pct = paired_overhead_pct(
        lambda: _tick_rate(BaselineSimulator(), n),
        lambda: _tick_rate(Simulator(strict=False), n),
    )
    cancel_pct = paired_overhead_pct(
        lambda: _cancel_rate(BaselineSimulator(), n),
        lambda: _cancel_rate(Simulator(strict=False), n),
    )
    return event_pct, cancel_pct


def bench_tracing_enabled_overhead(n: int = PAIRED_N) -> float:
    """Percent cost of an attached aggregates-only tracer vs untraced."""
    from repro.obs import Tracer

    def traced_rate() -> float:
        sim = Simulator(strict=False)
        sim.set_tracer(Tracer(record_spans=False, record_hops=False))
        return _tick_rate(sim, n)

    return paired_overhead_pct(
        lambda: _tick_rate(Simulator(strict=False), n), traced_rate)


def bench_resilience_overhead(points: int = 4) -> float:
    """Overhead pct of the resilience-disabled sweep path vs a bare loop.

    The resilience layer threads timeout/retry/journal decisions through
    ``ParallelSweepRunner.run_configs``, but with ``resilience=None``
    (the default) every one of those branches must collapse to a cheap
    ``is None`` check.  This prices the serial runner — no cache, no
    journal, no policy — against a bare ``run_scenario`` + extract loop
    over identical configs.  The workload is deliberately
    short-duration so per-point runner bookkeeping is not drowned out
    by simulation time.
    """
    from repro.parallel import ParallelSweepRunner
    from repro.scenarios.runner import run as run_scenario

    cases = families.CONJECTURE_CASES[:points]
    make_config = functools.partial(families.conjecture_config,
                                    duration=10.0, warmup=2.0)
    configs = [make_config(case) for case in cases]
    extract = families.utilization_extract

    def bare_rate() -> float:
        def body():
            for config in configs:
                extract(run_scenario(config))
        return 1.0 / _gc_paused(body)

    def runner_rate() -> float:
        runner = ParallelSweepRunner(jobs=1)
        return 1.0 / _gc_paused(lambda: runner.run_configs(configs, extract))

    return paired_overhead_pct(bare_rate, runner_rate,
                               reps=10, warmup=2)


def bench_metrics_overhead() -> tuple[float, float]:
    """(disabled_pct, enabled_pct) cost of the metrics layer.

    Disabled: ``run(config)`` — which must resolve its ``metrics=None``
    branches to single ``is None`` checks — against building and
    draining the same scenario directly.  Enabled: a metered
    ``run(config, metrics=True)`` against the bare ``run(config)``,
    pricing probe binding, the live RTT/departure probes and the
    finalize harvest.  Short-duration scenarios keep the per-run
    bookkeeping visible against simulation time.
    """
    from repro.scenarios.builder import build
    from repro.scenarios.runner import run as run_scenario

    config = families.conjecture_config(families.CONJECTURE_CASES[0],
                                        duration=10.0, warmup=2.0)

    def bare_rate() -> float:
        def body():
            built = build(config)
            built.sim.run(until=config.duration)
        return 1.0 / _gc_paused(body)

    def run_rate() -> float:
        return 1.0 / _gc_paused(lambda: run_scenario(config))

    def metered_rate() -> float:
        return 1.0 / _gc_paused(lambda: run_scenario(config, metrics=True))

    disabled = paired_overhead_pct(bare_rate, run_rate, reps=10, warmup=2)
    enabled = paired_overhead_pct(run_rate, metered_rate, reps=10, warmup=2)
    return disabled, enabled


def bench_sweep_cache() -> tuple[float, float]:
    """(cold_seconds, warm_seconds) for a four-point fixed-window sweep."""
    cases = families.CONJECTURE_CASES[:4]
    make_config = functools.partial(families.conjecture_config,
                                    duration=120.0, warmup=60.0)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        started = time.perf_counter()
        sweep(make_config, cases, families.utilization_extract, cache=cache)
        cold = time.perf_counter() - started
        started = time.perf_counter()
        sweep(make_config, cases, families.utilization_extract, cache=cache)
        warm = time.perf_counter() - started
    return cold, warm


def collect() -> dict:
    cold, warm = bench_sweep_cache()
    event_regression, cancel_regression = bench_baseline_regression()
    metrics_disabled, metrics_enabled = bench_metrics_overhead()
    return {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "bench_iterations": {
            "event_n": EVENT_N,
            "cancel_n": CANCEL_N,
            "dumbbell_duration_s": DUMBBELL_DURATION_S,
            "paired_n": PAIRED_N,
            "paired_reps": PAIRED_REPS,
            "paired_warmup": PAIRED_WARMUP,
        },
        "event_throughput_eps": round(bench_event_throughput()),
        "cancel_churn_eps": round(bench_cancel_churn()),
        "dumbbell_packets_per_s": round(bench_dumbbell()),
        "sweep_cold_s": round(cold, 3),
        "sweep_warm_s": round(warm, 4),
        "cache_speedup": round(cold / warm, 1),
        "baseline_event_regression_pct": round(event_regression, 2),
        "baseline_cancel_regression_pct": round(cancel_regression, 2),
        # The frozen kernel has no tracer hook at all, so "regression vs
        # baseline" and "cost of the disabled tracer path" are the same
        # comparison; the historical key is kept for trajectory reads.
        "tracing_disabled_overhead_pct": round(event_regression, 2),
        "tracing_enabled_overhead_pct": round(bench_tracing_enabled_overhead(), 2),
        "resilience_disabled_overhead_pct": round(bench_resilience_overhead(), 2),
        "metrics_disabled_overhead_pct": round(metrics_disabled, 2),
        "metrics_enabled_overhead_pct": round(metrics_enabled, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_engine.json"),
                        help="JSON array file to append to")
    parser.add_argument("--max-regression", type=float, default=None,
                        metavar="PCT",
                        help="fail (exit 1) when the shipped kernel is more "
                             "than PCT%% slower than the committed baseline "
                             "kernel on either paired workload")
    parser.add_argument("--max-tracing-overhead", type=float, default=None,
                        metavar="PCT",
                        help="fail (exit 1) when the disabled-tracer fast "
                             "path costs more than PCT%% vs the hook-free "
                             "baseline kernel")
    parser.add_argument("--max-resilience-overhead", type=float, default=None,
                        metavar="PCT",
                        help="fail (exit 1) when the resilience-disabled "
                             "sweep path costs more than PCT%% vs a bare "
                             "run-and-extract loop")
    parser.add_argument("--max-metrics-overhead", type=float, default=None,
                        metavar="PCT",
                        help="fail (exit 1) when the metrics-disabled run "
                             "path costs more than PCT%% vs a bare "
                             "build-and-drain loop")
    args = parser.parse_args(argv)

    record = collect()
    target = Path(args.output)
    history: list[dict] = []
    if target.exists():
        try:
            history = json.loads(target.read_text())
        except ValueError:
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(record)
    target.write_text(json.dumps(history, indent=2) + "\n")

    for key, value in record.items():
        print(f"{key}: {value}")
    print(f"appended to {target} ({len(history)} records)")

    failed = False
    if args.max_regression is not None:
        for key in ("baseline_event_regression_pct",
                    "baseline_cancel_regression_pct"):
            regression = record[key]
            if regression > args.max_regression:
                print(f"FAIL: {key} {regression:.2f}% exceeds the "
                      f"{args.max_regression:.2f}% budget")
                failed = True
            else:
                print(f"regression guard OK: {key} {regression:.2f}% <= "
                      f"{args.max_regression:.2f}%")

    if args.max_tracing_overhead is not None:
        overhead = record["tracing_disabled_overhead_pct"]
        if overhead > args.max_tracing_overhead:
            print(f"FAIL: disabled-tracer overhead {overhead:.2f}% exceeds "
                  f"the {args.max_tracing_overhead:.2f}% budget")
            failed = True
        else:
            print(f"tracing-overhead guard OK: {overhead:.2f}% <= "
                  f"{args.max_tracing_overhead:.2f}%")

    if args.max_resilience_overhead is not None:
        overhead = record["resilience_disabled_overhead_pct"]
        if overhead > args.max_resilience_overhead:
            print(f"FAIL: resilience-disabled sweep overhead {overhead:.2f}% "
                  f"exceeds the {args.max_resilience_overhead:.2f}% budget")
            failed = True
        else:
            print(f"resilience-overhead guard OK: {overhead:.2f}% <= "
                  f"{args.max_resilience_overhead:.2f}%")

    if args.max_metrics_overhead is not None:
        overhead = record["metrics_disabled_overhead_pct"]
        if overhead > args.max_metrics_overhead:
            print(f"FAIL: metrics-disabled overhead {overhead:.2f}% "
                  f"exceeds the {args.max_metrics_overhead:.2f}% budget")
            failed = True
        else:
            print(f"metrics-overhead guard OK: {overhead:.2f}% <= "
                  f"{args.max_metrics_overhead:.2f}%")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
